import json
import pathlib

import pytest
from hypothesis import settings

# Every property test runs without a deadline (the head and partition cases
# take variable time) and derandomized, so a run is reproducible; each test
# sets its own max_examples.
settings.register_profile("vmfhead", deadline=None, derandomize=True)
settings.load_profile("vmfhead")


@pytest.fixture(scope="session")
def fixtures():
    """Frozen oracle values; regenerate with scripts/gen_fixtures.py."""
    path = pathlib.Path(__file__).parent / "fixtures.json"
    return json.loads(path.read_text())
