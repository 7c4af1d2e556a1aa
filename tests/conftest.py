import hashlib
import json
import pathlib

import numpy as np
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


@pytest.fixture(scope="session")
def digest():
    """SHA-256 over a list of arrays, each as its shape and float64 bytes:
    the form the regression pins of partitions and stacks are written in."""

    def sha256(arrays) -> str:
        h = hashlib.sha256()
        for a in arrays:
            a = np.ascontiguousarray(a, dtype=np.float64)
            h.update(repr(a.shape).encode())
            h.update(a.tobytes())
        return h.hexdigest()

    return sha256
