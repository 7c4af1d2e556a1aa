"""Rewrite verify_checks.json: the (suite, name) list of `run_suite("all")`.

    python3 perfbench/regen_verify_checks.py

The verify-all workload fails its check when the suite's check list differs
from this file, so a change that drops or renames a check shows.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from vmfhead.verify import run_suite  # noqa: E402

if __name__ == "__main__":
    checks = run_suite("all")["checks"]
    names = [[c["suite"], c["name"]] for c in checks]
    lines = ",\n".join(" " + json.dumps(n) for n in names)
    (HERE / "verify_checks.json").write_text(f"[\n{lines}\n]\n")
    print(f"wrote {len(names)} check names")
