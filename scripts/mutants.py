#!/usr/bin/env python3
"""Mutation checks: source faults the tests are said to catch, re-run.

Each row of MUTANTS names a file, an exact text in it, the text that
replaces it and the tests that must fail once it is made.  The rows are
applied one at a time to a copy of src/ and tests/ in a temporary
directory, the row's tests run there, and the row is reported killed (a
named test fails) or survived.  A row with a `survives` reason is a known
survivor: the report shows it, and it must survive.

The run exits 1 when a row's text does not occur exactly once in its file,
when the named tests fail on the unmutated copy, or when a row ends other
than its table says: a mutant survives that is not listed as a survivor,
or a listed survivor is killed.  Standard library only.

Run from anywhere:  python3 scripts/mutants.py
"""

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]

_ASSEMBLY = "src/vmfhead/seq2seq/assembly.py"
_HALF_WIDTH = "return math.ceil(_reach(lam, n_points, 0.5 * delta) / delta) + 1"
_ORACLE = "tests/test_seq2seq.py::TestCircleWindow::test_window_meets_50_digit_oracle"
_DENSE = "tests/test_seq2seq.py::TestCircleWindow::test_window_agrees_with_dense_head"

MUTANTS = [
    {
        # as accurate as the dot product it replaced: off by 4e-7 at
        # N = 2^20, lam = 1.9e10, where the sin^2 form is off by 6e-12
        "name": "full-mode logits as lam cos(theta - phi), not the haversine form",
        "file": _ASSEMBLY,
        "old": "-2.0 * self.lam * np.sin(((t - cell)[:, None] - (offset + 0.5)) * (math.pi / n)) ** 2",
        "new": "self.lam * np.cos(((t - cell)[:, None] - (offset + 0.5)) * (2.0 * math.pi / n))",
        "tests": [_ORACLE],
    },
    {
        "name": "full-mode anchors at j delta, the half-cell offset dropped",
        "file": _ASSEMBLY,
        "old": "(offset + 0.5)",
        "new": "offset",
        "tests": [_ORACLE, "tests/test_seq2seq.py::test_bank_layer_is_its_token_form"],
    },
    {
        # 7 of the 15 agreement cases fail, at lam = 2e3 and N >= 1026
        "name": "half the certified window half-width",
        "file": _ASSEMBLY,
        "old": _HALF_WIDTH,
        "new": "return (math.ceil(_reach(lam, n_points, 0.5 * delta) / delta) + 1) // 2",
        "tests": [_DENSE],
    },
    {
        "name": "window half-width w - 2 at large w",
        "file": _ASSEMBLY,
        "old": _HALF_WIDTH,
        "new": "return math.ceil(_reach(lam, n_points, 0.5 * delta) / delta) - 1",
        "tests": [_ORACLE, f"{_DENSE}[4096-200000.0]", f"{_DENSE}[262144-2000.0]"],
        "survives": "the nearest anchor w - 2 drops sits about tau_N (45 at N = 4096) below the "
        "row max, so it carries about e^-45 of the row sum, far below rounding; w - 2 is caught "
        "only where w is 2",
    },
    {
        "name": "change-of-variables weight (1 - t^2)^((m - 1)/2) in verify",
        "file": "src/vmfhead/verify.py",
        "old": "(1 - t * t) ** ((m - 2) / 2)",
        "new": "(1 - t * t) ** ((m - 1) / 2)",
        "tests": ["tests/test_acceptance.py::test_12_verification_suite"],
    },
]


def _pytest(tree: pathlib.Path, tests: list) -> int:
    """pytest's exit status for the tests run in tree, stopping at the first
    failure; no bytecode is written, so a restored file is read afresh."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH="src")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def run(rows: list, root: pathlib.Path = ROOT) -> int:
    """Apply each row to a copy of root's src/ and tests/, run its tests and
    print one line per row; returns the exit status (module docstring)."""
    sources = {row["file"]: (root / row["file"]).read_text() for row in rows}
    misplaced = [row for row in rows if sources[row["file"]].count(row["old"]) != 1]
    for row in misplaced:
        print(f"error    {row['name']}: its old text occurs {sources[row['file']].count(row['old'])} times in {row['file']}")
    if misplaced:
        return 1
    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        tree = pathlib.Path(tmp)
        shutil.copy2(root / "pyproject.toml", tree)
        for part in ("src", "tests"):
            shutil.copytree(root / part, tree / part, ignore=shutil.ignore_patterns("__pycache__"))
        if _pytest(tree, sorted({t for row in rows for t in row["tests"]})) != 0:
            print("error    the named tests fail on the unmutated tree")
            return 1
        for row in rows:
            path = tree / row["file"]
            path.write_text(sources[row["file"]].replace(row["old"], row["new"]))
            result = _pytest(tree, row["tests"])
            path.write_text(sources[row["file"]])
            if result not in (0, 1):
                print(f"error    {row['name']}: pytest exited {result}")
                status = 1
            elif result == 1 and "survives" not in row:
                print(f"killed   {row['name']}")
            elif result == 0 and "survives" in row:
                print(f"survived {row['name']} (listed: {row['survives']})")
            else:
                print(f"{'KILLED  ' if result else 'SURVIVED'} {row['name']}: the table says it {'survives' if result else 'is killed'}")
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(run(MUTANTS))
