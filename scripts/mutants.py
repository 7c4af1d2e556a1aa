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
        # the build's chart and the token form then put anchor j at j delta,
        # where attend's logits still take it at (j + 1/2) delta
        "name": "full-mode anchor helper at j delta, the half-cell offset dropped",
        "file": _ASSEMBLY,
        "old": "(np.arange(n_points) + 0.5)",
        "new": "np.arange(n_points)",
        "tests": ["tests/test_seq2seq.py::test_bank_layer_is_its_token_form"],
    },
    {
        # both modes share the weights, so the test that compares them
        # does not see it; the aggregate a third of R decodes wrongly
        "name": "encoder weights 3^-(q+1), not 3^-q",
        "file": _ASSEMBLY,
        "old": "3.0 ** (-q0)",
        "new": "3.0 ** (-q0 - 1)",
        "tests": [
            "tests/test_seq2seq.py::TestStackAssembly::test_hybrid_matches_reference",
            "tests/test_seq2seq.py::TestCircleWindow::test_largest_admitted_n_meets_reference",
        ],
    },
    {
        # 7.6e-6 off the chart at t = 1/512, against the chord bound 1.2e-7
        # of 2048 knots; the 44-shape contract gate still passes
        "name": "circle lookup with 256 knots, not 2048",
        "file": _ASSEMBLY,
        "old": "_LOOKUP_KNOTS = 2048",
        "new": "_LOOKUP_KNOTS = 256",
        "tests": ["tests/test_seq2seq.py::TestStereographic::test_circle_lookup_meets_its_chord_bound"],
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
        # the window then counts k - w, ..., k + w where 2w + 1 >= N, some
        # anchors twice: off by about 1e-2 at N = 16, lam = 1
        "name": "covering window of 2w + 1 anchors, not min(2w + 1, N)",
        "file": _ASSEMBLY,
        "old": "size = min(2 * self.half_width + 1, n)",
        "new": "size = 2 * self.half_width + 1",
        "tests": ["tests/test_seq2seq.py::TestCircleWindow::test_covering_window_uses_each_anchor_once"],
    },
    {
        # lam = 50 3^qD blurs each coordinate over many digit gaps
        "name": "full-mode default lam 50 3^qD, not 50 9^qD",
        "file": _ASSEMBLY,
        "old": "_FULL_LAM * 9.0**total",
        "new": "_FULL_LAM * 3.0**total",
        "tests": ["tests/test_seq2seq.py::test_every_admitted_full_shape_meets_its_contract"],
    },
    {
        # qD = 10 at explicit sizes is then built
        "name": "full-mode digit cap qD <= 10",
        "file": _ASSEMBLY,
        "old": "_FULL_DIGITS = 9",
        "new": "_FULL_DIGITS = 10",
        "tests": ["tests/test_seq2seq.py::TestStackAssembly::test_full_mode_caps"],
    },
    {
        "name": "full-mode N cap on a derived N only, so an explicit N past 2^20 builds",
        "file": _ASSEMBLY,
        "old": "\n        if n_points > 2**20:\n            raise InstanceTooLarge(",
        "new": "\n            if n_points > 2**20:\n                raise InstanceTooLarge(",
        "tests": ["tests/test_seq2seq.py::TestStackAssembly::test_full_mode_caps"],
    },
    {
        # the decoders' index then follows f's distinct outputs: the same
        # values at every anchor, so every pin and trace is unchanged
        "name": "each decoder indexes its own distinct outputs, so f reaches its index",
        "file": _ASSEMBLY,
        "old": "decoders.append(_KernelBankLayer(lay, lam, outputs[:, i0], sequence, columns))",
        "new": "decoders.append(_KernelBankLayer(lay, lam, *(lambda t, i: (t, i[sequence]))"
        "(*np.unique(outputs[:, i0], axis=0, return_inverse=True)), columns))",
        "tests": ["tests/test_seq2seq.py::test_f_enters_only_the_decoder_tables"],
    },
    {
        # admits (q, digits) = (3, 10), (5, 6), (6, 5), (10, 3) and (29, 1)
        "name": "hybrid cap at a whole digit gap, not half of one",
        "file": _ASSEMBLY,
        "old": "0.5 * 3.0**-total",
        "new": "3.0**-total",
        "tests": ["tests/test_seq2seq.py::TestStageTraceAndDigitCap::test_hybrid_refuses_digits_past_summation_error"],
    },
    {
        "name": "unit-norm tolerance 1e-6, not 1e-12",
        "file": "src/vmfhead/sphere.py",
        "old": "_UNIT_TOL = 1e-12",
        "new": "_UNIT_TOL = 1e-6",
        "tests": ["tests/test_sphere.py::test_unit_check_tolerance"],
    },
    {
        "name": "the input-contract table without its psi_encode row",
        "file": "tests/test_input_contract.py",
        "old": '    "psi_encode x": ("real", lambda v: psi_encode(v, CFG), [0.25, 1.0], DomainError),\n',
        "new": "",
        "tests": ["tests/test_input_contract.py::test_every_argument_kind_has_a_row"],
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
