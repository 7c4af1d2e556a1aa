"""scripts/mutants.py: its table stays in step with the source, and its
exit status reports a table that no longer holds."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_every_row_text_occurs_once():
    for row in mutants.MUTANTS:
        assert (ROOT / row["file"]).read_text().count(row["old"]) == 1, row["name"]


def test_text_that_does_not_occur_fails(capsys):
    assert mutants.run([dict(mutants.MUTANTS[0], old="no such text")]) == 1
    assert "occurs 0 times" in capsys.readouterr().out


def test_unlisted_survivor_fails(capsys):
    """A mutant that changes no behaviour survives its tests, and a row
    that does not list it as a survivor fails the run."""
    row = {
        "name": "a docstring reworded",
        "file": "src/vmfhead/seq2seq/assembly.py",
        "old": '"""Assembly of the T+2',
        "new": '"""The assembly of the T+2',
        "tests": ["tests/test_seq2seq.py::test_layout_slots_cover_the_state_once"],
    }
    assert mutants.run([row]) == 1
    assert capsys.readouterr().out.startswith("SURVIVED a docstring reworded")
