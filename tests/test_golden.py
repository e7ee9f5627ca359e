"""Byte-for-byte regression corpus of the exact CLI verbs.

tests/golden/cases.json maps a case name to its argv, with input files
named relative to tests/golden/.  Each <name>.out holds the stdout the
verb printed when the corpus was recorded; the files are never
regenerated, so any change to an exact answer, to the order of
vertices, facets or faces, or to the JSON/SVG/OFF formatting shows up
here.  flat-test is absent: its floats move with the eigensolver.
"""

import json
from pathlib import Path

import pytest

from horopoly.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code = main(list(CASES[name]))
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
