"""The bitwise audit script: its solve set and its base/head report."""

import importlib.util
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bitwise_audit.py"
_spec = importlib.util.spec_from_file_location("bitwise_audit", SCRIPT)
audit = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(audit)


def test_the_set_has_123_distinct_solves():
    labels = [row[0] for row in audit.solves()]
    assert len(labels) == len(set(labels)) == 123
    assert all(" " not in label for label in labels)


def test_compare_counts_identical_solves_and_lists_the_rest(tmp_path, capsys):
    base = tmp_path / "base.txt"
    head = tmp_path / "head.txt"
    base.write_text("a 9 x1 h1 -\nb 10 x2 h2 t2\nc 4 x3 h3 -\n")
    head.write_text("a 9 x1 h1 -\nb 9 x2 h9 t9\nc 4 x3 h3 -\nd 5 x4 h4 -\n")
    audit.compare(base, head)
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "2 of 4 solves byte-identical to the base"
    assert out[-2:] == ["| b | 10 | 9 |", "| d | - | 5 |"]
