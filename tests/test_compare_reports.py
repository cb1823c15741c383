"""tools/compare_reports.py: the JSON diff and the exit rule."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_reports.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("compare_reports", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_diff_paths_walks_nested_dicts_and_lists(tool):
    old = {"a": {"b": [1, {"c": 2.0}], "same": [1, 2]}, "d": "x"}
    new = {"a": {"b": [1, {"c": 3.0}], "same": [1, 2]}, "d": "y"}
    assert tool.diff_paths(old, new) == [("$.a.b[1].c", 2.0, 3.0),
                                         ("$.d", "x", "y")]
    assert tool.diff_paths(old, old) == []


def test_diff_paths_marks_what_one_side_lacks(tool):
    assert tool.diff_paths({"a": 1, "b": 2}, {"b": 2, "c": 3}) == [
        ("$.a", 1, "<absent>"), ("$.c", "<absent>", 3)]
    assert tool.diff_paths([1, 2], [1, 2, [3]]) == [("$[2]", "<absent>", [3])]
    assert tool.diff_paths({"r": [1, 2, 3]}, {"r": [1]}) == [
        ("$.r[1]", 2, "<absent>"), ("$.r[2]", 3, "<absent>")]


def test_diff_paths_sees_a_float_move_in_its_last_bit(tool):
    x = 0.1 + 0.2
    y = math.nextafter(x, 0.0)
    assert tool.diff_paths({"risk": x}, {"risk": y}) == [("$.risk", x, y)]
    # 1 == 1.0 in Python, but the two print apart in a report
    assert tool.diff_paths([1], [1.0]) == [("$[0]", 1, 1.0)]


def _report(value, indent=2) -> bytes:
    return (json.dumps({"results": {"risk": value}}, indent=indent)
            + "\n").encode()


@pytest.mark.parametrize("old, new, code, line", [
    ((0, _report(0.5)), (0, _report(0.5)), 0, "1 reports byte-identical"),
    # a moved value is reported, not refused
    ((0, _report(0.5)), (0, _report(0.25)), 0, "$.results.risk: 0.5 -> 0.25"),
    ((0, _report(0.5)), (3, _report(0.5)), 1, "exit code 0 -> 3"),
    ((0, _report(0.5)), (0, None), 1, "report present -> absent"),
    ((0, _report(0.5)), (0, _report(0.5, indent=1)), 1,
     "same values, different bytes"),
])
def test_main_exits_1_only_for_a_broken_task_or_byte_drift(
        tool, monkeypatch, capsys, old, new, code, line):
    task = [("battery seed 1 pair", Path("config.json"), 1)]
    monkeypatch.setattr(tool, "generate_tasks", lambda *args: task)
    monkeypatch.setattr(tool, "run_tree", lambda root, tasks, out: [
        old if root.name == "old" else new])
    assert tool.main(["old", "new", "--workloads", "battery"]) == code
    assert line in capsys.readouterr().out
