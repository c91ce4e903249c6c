"""The benchmark recorder's files: what it writes from runs passes its own
schema check, and a file that lost a statistic or a run does not."""

import copy
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def _result(wall_s):
    """One untraced or traced run's last line, as perfbench/run.py prints it."""
    return {"correct": True, "attempted": 10, "failed": 0,
            "metrics": {"wall_s": {"value": wall_s, "unit": "s"},
                        "engine.apply.calls": {"value": 7145.0, "unit": "count"}}}


def test_recorded_entries_pass_the_schema_and_count_won_pairs(tmp_path):
    parent = bench_record.entry("a" * 40, [_result(v) for v in (0.40, 0.42, 0.38)],
                                _result(0.0), 1.0)
    change = bench_record.entry("b" * 40, [_result(v) for v in (0.30, 0.43, 0.29)],
                                _result(0.0), 1.0)
    change["won_pairs"] = bench_record.won(change, parent, {"wall_s": "lower"})
    assert change["won_pairs"]["wall_s"] == 2
    wall = parent["metrics"]["wall_s"]
    assert (wall["min"], wall["median"], wall["runs"]) == (0.38, 0.40, [0.40, 0.42, 0.38])
    assert wall["q1"] == pytest.approx(0.39) and wall["q3"] == pytest.approx(0.41)
    assert parent["one_round_counts"] == {"engine.apply.calls": 7145.0}
    path = tmp_path / "BENCH_halting.json"
    bench_record.update(path, "halting", [parent])
    doc = bench_record.update(path, "halting", [parent, change])
    assert [e["commit"] for e in doc["entries"]] == ["a" * 40, "b" * 40]
    assert bench_record.main(["--check", str(path)]) == 0


@pytest.mark.parametrize("bend", ["no median", "a run short", "no counts", "an array",
                                  "an entry not an object", "a metric not an object",
                                  "runs not a list"])
def test_the_schema_check_refuses_a_bent_file(bend):
    doc = {"workload": "halting", "entries": [
        bench_record.entry("a" * 40, [_result(0.4), _result(0.5)], _result(0.0), 1.0)]}
    bent = copy.deepcopy(doc)
    e = bent["entries"][0]
    if bend == "no median":
        del e["metrics"]["wall_s"]["median"]
    elif bend == "a run short":
        e["metrics"]["wall_s"]["runs"].pop()
    elif bend == "no counts":
        e["one_round_counts"] = {}
    elif bend == "an array":
        bent = []
    elif bend == "an entry not an object":
        bent["entries"].append("b" * 40)
    elif bend == "a metric not an object":
        e["metrics"]["wall_s"] = 0.4
    else:
        e["metrics"]["wall_s"]["runs"] = 2
    bench_record.check(doc)
    with pytest.raises(ValueError):
        bench_record.check(bent)


def test_the_check_command_refuses_a_json_array_with_one_error_line(tmp_path, capsys):
    path = tmp_path / "BENCH_halting.json"
    path.write_text("[]")
    assert bench_record.main(["--check", str(path)]) == 1
    assert capsys.readouterr().err == "error: BENCH file: not a JSON object\n"
