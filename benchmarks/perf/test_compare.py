"""The compare tool flags a candidate whose invocations failed."""

from __future__ import annotations

import copy
import importlib.util
import json
import math
from pathlib import Path

HERE = Path(__file__).resolve().parent
DECLARED = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

_spec = importlib.util.spec_from_file_location("perf_compare", HERE / "compare.py")
compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare)


def _report(samples: list, failed: int = 0) -> dict:
    summary = {"median": math.nan, "q1": math.nan, "q3": math.nan, "n": 0}
    if samples:
        ordered = sorted(samples)
        summary = {
            "median": ordered[len(ordered) // 2], "q1": ordered[0], "q3": ordered[-1], "n": len(samples)
        }
    names = [spec["name"] for spec in DECLARED["end_to_end"]]
    return {
        "workloads": {
            "w": {
                "attempted": 10,
                "failed": failed,
                "error_rate": failed / 10,
                "end_to_end": {name: dict(summary) for name in names},
                "samples": {name: list(samples) for name in names},
                "per_layer": {},
            }
        }
    }


def _compare(tmp_path, a: dict, b: dict) -> int:
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path, report in zip(paths, (a, b)):
        path.write_text(json.dumps(report), encoding="utf-8")
    return compare.main([str(path) for path in paths])


def test_unchanged_candidate_passes(tmp_path):
    baseline = _report([1.0, 1.01, 1.02])
    assert _compare(tmp_path, baseline, copy.deepcopy(baseline)) == 0


def test_candidate_without_samples_is_worse(tmp_path):
    spec = DECLARED["end_to_end"][0]
    a = _report([1.0, 1.01, 1.02])["workloads"]["w"]
    b = _report([], failed=10)["workloads"]["w"]
    name = spec["name"]
    assert compare.verdict(spec, a["end_to_end"][name], b["end_to_end"][name], a["samples"][name], []) == "worse"
    assert _compare(tmp_path, _report([1.0, 1.01, 1.02]), _report([], failed=10)) == 1


def test_more_failures_is_worse(tmp_path, capsys):
    assert _compare(tmp_path, _report([1.0, 1.01, 1.02]), _report([1.0, 1.01, 1.02], failed=1)) == 1
    assert "error_rate" in capsys.readouterr().out
