"""Smoke test of the repository benchmark: tiny sweeps, every workload, traced."""

from __future__ import annotations

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DECLARED = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]+")
SMOKE_CASE = "fig12-rse/smoke/seed=20050707"


def _final_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_smoke_emits_every_declared_metric(tmp_path):
    report_path = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(report_path)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    final = _final_line(proc.stdout)
    assert final["correct"] is True
    assert final["failed"] == 0 and final["attempted"] > 0

    report = json.loads(report_path.read_text(encoding="utf-8"))
    end_to_end = {spec["name"] for spec in DECLARED["end_to_end"]}
    per_layer = {spec["name"] for spec in DECLARED["per_layer"]}
    assert set(report["workloads"]) == {spec["name"] for spec in DECLARED["workloads"]}
    for workload in report["workloads"].values():
        assert set(workload["end_to_end"]) == end_to_end
        assert set(workload["per_layer"]) == per_layer
    for name in end_to_end | per_layer | set(final["metrics"]):
        assert NAME.fullmatch(name), name


def test_corrupted_golden_digest_fails(tmp_path, monkeypatch, capsys):
    golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
    digests = dict(golden[SMOKE_CASE])
    digests[min(digests)] = "0" * 64
    corrupted = tmp_path / "golden.json"
    corrupted.write_text(json.dumps({SMOKE_CASE: digests}), encoding="utf-8")

    monkeypatch.syspath_prepend(str(HERE))
    spec = importlib.util.spec_from_file_location("perf_run", HERE / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "perf_run", run)
    spec.loader.exec_module(run)
    monkeypatch.setattr(run, "GOLDEN_FILE", corrupted)

    code = run.main(["--smoke", "--workload", "fig12-rse", "--trace", "0"])
    assert code != 0
    final = _final_line(capsys.readouterr().out)
    assert final["correct"] is False and final["failed"] > 0
