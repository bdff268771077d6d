"""Compare two benchmark reports written by ``run.py --out``.

Usage::

    python benchmarks/perf/compare.py A.json B.json

For every workload and end-to-end metric it prints both medians with their
quartiles and a verdict judged against the metric's bound in
``BENCHMARK.json`` (B is the candidate, A the baseline):

* ``worse`` -- B has no samples of the metric (its invocations failed), or
  B's median moved the wrong way by more than the bound;
* ``unresolved`` -- A has no samples, or either side's spread (quartile
  distance over median) is wider than the bound, unless every sample of
  B beats every sample of A, which is ``better``;
* ``better`` -- B's median moved the right way by more than the bound;
* ``same`` -- otherwise.

Each workload also gets an ``error_rate`` row (failed over attempted
invocations), where any increase is ``worse``.  Per-layer values are
printed side by side without a verdict.  The exit status is 1 when any
verdict is ``worse`` or ``unresolved``.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent.parent


def _measured(summary: Dict) -> bool:
    return summary["n"] > 0 and math.isfinite(summary["median"]) and summary["median"] > 0


def verdict(spec: Dict, a: Dict, b: Dict, a_samples: List[float], b_samples: List[float]) -> str:
    if not _measured(b):
        return "worse"
    if not _measured(a):
        return "unresolved"
    lower = spec["better"] == "lower"
    bound = spec["bound"]
    spread = max((side["q3"] - side["q1"]) / side["median"] for side in (a, b))
    if spread > bound:
        beats = max(b_samples) < min(a_samples) if lower else min(b_samples) > max(a_samples)
        return "better" if beats else "unresolved"
    worse_by = (b["median"] - a["median"]) / a["median"]
    if not lower:
        worse_by = -worse_by
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "same"


def error_verdict(a: Dict, b: Dict) -> str:
    """Any increase of the failed share of invocations is a regression."""
    if b["error_rate"] > a["error_rate"]:
        return "worse"
    return "better" if b["error_rate"] < a["error_rate"] else "same"


def _cell(summary: Dict) -> str:
    return f"{summary['median']:.5g} [{summary['q1']:.5g}, {summary['q3']:.5g}] n={summary['n']}"


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text(encoding="utf-8")) for path in args)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    flagged = 0
    for name in sorted(set(a["workloads"]) & set(b["workloads"])):
        wa, wb = a["workloads"][name], b["workloads"][name]
        print(f"\n{name}")
        print(f"  {'metric':14s} {'A: median [q1, q3]':34s} {'B: median [q1, q3]':34s} verdict")
        for spec in declared["end_to_end"]:
            metric = spec["name"]
            sa, sb = wa["end_to_end"][metric], wb["end_to_end"][metric]
            result = verdict(spec, sa, sb, wa["samples"][metric], wb["samples"][metric])
            flagged += result in ("worse", "unresolved")
            print(f"  {metric:14s} {_cell(sa):34s} {_cell(sb):34s} {result}")
        result = error_verdict(wa, wb)
        flagged += result == "worse"
        counts = [f"{w['error_rate']:.4g} ({w['failed']}/{w['attempted']})" for w in (wa, wb)]
        print(f"  {'error_rate':14s} {counts[0]:34s} {counts[1]:34s} {result}")
        if wa["per_layer"] and wb["per_layer"]:
            for spec in declared["per_layer"]:
                metric = spec["name"]
                va, vb = wa["per_layer"][metric]["value"], wb["per_layer"][metric]["value"]
                print(f"  {metric:26s} {va:14.5g} {vb:14.5g} {spec['unit']}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
