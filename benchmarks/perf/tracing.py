"""Per-layer spans for the repository benchmark, recorded from outside ``src/``.

Run as a script, this module wraps the public entry points of each layer
of :mod:`repro` and then calls ``repro.runner.cli.main(argv)`` in-process::

    python benchmarks/perf/tracing.py --spans spans.json --phase cold -- \\
        run fig09 --scale small --runs 100 --quiet

Every call of a wrapped function records one span -- key, start, end,
parent span, thread -- plus a few counts read off its arguments or result
(rows scheduled, packets masked, store hits).  Spans stay in memory and
are written as JSON when ``main`` returns.  A fleet runs one such process
per peer, each with its own spans file; :func:`layer_metrics` merges the
files and derives the per-layer metrics declared in ``BENCHMARK.json``.

Wrappers replace the function on every ``repro.*`` module attribute bound
to it (modules import by name, and lazy ``from ... import`` statements
read the package attribute at call time) and the method on every class of
the hierarchy that defines it.

The module is named ``tracing`` rather than ``trace`` so that it never
shadows the standard library module of that name on ``sys.path``.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import itertools
import json
import math
import os
import pkgutil
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

Attrs = Optional[Callable[[tuple, Any], Dict[str, Any]]]


def _unit_attrs(args, result):
    unit = args[0]
    return {"unit": f"{unit.config.display_label}|{unit.seed_path}|{unit.run_start}"}


def _plan_attrs(args, result):
    return {"units": len(result)}


def _adaptive_attrs(args, result):
    meta = result.metadata["adaptive"]
    return {
        "rounds": meta["rounds"],
        "executed": meta["executed_runs"],
        "exhaustive": meta["exhaustive_runs"],
    }


def _schedule_attrs(args, result):
    if getattr(result, "ndim", 0) == 2:
        return {"rows": int(result.shape[0]), "packets": int(result.size)}
    return {"rows": len(result), "packets": int(sum(row.size for row in result))}


def _mask_attrs(args, result):
    return {"packets": int(result.size)}


def _synthesis_attrs(args, result):
    return {"packets": int(result.batch.flat.size)}


def _decode_attrs(args, result):
    return {"runs": int(len(result[0]))}


def _get_attrs(args, result):
    return {"hit": result is not None}


def _put_many_attrs(args, result):
    return {"writes": int(result)}


def _claim_attrs(args, result):
    return {"won": bool(result)}


@dataclass(frozen=True)
class Target:
    """One wrapped public call: span key, owner, attribute, counts."""

    key: str
    module: str
    name: str
    owner: Optional[str] = None  # class name for methods, None for functions
    attrs: Attrs = None


#: The layer boundaries of :mod:`repro`, outermost first.  Keys are
#: ``<layer>.<call>``; a method target covers every class of the named
#: hierarchy that defines the method (abstract declarations excepted).
TARGETS: Tuple[Target, ...] = (
    Target("runner.cli", "repro.runner.cli", "main"),
    Target("runner.plan", "repro.runner.units", "plan_units", attrs=_plan_attrs),
    Target("runner.unit", "repro.runner.units", "execute_unit", attrs=_unit_attrs),
    Target("runner.merge", "repro.runner.units", "merge_cell"),
    # The fleet's lease loop: its self time is claiming, absorbing peers'
    # results and sleeping while every open unit is leased elsewhere.
    Target("fleet.run", "repro.runner.fleet", "run", "FleetRunner"),
    Target("adaptive.grid", "repro.adaptive.controller", "adaptive_grid", attrs=_adaptive_attrs),
    Target("seeds.streams", "repro.seeds.schemes", "unit_streams", "SeedScheme"),
    Target("seeds.run_rngs", "repro.seeds.schemes", "run_rngs", "UnitStreams"),
    Target("seeds.run_rng", "repro.seeds.schemes", "run_rng", "UnitStreams"),
    Target("fec.build", "repro.core.config", "build_code", "SimulationConfig"),
    Target(
        "scheduling.batch", "repro.scheduling.base", "schedule_batch",
        "TransmissionModel", _schedule_attrs,
    ),
    Target(
        "scheduling.unit", "repro.scheduling.base", "schedule_batch_unit",
        "TransmissionModel", _schedule_attrs,
    ),
    Target("channel.batch", "repro.channel.base", "loss_mask_batch", "LossModel", _mask_attrs),
    Target(
        "channel.unit", "repro.channel.base", "loss_mask_batch_unit", "LossModel", _mask_attrs
    ),
    Target("kernels.sojourn", "repro.kernels.base", "fill_sojourns", "KernelBackend"),
    Target("kernels.sojourn_batch", "repro.kernels.base", "fill_sojourns_batch", "KernelBackend"),
    Target("kernels.ldgm", "repro.kernels.base", "ldgm_decode_batch", "KernelBackend"),
    Target("pipeline.runs", "repro.pipeline.synthesis", "synthesize_runs", attrs=_synthesis_attrs),
    Target(
        "pipeline.unit", "repro.pipeline.synthesis", "synthesize_runs_unit",
        attrs=_synthesis_attrs,
    ),
    Target(
        "fastpath.decode_ldgm", "repro.fastpath.prototypes", "decode_batch",
        "LDGMPrototype", _decode_attrs,
    ),
    Target(
        "fastpath.decode_block", "repro.fastpath.prototypes", "decode_batch",
        "BlockCountPrototype", _decode_attrs,
    ),
    Target("fastpath.compile", "repro.fastpath.prototypes", "compile_prototype"),
    Target("fastpath.batch", "repro.fastpath.batch", "simulate_batch_columnar"),
    Target("store.get", "repro.store.base", "get", "ResultStore", _get_attrs),
    Target("store.put", "repro.store.base", "put", "ResultStore"),
    Target("store.put_many", "repro.store.base", "put_many", "ResultStore", _put_many_attrs),
    Target("store.claim", "repro.store.base", "claim", "ResultStore", _claim_attrs),
    Target("store.heartbeat", "repro.store.base", "heartbeat", "ResultStore"),
    Target("store.release", "repro.store.base", "release", "ResultStore"),
    Target("analysis.csv", "repro.analysis.csvio", "grid_to_csv"),
)

#: Span keys of the root call; coverage is measured against it.
ROOT_KEY = "runner.cli"


class Tracer:
    """In-memory span recorder shared by every wrapper of one process.

    A span is ``[key, seq, parent_seq, thread, start_ns, end_ns, attrs]``;
    the per-thread stack of open span numbers supplies the parent.
    ``next()`` on an :func:`itertools.count` and ``list.append`` are
    atomic under the interpreter lock, so wrappers entered from the fleet
    heartbeat thread need no extra lock.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._seq = itertools.count()
        self._local = threading.local()

    def wrap(self, key: str, fn: Callable, attrs: Attrs = None) -> Callable:
        spans, seq, local, clock = self.spans, self._seq, self._local, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            record = [key, next(seq), stack[-1] if stack else -1, threading.get_ident(), 0, 0, None]
            spans.append(record)
            stack.append(record[1])
            record[4] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[6] = {"error": True}
                raise
            finally:
                record[5] = clock()
                stack.pop()
            if attrs is not None:
                record[6] = attrs(args, result)
            return result

        traced.__wrapped_by_bench__ = True
        return traced


def _import_all_repro_modules() -> None:
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        try:
            importlib.import_module(info.name)
        except ImportError:
            # Optional backends (numba) are absent on some hosts; their
            # modules cannot bind any wrapped function then.
            pass


def _subclasses(cls: type) -> List[type]:
    found, pending = [], [cls]
    while pending:
        current = pending.pop()
        found.append(current)
        pending.extend(current.__subclasses__())
    return found


def install(tracer: Tracer) -> None:
    """Wrap every target; raise if a target does not exist in ``repro``."""
    from repro.kernels import get_backend

    # Import the default kernel backend's module (cext builds lazily) and
    # every other repro module, so each binding of a target exists before
    # the wrappers are installed.
    get_backend()
    _import_all_repro_modules()
    modules = [module for name, module in sys.modules.items() if name.split(".")[0] == "repro"]
    for target in TARGETS:
        module = importlib.import_module(target.module)
        if target.owner is None:
            original = getattr(module, target.name)
            wrapped = tracer.wrap(target.key, original, target.attrs)
            for candidate in modules:
                for attribute, value in list(vars(candidate).items()):
                    if value is original:
                        setattr(candidate, attribute, wrapped)
            continue
        base = getattr(module, target.owner)
        for cls in _subclasses(base):
            fn = cls.__dict__.get(target.name)
            if fn is None or getattr(fn, "__isabstractmethod__", False):
                continue
            if getattr(fn, "__wrapped_by_bench__", False):
                continue
            setattr(cls, target.name, tracer.wrap(target.key, fn, target.attrs))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="write the spans JSON here")
    parser.add_argument("--phase", required=True, help="label stored with the spans")
    parser.add_argument("cli", nargs=argparse.REMAINDER, help="-- then the repro CLI argv")
    args = parser.parse_args(argv)
    cli_argv = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    tracer = Tracer()
    install(tracer)
    from repro.runner import cli

    code = cli.main(cli_argv)
    sys.stdout.flush()
    with open(args.spans, "w", encoding="utf-8") as handle:
        json.dump({"pid": os.getpid(), "phase": args.phase, "spans": tracer.spans}, handle)
    return code


# ---------------------------------------------------------------------------
# Analysis: merged spans files -> per-layer metrics.
# ---------------------------------------------------------------------------


class _Process:
    """Spans of one traced process, indexed for self-time arithmetic."""

    def __init__(self, payload: Dict[str, Any]) -> None:
        self.phase = payload["phase"]
        self.pid = payload["pid"]
        self.spans = payload["spans"]
        self.by_seq = {span[1]: span for span in self.spans}
        self.child_ns: Dict[int, int] = {}
        for span in self.spans:
            parent = span[2]
            if parent >= 0:
                self.child_ns[parent] = self.child_ns.get(parent, 0) + span[5] - span[4]

    def self_ns(self, span: list) -> int:
        return span[5] - span[4] - self.child_ns.get(span[1], 0)

    def outermost(self, span: list, keys: frozenset) -> bool:
        parent = span[2]
        while parent >= 0:
            ancestor = self.by_seq[parent]
            if ancestor[0] in keys:
                return False
            parent = ancestor[2]
        return True


def _percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile (0.0 for an empty list)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def load_spans(paths: Sequence[str]) -> List[_Process]:
    processes = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            processes.append(_Process(json.load(handle)))
    return processes


def called_keys(processes: Sequence[_Process]) -> set:
    return {span[0] for process in processes for span in process.spans}


def coverage(processes: Sequence[_Process]) -> float:
    """Share of the root calls' wall time spent inside wrapped layers."""
    total = uncovered = 0
    for process in processes:
        for span in process.spans:
            if span[0] == ROOT_KEY and span[2] < 0:
                total += span[5] - span[4]
                uncovered += process.self_ns(span)
    return 1.0 - uncovered / total if total else 0.0


def layer_metrics(
    processes: Sequence[_Process],
    *,
    peers: int,
    traced_cold_wall: float,
    untraced_cold_wall: float,
) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of one workload's traced cold + warm processes.

    Times named ``*_self_s`` are self times (duration minus child spans);
    other ``*_s`` times are inclusive, counted once per outermost span.
    Counts and times cover both phases, except the adaptive accounting,
    the fleet figures and ``trace.coverage``, which come from the cold
    phase: a warm rerun spends its few milliseconds inside ``cli.main``
    mostly on opening the store and printing, which no layer owns.
    """
    def select(*keys, phase=None):
        return [
            (process, span)
            for process in processes
            if phase in (None, process.phase)
            for span in process.spans
            if span[0] in keys
        ]

    def attrs(span) -> Dict[str, Any]:
        return span[6] or {}

    def inclusive_s(*keys):
        wanted = frozenset(keys)
        return sum(
            span[5] - span[4] for process, span in select(*keys) if process.outermost(span, wanted)
        ) / 1e9

    def self_s(*keys):
        return sum(process.self_ns(span) for process, span in select(*keys)) / 1e9

    def attr_sum(name, *keys, phase=None):
        return sum(attrs(span).get(name, 0) for _, span in select(*keys, phase=phase))

    def durations_ms(key):
        return [(span[5] - span[4]) / 1e6 for _, span in select(key)]

    def per_ns(self_seconds, count):
        return self_seconds * 1e9 / count if count else 0.0

    unit_ms = durations_ms("runner.unit")
    gets = select("store.get")
    hits = attr_sum("hit", "store.get")
    claims = select("store.claim")
    won = attr_sum("won", "store.claim")
    errors = sum(
        1
        for process in processes
        for span in process.spans
        if span[0].startswith("store.") and attrs(span).get("error")
    )

    adaptive = [attrs(span) for _, span in select("adaptive.grid", phase="cold")]
    executed_runs = sum(meta["executed"] for meta in adaptive)
    exhaustive_runs = sum(meta["exhaustive"] for meta in adaptive)

    # Fleet accounting over the cold phase: every planned unit is either
    # executed, read back as a hit, or absorbed from a peer's write.
    cold_units = [span for _, span in select("runner.unit", phase="cold")]
    executed_ids = [attrs(span)["unit"] for span in cold_units]
    planned = attr_sum("units", "runner.plan", phase="cold")
    cold_hits = attr_sum("hit", "store.get", phase="cold")
    busy_s = sum(span[5] - span[4] for span in cold_units) / 1e9

    scheduling_self = self_s("scheduling.batch", "scheduling.unit")
    scheduling_packets = attr_sum("packets", "scheduling.batch", "scheduling.unit")
    channel_self = self_s("channel.batch", "channel.unit")
    channel_packets = attr_sum("packets", "channel.batch", "channel.unit")
    puts = len(select("store.put")) + attr_sum("writes", "store.put_many")

    return {
        "runner.units": (len(unit_ms), "count"),
        "runner.unit_ms.p50": (_percentile(unit_ms, 50), "ms"),
        "runner.unit_ms.p99": (_percentile(unit_ms, 99), "ms"),
        "runner.unit_self_s": (self_s("runner.unit"), "s"),
        "runner.plan_s": (inclusive_s("runner.plan"), "s"),
        "runner.merge_s": (inclusive_s("runner.merge"), "s"),
        "runner.cli_self_s": (self_s("runner.cli"), "s"),
        "adaptive.rounds": (max((meta["rounds"] for meta in adaptive), default=0), "count"),
        "adaptive.runs_executed": (executed_runs, "count"),
        "adaptive.saved_frac": (
            (exhaustive_runs - executed_runs) / exhaustive_runs if exhaustive_runs else 0.0,
            "ratio",
        ),
        "adaptive.self_s": (self_s("adaptive.grid"), "s"),
        "seeds.self_s": (self_s("seeds.streams", "seeds.run_rngs", "seeds.run_rng"), "s"),
        "fec.builds": (len(select("fec.build")), "count"),
        "fec.build_s": (inclusive_s("fec.build"), "s"),
        "scheduling.self_s": (scheduling_self, "s"),
        "scheduling.rows": (attr_sum("rows", "scheduling.batch", "scheduling.unit"), "count"),
        "scheduling.ns_per_packet": (per_ns(scheduling_self, scheduling_packets), "ns"),
        "channel.self_s": (channel_self, "s"),
        "channel.packets": (channel_packets, "count"),
        "channel.ns_per_packet": (per_ns(channel_self, channel_packets), "ns"),
        "kernels.sojourn_s": (inclusive_s("kernels.sojourn", "kernels.sojourn_batch"), "s"),
        "kernels.ldgm_s": (inclusive_s("kernels.ldgm"), "s"),
        "pipeline.self_s": (self_s("pipeline.runs", "pipeline.unit"), "s"),
        "pipeline.received_packets": (attr_sum("packets", "pipeline.runs", "pipeline.unit"), "count"),
        "fastpath.decode_ldgm_s": (inclusive_s("fastpath.decode_ldgm"), "s"),
        "fastpath.decode_block_s": (inclusive_s("fastpath.decode_block"), "s"),
        "fastpath.decoded_runs": (
            attr_sum("runs", "fastpath.decode_ldgm", "fastpath.decode_block"),
            "count",
        ),
        "fastpath.compile_s": (inclusive_s("fastpath.compile"), "s"),
        "fastpath.batch_self_s": (self_s("fastpath.batch"), "s"),
        "store.gets": (len(gets), "count"),
        "store.get_s": (inclusive_s("store.get"), "s"),
        "store.get_ms.p99": (_percentile(durations_ms("store.get"), 99), "ms"),
        "store.hit_ratio": (hits / len(gets) if gets else 0.0, "ratio"),
        "store.puts": (puts, "count"),
        "store.put_s": (inclusive_s("store.put", "store.put_many"), "s"),
        "store.put_ms.p99": (_percentile(durations_ms("store.put"), 99), "ms"),
        "store.errors": (errors, "count"),
        "store.claims": (len(claims), "count"),
        "store.claim_win_ratio": (won / len(claims) if claims else 0.0, "ratio"),
        "store.heartbeats": (len(select("store.heartbeat")), "count"),
        "fleet.duplicate_units": (len(executed_ids) - len(set(executed_ids)), "count"),
        "fleet.absorbed_units": (planned - len(cold_units) - cold_hits, "count"),
        "fleet.busy_frac": (
            busy_s / (peers * traced_cold_wall) if traced_cold_wall > 0 else 0.0,
            "ratio",
        ),
        "analysis.csv_s": (inclusive_s("analysis.csv"), "s"),
        "trace.coverage": (coverage([p for p in processes if p.phase == "cold"]), "ratio"),
        "trace.overhead": (
            traced_cold_wall / untraced_cold_wall - 1.0 if untraced_cold_wall > 0 else 0.0,
            "ratio",
        ),
    }


if __name__ == "__main__":
    sys.exit(main())
