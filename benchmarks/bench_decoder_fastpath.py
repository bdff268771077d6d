"""Microbenchmark: incremental decode loop vs the fast path, per kernel.

Measures end-to-end simulation throughput (runs/second: schedule + channel
+ decode to ``n_necessary``) per code family at k = 1000, comparing

* **serial** -- the incremental reference path (``fastpath=False``: one
  ``Simulator.run`` per run, per-packet ``add_packet`` loop), and
* **fastpath** -- :func:`repro.fastpath.simulate_batch_columnar` pushing a
  whole work-unit-sized batch of runs through the batched
  :mod:`repro.pipeline` run synthesis (whole-unit schedules, loss masks,
  received assembly) and the batch decode, once per available
  :mod:`repro.kernels` backend (the vectorised ``numpy`` reference with
  its chain-aware staircase cascade, plus the compiled ``cext`` backend
  when this machine can build it).  The columnar
  ``RunResultBatch`` is exactly what the runner's work units consume, so
  the measurement covers result assembly too; per-run generator
  construction stays inside the timed region (as in every prior entry).

Every (kernel, family) sample is checked for bit-identity against the
serial path before timing -- including the multi-threaded samples, whose
row-parallel OpenMP decode must produce the exact same bytes as one
thread.  The measured throughputs are appended to ``benchmarks/BENCH.json``
(schema 6: schema 5's single-thread per-kernel columns pinned to
``kernel_threads=1`` for comparability with prior entries,
``threads_runs_per_sec*`` columns at the ``auto``-resolved team size,
core-count / OpenMP provenance and a fleet wall-clock row, plus an
``adaptive`` row comparing one sequential-stopping sweep of a
paper-shaped grid against the exhaustive fixed sweep) so the performance
trajectory of the decode path is recorded PR over PR; the ``fastpath_runs_per_sec``
headline is the ``auto``-selected backend, and
``speedup_vs_prev_fastpath`` compares it against the previous entry's
headline on the same seeds and batch size.

Run directly::

    PYTHONPATH=src python benchmarks/bench_decoder_fastpath.py
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from datetime import date
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))
from _shared import BENCH_SEED  # noqa: E402

from repro.channel.gilbert import GilbertChannel
from repro.core.simulator import Simulator
from repro.fastpath import simulate_batch, simulate_batch_columnar
from repro.fec.registry import make_code
from repro.kernels import (
    available_backends,
    cext_openmp_enabled,
    default_backend_name,
    physical_cores,
    resolve_thread_count,
)
from repro.scheduling.registry import make_tx_model
from repro.seeds import get_scheme

#: Code families benchmarked (name, expansion ratio).  Repetition needs an
#: integer ratio; everything else uses the paper's 2.5.
FAMILIES = [
    ("ldgm-staircase", 2.5),
    ("ldgm-triangle", 2.5),
    ("ldgm", 2.5),
    ("rse", 2.5),
    ("repetition", 2.0),
]

K = 1000
TX_MODEL = "tx_model_2"
P, Q = 0.05, 0.5

#: Runs per timing sample.  The fast path is timed on a work-unit-sized
#: batch; the serial loop on fewer runs (it is the slow side).
SERIAL_RUNS = 40
BATCH_RUNS = 960

#: Version-controlled performance ledger (benchmarks/results/ is for
#: regenerable CSV output and is gitignored; the trajectory is not).
BENCH_JSON = Path(__file__).parent / "BENCH.json"

#: Current ledger schema: 6 adds an ``adaptive`` row -- one adaptive
#: (sequential-stopping) sweep of a paper-shaped 14 x 14 grid at the
#: default confidence against the exhaustive fixed sweep on the same
#: seeds, recording the run budget executed vs exhaustive, the saved
#: fraction and the wall-clock of both.  Schema 5 added multi-threaded
#: kernel columns (``threads_runs_per_sec_by_kernel`` /
#: ``unit_threads_runs_per_sec_by_kernel`` at the ``auto``-resolved
#: OpenMP team size, with the historical per-kernel columns pinned to
#: ``kernel_threads=1`` so they stay comparable across entries),
#: core-count + OpenMP provenance and a fleet wall-clock row, on top of
#: schema 3's per-seed-scheme columns (``unit_runs_per_sec*``) and
#: schema 2's per-kernel columns and numba / C-compiler provenance
#: (schema 4 was the store benchmark's bump).
BENCH_SCHEMA = 6


def _rngs(count: int):
    return [
        np.random.default_rng(np.random.SeedSequence([BENCH_SEED, run]))
        for run in range(count)
    ]


def _unit_streams(count: int):
    """Whole-batch streams under the counter-based unit seed scheme.

    Stream construction stays inside the timed region, mirroring the
    per-run measurement (whose generator construction is also timed) --
    that per-run construction cost is part of what the unit scheme
    removes.
    """
    return get_scheme("unit").unit_streams(BENCH_SEED, (), 0, count)


def _measure(family: str, ratio: float, kernels: list[str], threads: int) -> dict:
    code = make_code(family, k=K, expansion_ratio=ratio, seed=1)
    tx_model = make_tx_model(TX_MODEL)
    channel = GilbertChannel(P, Q)

    # Equivalence gate before timing anything, per kernel -- at one thread
    # and at the measured team size (row-parallel decode must be exact).
    simulator = Simulator(code, tx_model, channel)
    reference = [simulator.run(rng) for rng in _rngs(20)]
    for kernel in kernels:
        for team in {1, threads}:
            batch = simulate_batch(
                code, tx_model, channel, _rngs(20), kernel=kernel, kernel_threads=team
            )
            if batch != reference:
                raise AssertionError(
                    f"fastpath[{kernel}, threads={team}] diverged from the "
                    f"serial path for {family}"
                )

    best_serial = 0.0
    for _ in range(2):
        serial_simulator = Simulator(code, tx_model, channel)
        started = time.perf_counter()
        for rng in _rngs(SERIAL_RUNS):
            serial_simulator.run(rng)
        elapsed = time.perf_counter() - started
        best_serial = max(best_serial, SERIAL_RUNS / elapsed)

    # Unit-scheme determinism gate: identical streams, identical results.
    unit_reference = simulate_batch_columnar(
        code, tx_model, channel, _unit_streams(20), kernel=kernels[0]
    )
    for kernel in kernels:
        repeated = simulate_batch_columnar(
            code, tx_model, channel, _unit_streams(20), kernel=kernel
        )
        if not (
            np.array_equal(repeated.n_necessary, unit_reference.n_necessary)
            and np.array_equal(repeated.n_received, unit_reference.n_received)
        ):
            raise AssertionError(
                f"unit scheme[{kernel}] is not deterministic for {family}"
            )

    def _time_batch(kernel: str, streams_factory, team: int) -> float:
        best = 0.0
        for _ in range(2):
            started = time.perf_counter()
            simulate_batch_columnar(
                code,
                tx_model,
                channel,
                streams_factory(BATCH_RUNS),
                kernel=kernel,
                kernel_threads=team,
            )
            elapsed = time.perf_counter() - started
            best = max(best, BATCH_RUNS / elapsed)
        return round(best, 1)

    # Historical columns stay pinned to one thread so the ledger's
    # trajectory is apples-to-apples across entries; the threaded columns
    # carry the ``auto``-resolved team size of this machine.
    by_kernel: dict[str, float] = {}
    unit_by_kernel: dict[str, float] = {}
    threads_by_kernel: dict[str, float] = {}
    unit_threads_by_kernel: dict[str, float] = {}
    for kernel in kernels:
        simulate_batch_columnar(code, tx_model, channel, _rngs(8), kernel=kernel)  # warm
        by_kernel[kernel] = _time_batch(kernel, _rngs, 1)
        unit_by_kernel[kernel] = _time_batch(kernel, _unit_streams, 1)
        if threads > 1:
            threads_by_kernel[kernel] = _time_batch(kernel, _rngs, threads)
            unit_threads_by_kernel[kernel] = _time_batch(kernel, _unit_streams, threads)
        else:
            # One physical core: the team is one thread by construction,
            # so re-timing would just duplicate the single-thread sample.
            threads_by_kernel[kernel] = by_kernel[kernel]
            unit_threads_by_kernel[kernel] = unit_by_kernel[kernel]

    headline_kernel = default_backend_name()
    if headline_kernel not in by_kernel:
        headline_kernel = "numpy"
    headline = by_kernel[headline_kernel]
    unit_headline = unit_by_kernel[headline_kernel]
    threads_headline = threads_by_kernel[headline_kernel]
    return {
        "code": family,
        "expansion_ratio": ratio,
        "serial_runs_per_sec": round(best_serial, 1),
        "fastpath_runs_per_sec": headline,
        "kernel": headline_kernel,
        "fastpath_runs_per_sec_by_kernel": by_kernel,
        "unit_runs_per_sec": unit_headline,
        "unit_runs_per_sec_by_kernel": unit_by_kernel,
        "unit_speedup_vs_per_run": round(unit_headline / headline, 2),
        "threads_runs_per_sec": threads_headline,
        "threads_runs_per_sec_by_kernel": threads_by_kernel,
        "unit_threads_runs_per_sec_by_kernel": unit_threads_by_kernel,
        "threads_speedup_vs_single": round(threads_headline / headline, 2),
        "speedup": round(headline / best_serial, 2),
    }


def _provenance(threads: int) -> dict:
    try:
        from repro.kernels.cext import compiler

        cext_compiler = compiler()
    except ImportError:  # pragma: no cover - cext module always importable
        cext_compiler = None
    return {
        "cext_compiler": cext_compiler,
        "cext_openmp": cext_openmp_enabled(),
        "kernel_threads": threads,
        "physical_cores": physical_cores(),
        "cpu_count": os.cpu_count(),
    }


def _measure_fleet(threads: int) -> dict:
    """One multi-core fleet member on the shared-memory thread executor.

    Wall-clock for a complete small ldgm-staircase sweep executed the way
    a fleet worker runs it: units claimed under TTL leases from a sqlite
    store, fanned out over the thread executor, compiled kernels threading
    the rows of each unit (``auto`` keeps executor workers x kernel
    threads within the socket).
    """
    import tempfile

    from repro.core.config import SimulationConfig
    from repro.core.sweep import simulate_grid
    from repro.runner.options import ExecutionOptions
    from repro.store import resolve_store

    config = SimulationConfig(
        code="ldgm-staircase", tx_model=TX_MODEL, k=K, expansion_ratio=2.5
    )
    p_values = [0.01, 0.05, 0.1]
    q_values = [0.5]
    runs = 120
    workers = min(2, max(1, os.cpu_count() or 1))
    with tempfile.TemporaryDirectory() as tmp:
        store = resolve_store(f"sqlite:{tmp}/fleet.db")
        try:
            started = time.perf_counter()
            simulate_grid(
                config,
                p_values,
                q_values,
                runs=runs,
                seed=BENCH_SEED,
                options=ExecutionOptions(
                    executor="thread",
                    workers=workers,
                    kernel_threads="auto",
                    store=store,
                    fleet=True,
                ),
            )
            elapsed = time.perf_counter() - started
        finally:
            store.close()
    total_runs = runs * len(p_values) * len(q_values)
    return {
        "code": "ldgm-staircase",
        "executor": "thread",
        "fleet_members": 1,
        "workers": workers,
        "kernel_threads": threads,
        "grid_points": len(p_values) * len(q_values),
        "runs_per_point": runs,
        "wall_clock_sec": round(elapsed, 3),
        "runs_per_sec": round(total_runs / elapsed, 1),
    }


def _measure_adaptive(threads: int) -> dict:
    """Adaptive sweep vs the exhaustive fixed sweep on a paper-shaped grid.

    One ldgm-staircase sweep of the paper's 14 x 14 (p, q) grid at k = 1000
    with a 100-run budget: once adaptively (sequential stopping at the
    default confidence / CI width) and once exhaustively with the same
    seeds and unit boundaries.  What the ledger tracks is the executed
    fraction of the run budget -- the fastest run is the one never
    executed -- plus the wall-clock of both sides so the saved fraction is
    backed by a measured speedup.  Settled-cell bit-identity between the
    two sides is enforced by the test suite and the ``adaptive-sweeps``
    CI gate; the benchmark asserts only the acceptance floor (at most a
    third of the exhaustive budget executed).
    """
    from repro.adaptive import AdaptiveConfig, adaptive_grid
    from repro.channel.gilbert import paper_grid
    from repro.core.config import SimulationConfig
    from repro.runner.engine import run_grid
    from repro.runner.options import ExecutionOptions

    config = SimulationConfig(
        code="ldgm-staircase", tx_model=TX_MODEL, k=K, expansion_ratio=2.5
    )
    p_values, q_values = paper_grid()
    budget = 100
    cfg = AdaptiveConfig()

    started = time.perf_counter()
    grid = adaptive_grid(
        config,
        p_values,
        q_values,
        runs=budget,
        seed=BENCH_SEED,
        options=ExecutionOptions(adaptive=cfg, kernel_threads=threads),
    )
    adaptive_elapsed = time.perf_counter() - started
    meta = grid.metadata["adaptive"]

    started = time.perf_counter()
    run_grid(
        config,
        p_values,
        q_values,
        runs=budget,
        seed=BENCH_SEED,
        runs_per_unit=cfg.min_runs,
        options=ExecutionOptions(kernel_threads=threads),
    )
    exhaustive_elapsed = time.perf_counter() - started

    if meta["executed_runs"] * 3 > meta["exhaustive_runs"]:
        raise AssertionError(
            f"adaptive sweep executed {meta['executed_runs']} of "
            f"{meta['exhaustive_runs']} runs -- more than a third of the "
            f"exhaustive budget"
        )
    return {
        "code": "ldgm-staircase",
        "grid_points": len(p_values) * len(q_values),
        "budget": budget,
        "confidence": cfg.confidence,
        "ci_width": cfg.ci_width,
        "rel_tol": cfg.rel_tol,
        "min_runs": cfg.min_runs,
        "executed_runs": meta["executed_runs"],
        "exhaustive_runs": meta["exhaustive_runs"],
        "saved_fraction": meta["saved_fraction"],
        "rounds": meta["rounds"],
        "settled_cells": int(np.asarray(meta["settled"]).sum()),
        "wall_clock_sec": round(adaptive_elapsed, 3),
        "exhaustive_wall_clock_sec": round(exhaustive_elapsed, 3),
        "wall_clock_speedup": round(exhaustive_elapsed / adaptive_elapsed, 2),
    }


def _previous_fastpath(payload: dict) -> dict:
    """Headline fastpath runs/sec per code of the ledger's last entry."""
    entries = payload.get("entries", [])
    if not entries:
        return {}
    return {
        row["code"]: row.get("fastpath_runs_per_sec")
        for row in entries[-1].get("results", [])
    }


def run_benchmark() -> dict:
    kernels = list(available_backends())
    # The team size every threaded sample uses: ``auto`` with no executor
    # divisor, i.e. the machine's physical cores (REPRO_KERNEL_THREADS
    # overrides).
    threads = resolve_thread_count()
    rows = [_measure(family, ratio, kernels, threads) for family, ratio in FAMILIES]
    entry = {
        "benchmark": "decoder_fastpath",
        "date": date.today().isoformat(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "k": K,
        "tx_model": TX_MODEL,
        "channel": {"p": P, "q": Q},
        "serial_runs": SERIAL_RUNS,
        "batch_runs": BATCH_RUNS,
        "seed": BENCH_SEED,
        "kernels": kernels,
        **_provenance(threads),
        "results": rows,
        "fleet": _measure_fleet(threads),
        "adaptive": _measure_adaptive(threads),
    }
    return entry


def append_to_bench_json(entry: dict) -> Path:
    destination = BENCH_JSON
    if destination.exists():
        payload = json.loads(destination.read_text(encoding="utf-8"))
    else:
        payload = {"schema": BENCH_SCHEMA, "entries": []}
    previous = _previous_fastpath(payload)
    for row in entry["results"]:
        prior = previous.get(row["code"])
        if prior:
            row["speedup_vs_prev_fastpath"] = round(
                row["fastpath_runs_per_sec"] / prior, 2
            )
    # Schema 2 adds fields to new entries without rewriting old ones.
    payload["schema"] = max(int(payload.get("schema", 1)), BENCH_SCHEMA)
    payload["entries"].append(entry)
    destination.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return destination


def main() -> int:
    entry = run_benchmark()
    print(
        f"decoder fastpath microbenchmark (k={K}, {TX_MODEL}, Gilbert p={P} q={Q}; "
        f"kernels: {', '.join(entry['kernels'])}; "
        f"threads={entry['kernel_threads']} of {entry['physical_cores']} cores, "
        f"OpenMP {'on' if entry['cext_openmp'] else 'off'})"
    )
    for row in entry["results"]:
        per_kernel = "   ".join(
            f"{name} {rate:8.1f}"
            for name, rate in row["fastpath_runs_per_sec_by_kernel"].items()
        )
        print(
            f"  {row['code']:16s} serial {row['serial_runs_per_sec']:8.1f} runs/s   "
            f"{per_kernel}   [{row['kernel']}] speedup {row['speedup']:6.2f}x"
        )
        per_kernel_unit = "   ".join(
            f"{name} {rate:8.1f}"
            for name, rate in row["unit_runs_per_sec_by_kernel"].items()
        )
        print(
            f"  {'':16s} unit scheme:              {per_kernel_unit}   "
            f"({row['unit_speedup_vs_per_run']:.2f}x vs per-run)"
        )
        per_kernel_threads = "   ".join(
            f"{name} {rate:8.1f}"
            for name, rate in row["threads_runs_per_sec_by_kernel"].items()
        )
        print(
            f"  {'':16s} {entry['kernel_threads']} thread(s):             "
            f"{per_kernel_threads}   "
            f"({row['threads_speedup_vs_single']:.2f}x vs 1 thread)"
        )
    fleet = entry["fleet"]
    print(
        f"  fleet: 1 member x {fleet['workers']} thread workers, "
        f"kernel_threads={fleet['kernel_threads']}: "
        f"{fleet['grid_points']} x {fleet['runs_per_point']} runs of "
        f"{fleet['code']} in {fleet['wall_clock_sec']:.2f}s "
        f"({fleet['runs_per_sec']:.1f} runs/s)"
    )
    adaptive = entry["adaptive"]
    print(
        f"  adaptive: {adaptive['grid_points']}-cell paper-shaped grid, "
        f"budget {adaptive['budget']}: {adaptive['executed_runs']}/"
        f"{adaptive['exhaustive_runs']} runs executed "
        f"({adaptive['saved_fraction']:.0%} saved, "
        f"{adaptive['rounds']} rounds) in {adaptive['wall_clock_sec']:.2f}s "
        f"vs exhaustive {adaptive['exhaustive_wall_clock_sec']:.2f}s "
        f"({adaptive['wall_clock_speedup']:.2f}x)"
    )
    destination = append_to_bench_json(entry)
    print(f"recorded in {destination}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
