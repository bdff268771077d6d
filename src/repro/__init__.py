"""Reproduction of Neumann et al., "Impacts of Packet Scheduling and Packet
Loss Distribution on FEC Performances: Observations and Recommendations"
(INRIA RR-5578, 2005).

The package is organised as a set of small, composable subsystems:

``repro.galois``
    GF(2^8) arithmetic and matrix algebra used by the Reed-Solomon code.
``repro.fec``
    The FEC framework and the three codes studied in the paper: RSE
    (Reed-Solomon erasure), LDGM Staircase and LDGM Triangle.
``repro.channel``
    Packet-loss channel models, most importantly the two-state Gilbert
    (Markov) model, plus the analytic decodability limits of figure 6.
``repro.scheduling``
    The six transmission models (Tx_model_1..6), interleavers, the
    repetition baseline of section 4.2 and the reception model of section 5.
``repro.core``
    The simulation engine: single runs, (p, q) grid sweeps, experiment
    presets for every figure/table, the n_sent optimiser and the
    recommendation engine of section 6.
``repro.fastpath``
    The vectorised decode fast path: precompiled per-code decoder
    prototypes whose batched decode (the RSE/repetition block count, the
    LDGM peel) runs on a ``repro.kernels`` backend.  Bit-identical to the
    incremental decoder, which stays only as the test oracle
    (``Simulator.run``).
``repro.pipeline``
    The batched run-synthesis pipeline feeding the fast path: whole-unit
    transmission schedules (``schedule_batch``), loss masks
    (``loss_mask_batch``) and received-batch assembly as arrays, with
    columnar ``RunResultBatch`` results -- bit-identical to the per-run
    front end for any seed.
``repro.seeds``
    The versioned seed-scheme subsystem: run-stream derivation as a
    first-class strategy object.  ``"per-run"`` (default) reproduces the
    historical ``SeedSequence``-per-run streams bit-for-bit; ``"unit"``
    derives one counter-based Philox generator per work unit so the
    stochastic stages draw whole ``(runs, n)`` blocks in one call.
``repro.store``
    Pluggable result-store backends behind one ``ResultStore`` contract:
    the byte-compatible ``json-dir`` file layout (default), a single-file
    WAL-mode ``sqlite`` store with indexed lookups and per-unit
    provenance, and an in-memory backend for tests -- plus verified
    migration between them and the work-unit lease protocol that fleet
    execution builds on.
``repro.runner``
    The parallel experiment-execution engine: deterministic work-unit
    sharding, serial and thread-pool executors, resumable
    result stores, cooperative coordinator-free fleet execution over
    lease-capable stores, and the ``python -m repro`` CLI.  How a sweep executes is one
    ``ExecutionOptions`` object, passed as ``options=`` to every sweep.
``repro.adaptive``
    The adaptive sweep controller: sequential stopping per grid cell
    (Wilson interval on decode probability, t-interval on mean
    inefficiency) with geometric run-count escalation, and bisection
    refinement of the decode-probability cliff -- planned as ordinary
    work units, so adaptive results cache, fleet, and stay bit-identical
    to fixed sweeps at the same per-cell run counts.
``repro.flute``
    A small in-process FLUTE/ALC-like file-delivery substrate showing the
    codes and schedulers in their motivating context.
``repro.analysis``
    Table formatting, ASCII surfaces, CSV export and comparison reports.

Package surfaces are lazy (:mod:`repro._lazy`): a name imports the
submodule that defines it on first use, so ``import repro`` is cheap and a
command loads only the subsystems it runs.

Quickstart
----------

>>> from repro import simulate_grid, GilbertChannel
>>> from repro.core import SimulationConfig
>>> config = SimulationConfig(code="ldgm-triangle", tx_model="tx_model_2",
...                           k=500, expansion_ratio=2.5)
>>> result = simulate_grid(config, p_values=[0.0, 0.05], q_values=[0.5, 1.0],
...                        runs=3, seed=1)
>>> result.mean_inefficiency.shape
(2, 2)
>>> from repro import ExecutionOptions
>>> parallel = simulate_grid(config, p_values=[0.0, 0.05], q_values=[0.5, 1.0],
...                          runs=3, seed=1,
...                          options=ExecutionOptions(store="memory:"))
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "adaptive": "AdaptiveConfig adaptive_grid",
    "channel": "BernoulliChannel GilbertChannel PerfectChannel TraceChannel",
    "core": "SimulationConfig Simulator simulate_grid simulate_once",
    "fec": "LDGMCode LDGMStaircaseCode LDGMTriangleCode ReedSolomonCode make_code",
    "fastpath": "simulate_batch simulate_batch_columnar",
    "pipeline": "synthesize_runs",
    "runner": "ExecutionOptions FleetRunner SerialExecutor run_grid",
    "scheduling": "make_tx_model",
    "seeds": "available_schemes get_scheme",
    "store": "JsonDirStore MemoryStore ResultStore SqliteStore migrate_store resolve_store",
})

__version__ = "1.4.0"

__all__ = [
    "AdaptiveConfig",
    "adaptive_grid",
    "BernoulliChannel",
    "GilbertChannel",
    "PerfectChannel",
    "TraceChannel",
    "SimulationConfig",
    "Simulator",
    "simulate_grid",
    "simulate_once",
    "LDGMCode",
    "LDGMStaircaseCode",
    "LDGMTriangleCode",
    "ReedSolomonCode",
    "make_code",
    "make_tx_model",
    "ExecutionOptions",
    "FleetRunner",
    "SerialExecutor",
    "run_grid",
    "JsonDirStore",
    "MemoryStore",
    "ResultStore",
    "SqliteStore",
    "migrate_store",
    "resolve_store",
    "simulate_batch",
    "simulate_batch_columnar",
    "synthesize_runs",
    "available_schemes",
    "get_scheme",
    "__version__",
]
