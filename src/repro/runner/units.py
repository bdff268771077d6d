"""Work-unit model of the parallel experiment-execution engine.

A sweep -- a (p, q) grid or a 1-D parameter series -- is sharded into
independent :class:`WorkUnit` cells, each covering one point of the sweep
and a contiguous range of runs.  Each unit's random streams are derived by
a named :mod:`repro.seeds` scheme: the default ``"per-run"`` scheme gives
every run ``SeedSequence([base_seed, *seed_path, run])`` -- exactly what
the serial sweeps in :mod:`repro.core.sweep` have always used
(``[base_seed, i, j, run]`` for grids, ``[base_seed, index, run]`` for
series), so executing the units serially, in parallel, or reloading them
from the on-disk cache produces bit-identical results.  The counter-based
``"unit"`` scheme derives one Philox generator per unit instead, which
lets the synthesis pipeline draw whole ``(runs, n)`` blocks; its results
differ from ``"per-run"`` (the scheme is part of the cache key) but are
equally deterministic across executors and cache states.

The units of one cell that differ only in the code draw the same
transmission: executors run each *synthesis group* (:func:`synthesis_groups`)
in one call whose units share one dict of front ends, and fleets lease it
whole.  Everywhere else -- cache keys, leases, progress, failures,
retries -- a unit covers one config.

Units are plain dataclasses: :meth:`WorkUnit.to_payload` snapshots one
as JSON (provenance, failure records, ``rerun-unit``) and
:func:`repro.store.codec.unit_key` hashes it into cache keys.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.channel.gilbert import GilbertChannel
from repro.core.config import SimulationConfig
from repro.kernels.threads import thread_count_context
from repro.runner.heap import retain_freed_pages
from repro.seeds import UnitStreams, get_scheme

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.metrics import RunResultBatch
    from repro.runner.options import ExecutionOptions

#: Cell identifier inside one sweep: ``(i, j)`` for grids, ``(index,)`` for
#: 1-D series.  It doubles as the seed salt, so two cells of the same sweep
#: never share a random stream.
SeedPath = Tuple[int, ...]


@dataclass(frozen=True)
class WorkUnit:
    """One independent shard of a sweep: a cell and a contiguous run range.

    Attributes
    ----------
    config:
        Full simulation configuration for this cell (already specialised:
        for parameter sweeps the swept value is baked in).
    p, q:
        Gilbert channel parameters of the cell.
    seed_path:
        Position of the cell inside the sweep, mixed into every run seed.
    run_start, run_stop:
        Half-open range of run indices covered by this unit.
    base_seed:
        Normalised top-level seed of the sweep.
    fresh_code_per_run:
        Rebuild the FEC code from the run generator for every run (instead
        of reusing one code built from the code seed).
    code_seed_path:
        Salt for the shared code seed: ``None`` builds the code from
        ``default_rng(base_seed)`` (the grid sweep's historical behaviour),
        a tuple builds it from ``SeedSequence([base_seed, *path])`` (used by
        parameter sweeps so neighbouring indices cannot collide).
    kernel:
        :mod:`repro.kernels` backend name for the batch decode (``None``
        resolves ``REPRO_KERNEL`` / auto in the executing process).  All
        backends are bit-identical, so this is excluded from the cache
        key; kept a plain string so units stay JSON-clean.
    kernel_threads:
        Thread-count request for the compiled kernels' row-parallel
        loops, normalised to ``None`` / ``"auto"`` / a digit string
        (:func:`repro.kernels.threads.normalize_thread_spec`); ``None``
        resolves ``REPRO_KERNEL_THREADS`` / auto in the executing
        process.  Thread counts are bit-identical, so like ``kernel``
        this is excluded from the cache key.
    seed_scheme:
        Name of the :mod:`repro.seeds` scheme deriving this unit's random
        streams.  Unlike ``kernel`` the scheme changes the drawn streams,
        so it **is** part of the cache key.  Stored as the resolved name
        (never ``None``) so units are self-describing when they cross
        process boundaries.
    """

    config: SimulationConfig
    p: float
    q: float
    seed_path: SeedPath
    run_start: int
    run_stop: int
    base_seed: int
    fresh_code_per_run: bool = False
    code_seed_path: Optional[SeedPath] = None
    kernel: Optional[str] = None
    kernel_threads: Optional[str] = None
    seed_scheme: str = "per-run"

    @property
    def runs(self) -> int:
        return self.run_stop - self.run_start

    def to_payload(self) -> Dict[str, object]:
        """JSON-compatible snapshot of the unit (store provenance records).

        The snapshot is self-contained: :meth:`from_payload` rebuilds an
        equal unit on any machine, which is what makes one stored unit
        re-executable from its provenance record alone
        (``python -m repro rerun-unit``).
        """
        return {"config": dataclasses.asdict(self.config), **self._cell_payload()}

    def to_json(self) -> str:
        """``json.dumps(self.to_payload())``, byte for byte.

        The config part is the config's own once-encoded snapshot
        (:attr:`SimulationConfig.snapshot_json`), so a sweep serialises
        each config once rather than once per unit.
        """
        cell = json.dumps(self._cell_payload())
        return '{"config": ' + self.config.snapshot_json + ", " + cell[1:]

    def _cell_payload(self) -> Dict[str, object]:
        """Every :meth:`to_payload` field after ``config``, in order."""
        return {
            "p": self.p,
            "q": self.q,
            "seed_path": list(self.seed_path),
            "run_start": self.run_start,
            "run_stop": self.run_stop,
            "base_seed": self.base_seed,
            "fresh_code_per_run": self.fresh_code_per_run,
            "code_seed_path": None
            if self.code_seed_path is None
            else list(self.code_seed_path),
            "kernel": self.kernel,
            "kernel_threads": self.kernel_threads,
            "seed_scheme": self.seed_scheme,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "WorkUnit":
        """Rebuild a unit from a :meth:`to_payload` snapshot.

        Older snapshots also carry a ``"fastpath"`` flag, from when a sweep
        could decode through the incremental reference path; both paths
        were bit-identical, so the flag is ignored.  Raises ``ValueError``
        unless the payload is a mapping holding every field without a
        default.
        """
        if not isinstance(payload, dict):
            raise ValueError("unit payload must be a JSON object")
        for field in dataclasses.fields(cls):
            required = (
                field.default is dataclasses.MISSING
                and field.default_factory is dataclasses.MISSING
            )
            if required and field.name not in payload:
                raise ValueError(f"unit payload is missing field {field.name!r}")
        fields = dict(payload)
        fields.pop("fastpath", None)
        config = SimulationConfig(**fields.pop("config"))
        seed_path = tuple(int(x) for x in fields.pop("seed_path"))
        code_seed_path = fields.pop("code_seed_path", None)
        if code_seed_path is not None:
            code_seed_path = tuple(int(x) for x in code_seed_path)
        return cls(
            config=config,
            seed_path=seed_path,
            code_seed_path=code_seed_path,
            **fields,
        )


@dataclass(frozen=True)
class UnitResult:
    """Raw per-run outcomes of one executed :class:`WorkUnit`.

    The per-run ratio lists (not their means) are kept so that results of
    run-sharded units can be re-concatenated in run order and aggregated
    exactly as the serial loop would have; ``inefficiency_ratios`` only
    contains the decoded runs, matching :class:`repro.core.metrics.CellStats`.
    """

    seed_path: SeedPath
    run_start: int
    run_stop: int
    inefficiency_ratios: Tuple[float, ...]
    received_ratios: Tuple[float, ...]
    failures: int


def plan_units(
    configs: Sequence[Tuple[SeedPath, SimulationConfig, float, float]],
    *,
    runs: int,
    base_seed: int,
    fresh_code_per_run: bool = False,
    code_seed_by_path: bool = False,
    runs_per_unit: Optional[int] = None,
    first_run: int = 0,
    options: Optional["ExecutionOptions"] = None,
) -> List[WorkUnit]:
    """Shard a sweep into work units.

    Parameters
    ----------
    configs:
        One ``(seed_path, config, p, q)`` tuple per cell, in sweep order.
    runs_per_unit:
        Split each cell into units of at most this many runs; ``None``
        keeps one unit per cell (the cache granularity used by default).
        Under the ``"unit"`` seed scheme the sharding also selects the
        counter windows, so it is part of the stream definition there.
    first_run:
        Plan only the run range ``[first_run, runs)`` of each cell, in
        chunks counted from ``first_run``.  The adaptive controller uses
        this to *extend* already-executed cells round by round.  Under the
        ``"unit"`` scheme it keeps ``first_run`` a multiple of
        ``runs_per_unit``, so the chunk boundaries (the counter windows)
        are those of a from-zero plan; under ``"per-run"`` run outcomes do
        not depend on the boundaries, and the controller plans each
        round's range as one unit per cell.
    code_seed_by_path:
        Derive each cell's shared code seed from its ``seed_path`` instead
        of the sweep-wide ``base_seed`` (parameter-sweep behaviour).
    options:
        The sweep's :class:`~repro.runner.options.ExecutionOptions`
        (default: ``ExecutionOptions()``); its already-validated kernel,
        thread spec and seed-scheme name are copied into every unit.
    """
    if options is None:
        from repro.runner.options import ExecutionOptions

        options = ExecutionOptions()
    chunk = runs if runs_per_unit is None else max(1, int(runs_per_unit))
    first_run = int(first_run)
    if first_run < 0:
        raise ValueError(f"first_run must be >= 0, got {first_run}")
    kernel = options.kernel
    kernel_threads = options.kernel_threads
    scheme_name = options.seed_scheme
    units: List[WorkUnit] = []
    for seed_path, config, p, q in configs:
        for run_start in range(first_run, runs, chunk):
            units.append(
                WorkUnit(
                    config=config,
                    p=float(p),
                    q=float(q),
                    seed_path=tuple(int(x) for x in seed_path),
                    run_start=run_start,
                    run_stop=min(run_start + chunk, runs),
                    base_seed=int(base_seed),
                    fresh_code_per_run=bool(fresh_code_per_run),
                    code_seed_path=tuple(int(x) for x in seed_path)
                    if code_seed_by_path
                    else None,
                    kernel=kernel,
                    kernel_threads=kernel_threads,
                    seed_scheme=scheme_name,
                )
            )
    return units


#: Per-process memo of shared FEC codes, keyed by the code-defining parts of
#: the unit.  Building an LDGM parity-check matrix or a Vandermonde table is
#: far more expensive than a handful of runs, so a worker builds each
#: distinct code once, in the first unit that needs it, and reuses it across
#: the units it executes.  Compiled decoder prototypes are cached on the
#: instance (:func:`~repro.fastpath.prototypes.compile_prototype`), so this
#: is the one place a worker keeps both, and the bound also bounds how often
#: it recompiles: 64 codes cover a paper figure's distinct configs plus a
#: long parameter series.  The lock makes the check-then-build race safe
#: for thread-executor workers sharing this cache.
_CODE_CACHE: Dict[tuple, object] = {}
_CODE_CACHE_MAX = 64
_CODE_CACHE_LOCK = threading.Lock()


def _shared_code(unit: WorkUnit):
    key = (unit.config.token, unit.base_seed, unit.code_seed_path)
    with _CODE_CACHE_LOCK:
        code = _CODE_CACHE.get(key)
        if code is None:
            if unit.code_seed_path is None:
                seed = np.random.default_rng(unit.base_seed)
            else:
                seed = np.random.default_rng(
                    np.random.SeedSequence([unit.base_seed, *unit.code_seed_path])
                )
            code = unit.config.build_code(seed=seed)
            if len(_CODE_CACHE) >= _CODE_CACHE_MAX:
                _CODE_CACHE.pop(next(iter(_CODE_CACHE)))
            _CODE_CACHE[key] = code
    return code


def _share_family(config: SimulationConfig) -> tuple:
    """What the configs whose units may share a synthesis have in common:
    everything but the code."""
    options = json.dumps(config.tx_options, sort_keys=True, default=repr)
    return (config.tx_model, options, config.k, config.expansion_ratio, config.nsent)


def _group_key(unit: WorkUnit) -> tuple:
    """Everything a unit's synthesis reads but its code's layout."""
    cell = (unit.seed_scheme, unit.base_seed, unit.seed_path, unit.p, unit.q)
    return (*cell, unit.run_start, unit.run_stop, _share_family(unit.config))


def synthesis_groups(units: Iterable[WorkUnit]) -> Iterator[List[WorkUnit]]:
    """Cut a planned unit list, lazily and in order, into synthesis groups:
    maximal runs of consecutive units with the same cell, run range and
    share family (:func:`repro.runner.engine.plan_grids` puts the configs
    of one family side by side)."""
    return (list(group) for _key, group in itertools.groupby(units, _group_key))


#: A synthesis group's front ends (:class:`~repro.pipeline.SynthesizedRuns`),
#: keyed by :func:`_layout_key`.
FrontEnds = Dict[tuple, object]


def _layout_key(layout, tx_model) -> tuple:
    """What can tell two units of one synthesis group apart: the layout's
    index arrays, plus its block sizes when ``tx_model``'s schedule reads them
    (:attr:`~repro.scheduling.base.TransmissionModel.schedule_reads_blocks`)."""
    blocks = None
    if getattr(tx_model, "schedule_reads_blocks", True):
        blocks = tuple((b.source_indices.size, b.parity_indices.size) for b in layout.blocks)
    return (layout.source_indices.tobytes(), layout.parity_indices.tobytes(), blocks)


def _unit_streams(unit: WorkUnit) -> UnitStreams:
    """Resolve the unit's random streams through its seed scheme."""
    return get_scheme(unit.seed_scheme).unit_streams(
        unit.base_seed, unit.seed_path, unit.run_start, unit.run_stop
    )


def _unit_batch(unit: WorkUnit, front_ends: Optional[FrontEnds]) -> RunResultBatch:
    """Columnar outcomes of one unit, in run order.

    The whole run range flows through the :mod:`repro.pipeline` batched
    run-synthesis pipeline and the vectorised decoders as arrays; the
    cell metrics are computed from columns, never from per-run objects.

    The kernel backend is resolved here, in the *executing* process,
    through the degrading run-time resolver: a backend that cannot be
    constructed on this host (missing compiler) falls back down the
    ``auto`` chain with a logged warning instead of killing the unit --
    all backends are bit-identical, so degradation never changes
    results.  The unit's ``kernel_threads`` request is resolved once and
    scopes the whole execution (synthesis *and* decode), so every compiled
    kernel call under it uses the same thread count.  Blocks the unit frees
    stay in the heap for the next unit (:mod:`repro.runner.heap`).
    """
    retain_freed_pages()
    with thread_count_context(unit.kernel_threads):
        return _unit_batch_impl(unit, {} if front_ends is None else front_ends)


def _unit_batch_impl(unit: WorkUnit, front_ends: FrontEnds) -> RunResultBatch:
    from repro.fastpath import simulate_batch_columnar
    from repro.fastpath.batch import synthesize_front_end
    from repro.kernels.registry import get_backend_for_run

    if unit.fresh_code_per_run:
        return _fresh_code_batch(unit)
    tx_model = unit.config.build_tx_model()
    code = _shared_code(unit)
    kernel = get_backend_for_run(unit.kernel)
    channel = GilbertChannel(unit.p, unit.q)
    streams = _unit_streams(unit)
    key = _layout_key(code.layout, tx_model)
    synthesis = front_ends.get(key)
    if synthesis is None:
        # The whole run range is one vectorised batch.  Under the per-run
        # scheme each run keeps its own generator, so the batch is
        # bit-identical to the incremental loop; under the unit scheme the
        # streams are defined by the block draws.  Read-only: every unit
        # of the group that decodes it only reads it.
        synthesis = front_ends[key] = synthesize_front_end(
            code.layout, tx_model, channel, streams,
            nsent=unit.config.nsent, kernel=kernel,
        )
        batch = synthesis.batch
        for array in (batch.flat, batch.offsets, batch.lengths, synthesis.n_sent):
            array.flags.writeable = False
    return simulate_batch_columnar(
        code,
        tx_model,
        channel,
        streams,
        nsent=unit.config.nsent,
        kernel=kernel,
        synthesis=synthesis,
    )


def _fresh_code_batch(unit: WorkUnit) -> RunResultBatch:
    """A unit whose code is drawn from each run's generator.

    The code must be drawn *before* the schedule, so each run is its own
    batch of one (the unit scheme gives every run its own counter window
    here), and no front end is shared.
    """
    from repro.core.metrics import RunResultBatch
    from repro.fastpath import simulate_batch_columnar
    from repro.kernels.registry import get_backend_for_run

    kernel = get_backend_for_run(unit.kernel)
    tx_model = unit.config.build_tx_model()
    channel = GilbertChannel(unit.p, unit.q)
    streams = _unit_streams(unit)
    batches: List[RunResultBatch] = []
    for run in range(unit.run_start, unit.run_stop):
        run_rng = streams.run_rng(run)
        code = unit.config.build_code(seed=run_rng)
        batches.append(
            simulate_batch_columnar(
                code,
                tx_model,
                channel,
                [run_rng],
                nsent=unit.config.nsent,
                kernel=kernel,
            )
        )
    return RunResultBatch.concatenate(batches)


def execute_unit(unit: WorkUnit, front_ends: Optional[FrontEnds] = None) -> UnitResult:
    """Run every transmission of one unit and collect the raw outcomes.

    The unit decodes the front end its layout keys in ``front_ends``, its
    synthesis group's dict, adding it there when missing (``None``: share
    nothing).  The per-run ratio columns come straight off the unit's
    :class:`~repro.core.metrics.RunResultBatch`.
    """
    batch = _unit_batch(unit, front_ends)
    return UnitResult(
        seed_path=unit.seed_path,
        run_start=unit.run_start,
        run_stop=unit.run_stop,
        inefficiency_ratios=tuple(batch.inefficiency_ratios().tolist()),
        received_ratios=tuple(batch.received_ratios().tolist()),
        failures=batch.failures,
    )


def merge_cell(results: Iterable[UnitResult]) -> Tuple[float, float, int]:
    """Aggregate one cell's unit results into the paper's per-cell metrics.

    Returns ``(mean_inefficiency, mean_received_ratio, failures)``.  The
    per-run lists are concatenated in run order before averaging, so the
    outcome is bit-identical to the serial loop regardless of how the cell
    was sharded; a cell where any run failed has NaN mean inefficiency
    (the paper's plotting rule).
    """
    ordered = sorted(results, key=lambda result: result.run_start)
    inefficiency: List[float] = []
    received: List[float] = []
    failures = 0
    for result in ordered:
        inefficiency.extend(result.inefficiency_ratios)
        received.extend(result.received_ratios)
        failures += result.failures
    mean_inefficiency = (
        float(np.mean(inefficiency)) if failures == 0 and inefficiency else float("nan")
    )
    mean_received = float(np.mean(received)) if received else float("nan")
    return mean_inefficiency, mean_received, failures


__all__ = [
    "SeedPath",
    "WorkUnit",
    "UnitResult",
    "plan_units",
    "synthesis_groups",
    "execute_unit",
    "merge_cell",
]
