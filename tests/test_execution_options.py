"""Tests for :class:`repro.runner.options.ExecutionOptions` and the grid
bit-identity matrix it drives.

Every sweep entry point takes one options object instead of a dozen
execution kwargs; the options validate themselves once, and whatever
executor, kernel and seed scheme they select, an engine grid must equal
the grid the per-packet incremental decoder produces for the same seeds.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import itertools
import json
import threading
from typing import List, Optional

import numpy as np
import pytest

from repro.adaptive import AdaptiveConfig, adaptive_grid, adaptive_grids, plan_first_round
from repro.core.config import SimulationConfig
from repro.core.experiments import run_experiment
from repro.core.sweep import simulate_grid, sweep_parameter
from repro.kernels import available_backends
from repro.resilience import FailurePolicy
from repro.runner import ExecutionOptions, engine
from repro.runner.cli import main as cli_main
from repro.runner.engine import _execute, run_grid, run_series
from repro.runner.units import WorkUnit, execute_unit, plan_units
from repro.store import MemoryStore, encode_result, resolve_store
from unit_reference import (
    ReferenceGrid,
    assert_grids_equal,
    reference_grid,
    reference_unit_result,
)

#: The per-call kwargs every sweep layer used to relay.
RETIRED_KWARGS = {
    "executor",
    "workers",
    "cache",
    "fastpath",
    "kernel",
    "kernel_threads",
    "seed_scheme",
    "fleet",
    "lease_ttl",
    "worker_id",
    "failure_policy",
}

SWEEP_LAYERS = [
    run_experiment,
    simulate_grid,
    sweep_parameter,
    run_grid,
    run_series,
    adaptive_grid,
    adaptive_grids,
    plan_first_round,
    plan_units,
    _execute,
]


@pytest.fixture
def config() -> SimulationConfig:
    return SimulationConfig(
        code="ldgm-staircase", tx_model="tx_model_2", k=60, expansion_ratio=2.5
    )


class TestSignatures:
    @pytest.mark.parametrize("function", SWEEP_LAYERS, ids=lambda f: f.__name__)
    def test_one_options_parameter(self, function):
        parameters = set(inspect.signature(function).parameters)
        assert not parameters & RETIRED_KWARGS
        assert "options" in parameters

    def test_run_adaptive_relay_is_gone(self):
        assert not hasattr(engine, "run_adaptive")

    def test_fields_were_all_kwargs_before(self):
        fields = {field.name for field in dataclasses.fields(ExecutionOptions)}
        assert fields == (RETIRED_KWARGS - {"cache", "fastpath"}) | {
            "store",
            "adaptive",
        }


class TestValidation:
    def test_normalised_on_construction(self):
        options = ExecutionOptions(
            store="memory:", kernel_threads=4, seed_scheme="unit", adaptive=True
        )
        assert isinstance(options.store, MemoryStore)
        assert options.kernel_threads == "4"
        assert options.seed_scheme == "unit"
        assert options.adaptive == AdaptiveConfig()

    def test_default_scheme_resolves_the_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_SEED_SCHEME", "unit")
        assert ExecutionOptions().seed_scheme == "unit"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"fleet": True},
            {"failure_policy": FailurePolicy(on_error="quarantine")},
            {"kernel_threads": "bogus"},
            {"seed_scheme": "bogus"},
            {"workers": 0},
            {"workers": -2},
            {"lease_ttl": 0.0},
            {"lease_ttl": -5.0},
            {"lease_ttl": float("nan")},
            {"lease_ttl": float("inf")},
        ],
        ids=[
            "fleet-no-store", "quarantine-no-store", "threads", "scheme",
            "workers-zero", "workers-negative", "ttl-zero", "ttl-negative",
            "ttl-nan", "ttl-inf",
        ],
    )
    def test_bad_combinations_fail_fast(self, kwargs):
        with pytest.raises(ValueError):
            ExecutionOptions(**kwargs)

    @pytest.mark.parametrize("spec", ["{}", "json-dir:{}", "chaos+json-dir:{}"])
    def test_fleet_needs_a_store_with_leases(self, spec, tmp_path):
        with pytest.raises(ValueError, match="does not support work-unit leases"):
            ExecutionOptions(store=spec.format(tmp_path / "cache"), fleet=True)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name", ["procss", "process"])
    def test_unknown_executor_fails_before_the_store_opens(self, name, tmp_path):
        with pytest.raises(ValueError, match="process pool was removed"):
            ExecutionOptions(executor=name, store=f"sqlite:{tmp_path / 'x.db'}")
        assert list(tmp_path.iterdir()) == []

    def test_process_executor_flag_exits_2(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["run", "fig09", "--executor", "process"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'process'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_serial_executor_rejects_a_pool_size(self, capsys):
        with pytest.raises(ValueError, match="serial executor"):
            ExecutionOptions(executor="serial", workers=4)
        assert ExecutionOptions(executor="serial", workers=1).workers == 1
        argv = [
            "run", "fig07", "--scale", "tiny", "--runs", "1", "--no-cache",
            "--quiet", "--executor", "serial", "--workers", "4",
        ]
        assert cli_main(argv) == 2
        assert "serial executor" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags,code",
        [
            (["--executor", "serial", "--workers", "4", "--store", "sqlite:x.db"], 2),
            (["--workers", "0"], 2),
            (["--kernel-threads", "bogus", "--store", "sqlite:x.db"], 2),
            (["--seed-scheme", "bogus", "--store", "sqlite:x.db"], 2),
            (["--kernel", "bogus", "--store", "sqlite:x.db"], 2),
            (["--fleet", "--lease-ttl", "0", "--store", "sqlite:x.db"], 2),
            (["--dry-run", "--fleet", "--store", "sqlite:x.db"], 0),
            (["--dry-run", "--fleet", "--store", "chaos+sqlite:x.db?rate=0.5"], 0),
        ],
        ids=[
            "serial-workers", "workers-zero", "threads", "scheme", "kernel", "ttl",
            "dry-run", "dry-run-chaos",
        ],
    )
    def test_run_that_executes_nothing_leaves_no_store(
        self, flags, code, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        argv = ["run", "fig07", "--scale", "tiny", "--runs", "1", "--quiet", *flags]
        assert cli_main(argv) == code
        assert list(tmp_path.iterdir()) == []

    def test_replace_keeps_the_opened_store(self):
        options = ExecutionOptions(store="memory:")
        assert dataclasses.replace(options, workers=2).store is options.store

    def test_units_carry_plain_strings(self, config):
        options = ExecutionOptions(kernel="numpy", kernel_threads=2, seed_scheme="unit")
        units = plan_units(
            [((0,), config, 0.1, 0.5)], runs=4, base_seed=3, runs_per_unit=2,
            options=options,
        )
        assert {(u.kernel, u.kernel_threads, u.seed_scheme) for u in units} == {
            ("numpy", "2", "unit")
        }

    def test_adaptive_grid_rejects_options_without_config(self, config):
        with pytest.raises(ValueError, match="adaptive config"):
            adaptive_grid(
                config, [0.0], [1.0], runs=8, options=ExecutionOptions()
            )


#: A provenance payload as recorded before the sweep-level fast-path
#: switch was removed: it still carries ``"fastpath": false``.
OLD_PAYLOAD = (
    '{"config": {"code": "ldgm-staircase", "tx_model": "tx_model_2", "k": 60, '
    '"expansion_ratio": 2.5, "nsent": null, "code_options": {}, '
    '"tx_options": {}, "label": null}, "p": 0.1, "q": 0.5, "seed_path": [0, 1], '
    '"run_start": 0, "run_stop": 3, "base_seed": 5, "fresh_code_per_run": false, '
    '"code_seed_path": null, "fastpath": false, "kernel": null, '
    '"kernel_threads": null, "seed_scheme": "per-run"}'
)


class TestOldProvenancePayloads:
    def test_from_payload_ignores_fastpath(self):
        unit = WorkUnit.from_payload(json.loads(OLD_PAYLOAD))
        assert unit.run_stop == 3 and unit.seed_path == (0, 1)
        assert "fastpath" not in unit.to_payload()

    def test_rerun_unit_accepts_an_old_payload(self, capsys):
        unit = WorkUnit.from_payload(json.loads(OLD_PAYLOAD))
        assert cli_main(["rerun-unit", OLD_PAYLOAD]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed == encode_result(unit, execute_unit(unit))
        # ...which is what the incremental path the payload asked for gives.
        assert printed == encode_result(unit, reference_unit_result(unit))

    @pytest.mark.parametrize(
        "payload,message",
        [
            ("{}", "unit payload is missing field 'config'"),
            (
                json.dumps({k: v for k, v in json.loads(OLD_PAYLOAD).items()
                            if k != "run_stop"}),
                "unit payload is missing field 'run_stop'",
            ),
            ("[1]", "unit payload must be a JSON object"),
        ],
        ids=["empty", "no-run-stop", "list"],
    )
    def test_rerun_unit_names_a_bad_payload(self, payload, message, capsys):
        assert cli_main(["rerun-unit", payload]) == 2
        assert capsys.readouterr().err.strip() == f"error: {message}"


# ---------------------------------------------------------------------------
# The equivalence matrix.  Whatever path a sweep takes -- executor, kernel,
# seed scheme, result store, a fleet of two peers, adaptive stopping, one
# round loop shared by several adaptive configs -- its grid must equal the
# grid the per-packet incremental decoder gives for the same seeds.
# Executor x kernel x scheme x case is checked cartesian; the store, fleet
# and sweep axes join them pairwise.
# ---------------------------------------------------------------------------

GRID_CASES = [
    ("ldgm-staircase", "tx_model_2", 2.5),
    ("rse", "tx_model_2", 2.5),
    ("rse", "tx_model_5", 2.0),
    ("repetition", "tx_model_6", 2.0),
]
CASE_IDS = [f"{code}-{tx_model}" for code, tx_model, _ in GRID_CASES]
P_VALUES = [0.0, 0.05, 0.3]
Q_VALUES = [0.2, 0.6, 1.0]
SEED = 7
#: Run budget and adaptive config per kind of sweep.  The adaptive width is
#: loose enough that cells settle at different counts, and the 16-run
#: budget (rounds 4, 8, 16) has a round spanning two ``min_runs`` windows.
#: ``shared`` runs a tiny experiment through one adaptive round loop
#: (:func:`adaptive_grids`): the case's code and a second one, each at the
#: case's ratio and one more, so two codes per family.
ADAPTIVE = AdaptiveConfig(min_runs=4, ci_width=0.6)
SWEEPS = {"fixed": (3, None), "adaptive": (16, ADAPTIVE), "shared": (16, ADAPTIVE)}
#: The second code of each case's families in the ``shared`` sweep.
PARTNER = {"ldgm-staircase": "ldgm-triangle", "rse": "ldgm-staircase", "repetition": "rse"}


def _config(case: str) -> SimulationConfig:
    code, tx_model, ratio = GRID_CASES[CASE_IDS.index(case)]
    return SimulationConfig(code=code, tx_model=tx_model, k=200, expansion_ratio=ratio)


def _configs(case: str, sweep: str) -> List[SimulationConfig]:
    """The configs ``sweep`` runs for ``case``; the case's own comes first."""
    config = _config(case)
    if sweep != "shared":
        return [config]
    return [
        config.with_updates(code=code, expansion_ratio=ratio)
        for ratio in (config.expansion_ratio, config.expansion_ratio + 1)
        for code in (config.code, PARTNER[config.code])
    ]


def _sweep(case: str, sweep: str, **options) -> list:
    """The grids of ``sweep``'s configs, in :func:`_configs` order."""
    runs, adaptive = SWEEPS[sweep]
    options = ExecutionOptions(adaptive=adaptive, **options)
    configs = _configs(case, sweep)
    if sweep == "shared":
        return adaptive_grids(
            configs, P_VALUES, Q_VALUES, runs=runs, seed=SEED, options=options
        )
    return [
        simulate_grid(configs[0], P_VALUES, Q_VALUES, runs=runs, seed=SEED, options=options)
    ]


@functools.lru_cache(maxsize=None)
def _reference(case: str, scheme: str, runs: int, runs_per_unit: Optional[int]):
    return reference_grid(
        _config(case), P_VALUES, Q_VALUES, runs=runs, seed=SEED,
        runs_per_unit=runs_per_unit, options=ExecutionOptions(seed_scheme=scheme),
    )


def assert_matches_reference(grid, case: str, scheme: str) -> None:
    """``grid`` equals the reference at each cell's run count (adaptive
    grids stop cells at different counts, planned in ``min_runs`` units)."""
    adaptive = grid.metadata.get("adaptive")
    shape = (len(P_VALUES), len(Q_VALUES))
    counts = np.full(shape, grid.runs)
    if adaptive:
        counts = np.asarray(adaptive["runs_per_cell"])
    expected = ReferenceGrid(
        np.full(shape, np.nan), np.full(shape, np.nan), np.zeros(shape, np.int64)
    )
    for count in np.unique(counts):
        reference = _reference(
            case, scheme, int(count), ADAPTIVE.min_runs if adaptive else None
        )
        for array, values in zip(expected, reference):
            array[counts == count] = values[counts == count]
    assert_grids_equal(grid, expected)


def _skip_without(kernel: str) -> None:
    if kernel not in available_backends():
        pytest.skip("no C compiler for the cext backend")


#: ``auto``: no executor named, two workers, as ``--workers 2`` alone runs.
EXECUTORS = {"serial": ("serial", None), "thread": ("thread", 2), "auto": (None, 2)}


@pytest.mark.parametrize("executor", list(EXECUTORS))
@pytest.mark.parametrize("kernel", ["numpy", "cext"])
@pytest.mark.parametrize("scheme", ["per-run", "unit"])
@pytest.mark.parametrize("case", CASE_IDS)
def test_grid_matches_incremental_reference(case, scheme, kernel, executor):
    _skip_without(kernel)
    name, workers = EXECUTORS[executor]
    (grid,) = _sweep(
        case, "fixed", executor=name, workers=workers, kernel=kernel, seed_scheme=scheme,
    )
    assert_matches_reference(grid, case, scheme)


MATRIX_AXES = {
    "case": CASE_IDS,
    "executor": ["serial", "thread"],
    "kernel": ["numpy", "cext", "cext2"],  # cext2: two kernel threads
    "scheme": ["per-run", "unit"],
    "store": ["none", "json-dir", "sqlite", "memory", "chaos+sqlite"],
    "fleet": ["solo", "fleet2"],  # fleet2: two in-process peers
    "sweep": list(SWEEPS),
}


def _pairs(row: dict) -> frozenset:
    return frozenset(
        (a, row[a], b, row[b]) for a, b in itertools.combinations(MATRIX_AXES, 2)
    )


def pairwise_rows() -> List[dict]:
    """A greedy all-pairs cover of ``MATRIX_AXES``: every pair of values of
    two axes meets in some row (a fleet needs a store with leases, so
    neither none nor json-dir runs one)."""
    candidates = {}
    for values in itertools.product(*MATRIX_AXES.values()):
        row = dict(zip(MATRIX_AXES, values))
        if not (row["store"] in ("none", "json-dir") and row["fleet"] == "fleet2"):
            candidates[values] = _pairs(row)
    missing = set().union(*candidates.values())
    rows = []
    while missing:
        values = max(candidates, key=lambda values: len(candidates[values] & missing))
        rows.append(dict(zip(MATRIX_AXES, values)))
        missing -= candidates[values]
    return rows


MATRIX = pairwise_rows()


def _store_spec(store: str, tmp_path, peer: int) -> Optional[str]:
    # Each chaos peer draws its own seeded, latency-free faults: transient
    # errors and torn batches, which the retrying failure policy rides out.
    chaos = f"rate=0.2&seed={peer + 1}&burst=2"
    return {
        "none": None,
        "json-dir": str(tmp_path / "cache"),
        "sqlite": f"sqlite:{tmp_path}/results.db",
        "memory": f"memory:{tmp_path}",
        "chaos+sqlite": f"chaos+sqlite:{tmp_path}/results.db?{chaos}",
    }[store]


@functools.lru_cache(maxsize=None)
def _serial(case: str, scheme: str, sweep: str) -> list:
    """``sweep``'s grids as serial sweeps of one config each."""
    runs, adaptive = SWEEPS[sweep]
    options = ExecutionOptions(adaptive=adaptive, seed_scheme=scheme)
    return [
        simulate_grid(config, P_VALUES, Q_VALUES, runs=runs, seed=SEED, options=options)
        for config in _configs(case, sweep)
    ]


def assert_same_grids(grids, expected) -> None:
    """Arrays and metadata (``metadata["adaptive"]`` included) match."""
    assert len(grids) == len(expected)
    for grid, alone in zip(grids, expected):
        assert_grids_equal(grid, alone)
        assert grid.metadata == alone.metadata


@pytest.mark.parametrize("row", MATRIX, ids=["-".join(row.values()) for row in MATRIX])
def test_pairwise_matrix_matches_incremental_reference(row, tmp_path):
    kernel = row["kernel"].rstrip("2")
    _skip_without(kernel)
    fleet = row["fleet"] == "fleet2"

    def sweep(peer: int, store):
        return _sweep(
            row["case"], row["sweep"],
            executor=row["executor"],
            workers=None if row["executor"] == "serial" else 2,
            kernel=kernel,
            kernel_threads=2 if row["kernel"] == "cext2" else None,
            seed_scheme=row["scheme"],
            store=store,
            fleet=fleet,
            lease_ttl=10.0,
            worker_id=f"w{peer}" if fleet else None,
            failure_policy=FailurePolicy(max_retries=2),
        )

    def open_store(peer: int):
        return resolve_store(_store_spec(row["store"], tmp_path, peer))

    # Opened one after the other: the first creates a store file.
    stores = [open_store(peer) for peer in range(2 if fleet else 1)]
    grids = [None] * len(stores)

    def run(peer: int) -> None:
        grids[peer] = sweep(peer, stores[peer])

    threads = [threading.Thread(target=run, args=(peer,)) for peer in range(len(grids))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
    expected = _serial(row["case"], row["scheme"], row["sweep"])
    for peer_grids in grids:
        assert peer_grids is not None, "a sweep raised"
        assert_matches_reference(peer_grids[0], row["case"], row["scheme"])
        assert_same_grids(peer_grids, expected)
    if row["store"] == "none":
        return
    distinct = list({id(store): store for store in stores}.values())  # memory: shared
    if fleet:
        assert all(store.leases() == [] for store in distinct)
    if fleet and row["store"] != "chaos+sqlite":  # torn batches rewrite
        # Zero duplicated executions: the peers' writes partition the units.
        assert sum(store.stats.writes for store in distinct) == len(distinct[0])
    for store in distinct:
        store.close()
    # A rerun on the reopened store is served from it, bit for bit.
    store = open_store(0)
    writes = store.stats.writes
    again = sweep(0, store)
    assert store.stats.writes == writes
    assert_same_grids(again, expected)
    store.close()
