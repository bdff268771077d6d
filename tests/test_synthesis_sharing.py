"""One transmission per cell, decoded by every code.

The codes an experiment compares at one transmission model, ratio and
cell draw the same streams over layouts the schedule cannot tell apart.
A planned unit list is cut into synthesis groups
(:func:`repro.runner.units.synthesis_groups`); every executor runs a group
in one call (:func:`repro.runner.executors.run_group`) whose front ends
its units share, and fleets lease groups whole.
:func:`repro.core.experiments.run_experiment` runs a fixed-run experiment
as one engine pass (:func:`repro.runner.engine.run_grids`) that plans
those units side by side, and an adaptive one as one round loop
(:func:`repro.adaptive.controller.adaptive_grids`) whose rounds do the
same for the cells still active.  Sharing must never change a bit.
"""

from __future__ import annotations

import sys
import threading

import pytest

import repro.adaptive.controller as controller
import repro.fastpath.batch as batch_module
from repro.adaptive import AdaptiveConfig
from repro.core.config import SimulationConfig
from repro.core.experiments import SCALES, get_experiment, run_experiment
from repro.core.sweep import simulate_grid
from repro.resilience import FailurePolicy
from repro.runner.engine import grid_cells, plan_grids, run_grids
from repro.runner.executors import SerialExecutor, ThreadExecutor
from repro.runner.fleet import FleetRunner
from repro.runner.options import ExecutionOptions
from repro.runner.units import (
    _group_key, _share_family, execute_unit, plan_units, synthesis_groups,
)
from repro.scheduling import registry as tx_registry
from repro.scheduling.base import TransmissionModel
from repro.scheduling.interleaver import block_interleave
from repro.store import MemoryStore
from repro.store.codec import unit_key
from unit_reference import assert_grids_equal

CODES = ("rse", "ldgm-staircase", "ldgm-triangle")
TX_MODELS = [f"tx_model_{i}" for i in range(1, 6)] + ["tx_model_6"]
#: Cells with p = 0 (no loss) and q = 0 (stuck in the bad state).
P_VALUES = [0.0, 0.3]
Q_VALUES = [0.0, 0.6]
CELLS = len(P_VALUES) * len(Q_VALUES)


def _configs(tx_model: str, codes=CODES):
    options = {"source_fraction": 0.2} if tx_model == "tx_model_6" else {}
    return [
        SimulationConfig(
            code=code, tx_model=tx_model, k=200, expansion_ratio=2.5, tx_options=options
        )
        for code in codes
    ]


def _plan(configs, scheme: str, **kwargs):
    return plan_grids(
        configs,
        [grid_cells(config, P_VALUES, Q_VALUES)[2] for config in configs],
        runs=3,
        base_seed=7,
        options=ExecutionOptions(seed_scheme=scheme),
        **kwargs,
    )


@pytest.fixture
def syntheses(monkeypatch):
    """Every front end synthesized, in order."""
    made = []
    original = batch_module.synthesize_front_end

    def counting(*args, **kwargs):
        synthesis = original(*args, **kwargs)
        made.append(synthesis)
        return synthesis

    monkeypatch.setattr(batch_module, "synthesize_front_end", counting)
    return made


def _run(executor, units, policy=None):
    """``units``' results in plan order, run by ``executor``."""
    results = {}
    executor.run(
        units,
        lambda unit, result: results.__setitem__(id(unit), result),
        policy=policy or FailurePolicy(),
    )
    return [results[id(unit)] for unit in units]


def _unshared(units):
    return [execute_unit(unit) for unit in units]


@pytest.mark.parametrize("scheme", ["per-run", "unit"])
@pytest.mark.parametrize("tx_model", TX_MODELS)
def test_shared_results_equal_unshared(syntheses, tx_model, scheme):
    units = _plan(_configs(tx_model), scheme)
    assert [unit.config.code for unit in units[:3]] == list(CODES)
    assert [len(group) for group in synthesis_groups(units)] == [3] * CELLS
    shared = _run(SerialExecutor(), units)
    drawn = len(syntheses)
    assert shared == _unshared(units)
    # RSE splits k = 200 into two blocks, LDGM keeps one: only tx_model_5
    # (block interleaving) tells those layouts apart.
    assert drawn == (2 if tx_model == "tx_model_5" else 1) * CELLS


class _BlockRoundRobin(TransmissionModel):
    """A third-party model that reads the blocks and does not say so."""

    name = "test-block-round-robin"
    uses_rng = False

    def schedule(self, layout, rng=None):
        return block_interleave(layout)


def test_third_party_model_never_shares_across_blocks(syntheses, monkeypatch):
    monkeypatch.setitem(tx_registry._REGISTRY, _BlockRoundRobin.name, _BlockRoundRobin)
    units = _plan(_configs(_BlockRoundRobin.name), "per-run")
    shared = _run(SerialExecutor(), units)
    # RSE's two-block layout draws its own; the one-block LDGM codes share.
    assert len(syntheses) == 2 * CELLS
    assert shared == _unshared(units)


def test_fresh_code_per_run_never_shares(syntheses):
    units = _plan(_configs("tx_model_2"), "per-run", fresh_code_per_run=True)
    shared = _run(SerialExecutor(), units)
    assert len(syntheses) == 3 * len(units)  # one per run
    assert shared == _unshared(units)


def _fleet_of_two(units):
    """Run ``units`` on two in-process fleet peers, claiming one unit per
    round; each peer's results and runner."""
    store = MemoryStore()
    runners = [
        FleetRunner(store, worker_id=f"w{index}", claim_batch=1) for index in range(2)
    ]
    results, errors = {}, []

    def peer(runner):
        try:
            results[runner.worker_id] = _run(runner, units)
        except BaseException as error:  # surfaced to the main thread
            errors.append(error)

    threads = [threading.Thread(target=peer, args=(runner,)) for runner in runners]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
    assert errors == []
    assert sum(runner.stats.executed for runner in runners) == len(units)
    return [results[runner.worker_id] for runner in runners], runners


@pytest.fixture
def fast_switching():
    """Switch threads often, so sharing that hangs on scheduling shows."""
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    yield
    sys.setswitchinterval(switch)


@pytest.mark.parametrize("setup", ["serial", "thread4", "fleet2", "timeout"])
def test_one_synthesis_per_group(syntheses, fast_switching, setup):
    units = _plan(_configs("tx_model_4"), "per-run")
    if setup == "fleet2":
        peer_results, _runners = _fleet_of_two(units)
    else:
        executor = ThreadExecutor(4) if setup == "thread4" else SerialExecutor()
        policy = FailurePolicy(unit_timeout=60) if setup == "timeout" else None
        peer_results = [_run(executor, units, policy)]
    assert len(syntheses) == len(list(synthesis_groups(units))) == CELLS
    unshared = _unshared(units)
    for results in peer_results:
        assert results == unshared


def test_fleet_peers_never_split_a_group(syntheses):
    units = _plan(_configs("tx_model_2"), "unit")
    _results, runners = _fleet_of_two(units)
    owner = {
        key: runner.worker_id
        for runner in runners
        for key in runner.stats.executed_keys
    }
    for group in synthesis_groups(units):
        assert len({owner[unit_key(unit)] for unit in group}) == 1
    assert len(syntheses) == CELLS


def test_shared_front_ends_are_read_only(syntheses):
    _run(SerialExecutor(), _plan(_configs("tx_model_2"), "per-run"))
    assert len(syntheses) == CELLS
    for synthesis in syntheses:
        batch = synthesis.batch
        for array in (batch.flat, batch.offsets, batch.lengths, synthesis.n_sent):
            assert not array.flags.writeable
        with pytest.raises(ValueError):
            batch.flat[:1] = 0


def test_a_partly_cached_group_synthesizes_once_for_the_missing_configs(syntheses):
    store = MemoryStore()
    staircase = _configs("tx_model_2", codes=("ldgm-staircase",))
    run_grids(staircase, P_VALUES, Q_VALUES, runs=3, seed=7,
              options=ExecutionOptions(store=store))
    assert len(syntheses) == CELLS
    del syntheses[:]
    grids = run_grids(_configs("tx_model_2"), P_VALUES, Q_VALUES, runs=3, seed=7,
                      options=ExecutionOptions(store=store))
    assert len(syntheses) == CELLS  # one per cell: the rse + triangle group
    assert store.stats.hits == CELLS and store.stats.writes == 3 * CELLS
    for grid, config in zip(grids, _configs("tx_model_2")):
        assert_grids_equal(grid, simulate_grid(config, P_VALUES, Q_VALUES, runs=3, seed=7))


# ---------------------------------------------------------------------------
# One engine pass per fixed-run experiment.
# ---------------------------------------------------------------------------


def _per_config(experiment: str, runs: int = 2):
    scale = SCALES["tiny"]
    return {
        config.display_label: simulate_grid(
            config, scale.p_values, scale.q_values, runs=runs, seed=3
        )
        for config in get_experiment(experiment).scaled_configs(scale)
    }


def _assert_same(grids, expected):
    assert list(grids) == list(expected)
    for label, grid in grids.items():
        assert_grids_equal(grid, expected[label])
        assert grid.metadata == expected[label].metadata


@pytest.mark.parametrize("experiment", ["fig09", "fig13"])
@pytest.mark.parametrize(
    "executor,workers",
    [("serial", None), ("thread", 2)],
    ids=["serial", "thread2"],
)
def test_one_pass_equals_per_config_sweeps(experiment, executor, workers):
    grids = run_experiment(
        experiment, "tiny", seed=3, runs=2,
        options=ExecutionOptions(executor=executor, workers=workers),
    )
    _assert_same(grids, _per_config(experiment))


@pytest.mark.parametrize("experiment", ["fig09", "fig13"])
def test_one_pass_fleet_of_two_equals_per_config_sweeps(experiment, tmp_path):
    path = tmp_path / "fleet.db"
    grids, errors = [None, None], []

    def peer(index):
        try:
            grids[index] = run_experiment(
                experiment, "tiny", seed=3, runs=2,
                options=ExecutionOptions(
                    store=f"sqlite:{path}", fleet=True, worker_id=f"w{index}"
                ),
            )
        except BaseException as error:  # surfaced to the main thread
            errors.append(error)

    ExecutionOptions(store=f"sqlite:{path}").store.close()  # create it once
    threads = [threading.Thread(target=peer, args=(index,)) for index in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
    assert errors == []
    expected = _per_config(experiment)
    for peer_grids in grids:
        _assert_same(peer_grids, expected)


class _PoisonOneConfig(SerialExecutor):
    """Fails one cell of the RSE config only."""

    def _execute_one(self, unit, front_ends):
        if unit.config.code == "rse" and unit.seed_path == (1, 1):
            raise RuntimeError("poisoned rse cell")
        return super()._execute_one(unit, front_ends)


def test_skipped_failure_is_reported_by_its_own_config_only():
    grids = run_experiment(
        "fig09", "tiny", seed=3, runs=2,
        options=ExecutionOptions(
            executor=_PoisonOneConfig(),
            failure_policy=FailurePolicy(on_error="skip"),
        ),
    )
    for label, grid in grids.items():
        failed = grid.metadata.get("failed_units", [])
        if label.startswith("rse "):
            assert [entry["seed_path"] for entry in failed] == [[1, 1]]
        else:
            assert failed == []


# ---------------------------------------------------------------------------
# Plan order, and one round loop per adaptive experiment.
# ---------------------------------------------------------------------------


def _position_order(configs, cells_by_config, **plan_kwargs):
    """The plan order by list position: family, position, config."""
    families, ordered = {}, []
    for index, (config, cells) in enumerate(zip(configs, cells_by_config)):
        family = families.setdefault(_share_family(config), len(families))
        for position, unit in enumerate(plan_units(cells, **plan_kwargs)):
            ordered.append(((family, position, index), unit))
    return [unit for _order, unit in sorted(ordered, key=lambda item: item[0])]


@pytest.mark.parametrize("experiment", ["fig09", "fig11"])
def test_fixed_run_plan_keeps_the_position_order(experiment):
    scale = SCALES["tiny"]
    configs = get_experiment(experiment).scaled_configs(scale)
    cells = [grid_cells(config, scale.p_values, scale.q_values)[2] for config in configs]
    plan = dict(runs=5, runs_per_unit=2, base_seed=3, options=ExecutionOptions())
    assert plan_grids(configs, cells, **plan) == _position_order(configs, cells, **plan)


def test_configs_with_different_active_cells_still_form_groups():
    # An adaptive round plans each config's still-active cells only.
    configs = _configs("tx_model_2")
    every = grid_cells(configs[0], P_VALUES, Q_VALUES)[2]
    active = [
        [(path, config, p, q) for path, _config, p, q in subset]
        for config, subset in zip(configs, [every, every[1:], [every[3], every[0]]])
    ]
    units = plan_grids(
        configs, active, runs=6, first_run=2, runs_per_unit=2, base_seed=7,
        options=ExecutionOptions(),
    )
    groups = list(synthesis_groups(units))
    # Each (cell, run range) is one contiguous group of the configs that
    # plan it, in config order.
    keys = [(group[0].seed_path, group[0].run_start) for group in groups]
    assert len(keys) == len(set(keys)) == CELLS * 2
    for group in groups:
        assert [unit.config for unit in group] == [
            config for config, cells in zip(configs, active)
            if any(path == group[0].seed_path for path, *_ in cells)
        ]


def test_adaptive_experiment_synthesizes_once_per_group(syntheses, monkeypatch):
    planned = []

    def recording(*args, **kwargs):
        units = plan_grids(*args, **kwargs)
        planned.append(units)
        return units

    monkeypatch.setattr(controller, "plan_grids", recording)
    options = ExecutionOptions(adaptive=AdaptiveConfig(min_runs=4, ci_width=0.6))
    grids = run_experiment("fig09", "tiny", seed=3, runs=16, options=options)
    groups = [group for units in planned for group in synthesis_groups(units)]
    units = [unit for round_units in planned for unit in round_units]
    assert len(syntheses) == len(groups) < len(units)
    # One group per (cell, run range, family) of each round: the union of
    # what the codes ran there.
    assert len(groups) == len({_group_key(unit) for unit in units})
    # Some rounds ran a cell for only some of its codes.
    assert {len(group) for group in groups} > {3}
    scale = SCALES["tiny"]
    for config in get_experiment("fig09").scaled_configs(scale):
        alone = simulate_grid(
            config, scale.p_values, scale.q_values, runs=16, seed=3, options=options
        )
        assert_grids_equal(grids[config.display_label], alone)
        assert grids[config.display_label].metadata == alone.metadata
