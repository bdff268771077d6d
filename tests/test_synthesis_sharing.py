"""One transmission per cell, decoded by every code.

The codes an experiment compares at one transmission model, ratio and
cell draw the same streams over layouts the schedule cannot tell apart,
so :func:`repro.runner.units.execute_unit` decodes the front end the
previous unit on its thread synthesized when the keys match, and
:func:`repro.core.experiments.run_experiment` runs a fixed-run experiment
as one engine pass (:func:`repro.runner.engine.run_grids`) that plans
those units side by side.  Sharing must never change a bit.
"""

from __future__ import annotations

import sys
import threading
import weakref

import pytest

import repro.fastpath.batch as batch_module
from repro.core.config import SimulationConfig
from repro.core.experiments import SCALES, get_experiment, run_experiment
from repro.core.sweep import simulate_grid
from repro.resilience import FailurePolicy
from repro.runner import units as units_module
from repro.runner.engine import grid_cells, plan_grids
from repro.runner.executors import SerialExecutor, ThreadExecutor
from repro.runner.options import ExecutionOptions
from repro.runner.units import execute_unit, release_synthesis
from repro.scheduling import registry as tx_registry
from repro.scheduling.base import TransmissionModel
from repro.scheduling.interleaver import block_interleave
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
    """Count (and keep weak references to) every front end synthesized."""
    made = []
    original = batch_module.synthesize_front_end

    def counting(*args, **kwargs):
        synthesis = original(*args, **kwargs)
        made.append((threading.get_ident(), weakref.ref(synthesis)))
        return synthesis

    monkeypatch.setattr(batch_module, "synthesize_front_end", counting)
    release_synthesis()
    yield made
    release_synthesis()


def _unshared(units):
    results = []
    for unit in units:
        release_synthesis()
        results.append(execute_unit(unit))
    release_synthesis()
    return results


@pytest.mark.parametrize("scheme", ["per-run", "unit"])
@pytest.mark.parametrize("tx_model", TX_MODELS)
def test_shared_results_equal_unshared(syntheses, tx_model, scheme):
    units = _plan(_configs(tx_model), scheme)
    assert [unit.config.code for unit in units[:3]] == list(CODES)
    shared = [execute_unit(unit) for unit in units]
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
    shared = [execute_unit(unit) for unit in units]
    # RSE's two-block layout draws its own; the one-block LDGM codes share.
    assert len(syntheses) == 2 * CELLS
    assert shared == _unshared(units)
    layouts = [config.build_code(seed=0).layout for config in _configs(_BlockRoundRobin.name)]
    keys = {
        units_module._synthesis_key(units[0], layout, _BlockRoundRobin())
        for layout in layouts
    }
    assert len(keys) == 2


def test_fresh_code_per_run_never_shares(syntheses):
    units = _plan(_configs("tx_model_2"), "per-run", fresh_code_per_run=True)
    shared = [execute_unit(unit) for unit in units]
    assert units_module._SYNTHESIS_MEMO.entry is None
    assert len(syntheses) == 3 * len(units)  # one per run
    assert shared == _unshared(units)


def test_reexecuting_a_unit_draws_afresh(syntheses):
    (unit,) = _plan(_configs("tx_model_2", codes=("rse",)), "per-run")[:1]
    assert execute_unit(unit) == execute_unit(unit)
    assert len(syntheses) == 2


def test_memo_holds_one_read_only_synthesis_per_thread(syntheses):
    units = _plan(_configs("tx_model_4"), "per-run")
    overlaps = []
    original = batch_module.synthesize_front_end

    def checking(*args, **kwargs):
        # A thread drops its entry before it builds the next one.
        me = threading.get_ident()
        if any(thread == me and ref() is not None for thread, ref in syntheses):
            overlaps.append(me)
        return original(*args, **kwargs)

    threaded = {}
    batch_module.synthesize_front_end = checking
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        # More workers than cores, switching often: each thread's memo
        # stays its own.
        ThreadExecutor(4).run(
            units, lambda unit, result: threaded.__setitem__(id(unit), result)
        )
        serial = [execute_unit(unit) for unit in units]
    finally:
        sys.setswitchinterval(switch)
        batch_module.synthesize_front_end = original
    assert overlaps == []
    assert [threaded[id(unit)] for unit in units] == serial
    assert len(syntheses) >= CELLS
    alive = [ref() for thread, ref in syntheses if ref() is not None]
    assert len(alive) == 1  # this thread's entry; the pool's threads are gone
    (synthesis,) = alive
    assert units_module._SYNTHESIS_MEMO.entry[2] is synthesis
    for array in (
        synthesis.batch.flat,
        synthesis.batch.offsets,
        synthesis.batch.lengths,
        synthesis.n_sent,
    ):
        assert not array.flags.writeable
    with pytest.raises(ValueError):
        synthesis.batch.flat[:1] = 0


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
    [("serial", None), ("process", 2), ("thread", 2)],
    ids=["serial", "process2", "thread2"],
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

    def _execute_one(self, unit):
        if unit.config.code == "rse" and unit.seed_path == (1, 1):
            raise RuntimeError("poisoned rse cell")
        return super()._execute_one(unit)


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
