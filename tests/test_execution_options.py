"""Tests for :class:`repro.runner.options.ExecutionOptions` and the grid
bit-identity matrix it drives.

Every sweep entry point takes one options object instead of a dozen
execution kwargs; the options validate themselves once, and whatever
executor, kernel and seed scheme they select, an engine grid must equal
the grid the per-packet incremental decoder produces for the same seeds.
"""

from __future__ import annotations

import dataclasses
import inspect
import json

import pytest

from repro.adaptive import AdaptiveConfig, adaptive_grid, plan_first_round
from repro.core.config import SimulationConfig
from repro.core.experiments import run_experiment
from repro.core.sweep import simulate_grid, sweep_parameter
from repro.kernels import available_backends
from repro.resilience import FailurePolicy
from repro.runner import ExecutionOptions, engine
from repro.runner.cli import main as cli_main
from repro.runner.engine import _execute, run_grid, run_series
from repro.runner.units import WorkUnit, execute_unit, plan_units
from repro.store import MemoryStore, encode_result
from unit_reference import assert_grid_matches, reference_grid, reference_unit_result

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
        ],
        ids=["fleet-no-store", "quarantine-no-store", "threads", "scheme"],
    )
    def test_bad_combinations_fail_fast(self, kwargs):
        with pytest.raises(ValueError):
            ExecutionOptions(**kwargs)

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


# ---------------------------------------------------------------------------
# Grid bit-identity: engine grid == incremental reference, for every
# executor x kernel x seed scheme.
# ---------------------------------------------------------------------------

GRID_CASES = [
    ("ldgm-staircase", "tx_model_2", 2.5),
    ("rse", "tx_model_2", 2.5),
    ("rse", "tx_model_5", 2.0),
    ("repetition", "tx_model_6", 2.0),
]
P_VALUES = [0.0, 0.05, 0.3]
Q_VALUES = [0.2, 0.6, 1.0]


@pytest.mark.parametrize("executor", ["serial", "process", "thread"])
@pytest.mark.parametrize("kernel", ["numpy", "cext"])
@pytest.mark.parametrize("scheme", ["per-run", "unit"])
@pytest.mark.parametrize(
    "code,tx_model,ratio", GRID_CASES, ids=[f"{c}-{t}" for c, t, _ in GRID_CASES]
)
def test_grid_matches_incremental_reference(
    code, tx_model, ratio, scheme, kernel, executor
):
    if kernel not in available_backends():
        pytest.skip("no C compiler for the cext backend")
    config = SimulationConfig(code=code, tx_model=tx_model, k=200, expansion_ratio=ratio)
    options = ExecutionOptions(
        executor=executor, workers=2, kernel=kernel, seed_scheme=scheme
    )
    grid = simulate_grid(config, P_VALUES, Q_VALUES, runs=3, seed=7, options=options)
    expected = reference_grid(
        config, P_VALUES, Q_VALUES, runs=3, seed=7,
        options=ExecutionOptions(seed_scheme=scheme),
    )
    assert_grid_matches(grid, expected)
