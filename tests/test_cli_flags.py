"""The ``run`` flags built from the option dataclasses, and flag validation.

Every ``run`` flag backed by a field of :class:`ExecutionOptions`,
:class:`AdaptiveConfig` or :class:`FailurePolicy` is generated from that
field, so its default and doc cannot drift from the library's.  Mode
flags given without their mode, and ``cache --scheme`` names that match
no stored entry, exit 2 instead of being silently ignored.
"""

import argparse
import dataclasses

import pytest

from repro.resilience.policy import FailurePolicy
from repro.runner import cli
from repro.runner.options import AdaptiveConfig, ExecutionOptions
from repro.runner.units import execute_unit, plan_units
from repro.store import resolve_store

OPTION_CLASSES = (ExecutionOptions, AdaptiveConfig, FailurePolicy)

DRY_RUN = ("run", "fig09", "--scale", "tiny", "--no-cache", "--dry-run")


def _flagged(cls):
    return [spec for spec in dataclasses.fields(cls) if "help" in spec.metadata]


def _run_parser():
    (subparsers,) = [
        action for action in cli._build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return subparsers.choices["run"]


class TestFlagsFromFields:
    def test_no_flags_build_the_default_objects(self):
        args = cli._build_parser().parse_args(["run", "fig09"])
        for cls in OPTION_CLASSES:
            built, default = cli._from_flags(cls, args), cls()
            for spec in dataclasses.fields(cls):
                assert getattr(built, spec.name) == getattr(default, spec.name), (
                    cls.__name__, spec.name,
                )

    def test_every_flagged_field_is_in_help_with_its_default(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "10000")  # no wrapping inside a help text
        parser = _run_parser()
        text = " ".join(parser.format_help().split())
        actions = {action.dest: action for action in parser._actions}
        for cls in OPTION_CLASSES:
            for spec in _flagged(cls):
                action = actions[spec.name]
                assert action.option_strings == ["--" + spec.name.replace("_", "-")]
                assert action.default == spec.default
                shown = " ".join(action.help.split())
                assert shown.startswith(" ".join(spec.metadata["help"].split()))
                assert shown in text
                if spec.default is not None and not isinstance(spec.default, bool):
                    assert shown.endswith(f"(default: {spec.default})"), shown

    def test_flags_parse_into_the_fields(self):
        args = cli._build_parser().parse_args([
            "run", "fig09", "--workers", "3", "--executor", "thread",
            "--lease-ttl", "7.5", "--min-runs", "4", "--ci-width", "0.1",
            "--max-retries", "2", "--unit-timeout", "9", "--on-error", "skip",
        ])
        assert cli._from_flags(AdaptiveConfig, args) == AdaptiveConfig(
            min_runs=4, ci_width=0.1
        )
        assert cli._from_flags(FailurePolicy, args) == FailurePolicy(
            max_retries=2, unit_timeout=9.0, on_error="skip"
        )
        options = cli._from_flags(ExecutionOptions, args)
        assert (options.workers, options.executor, options.lease_ttl) == (3, "thread", 7.5)


class TestModeFlags:
    @pytest.mark.parametrize("flag, value", [
        ("--confidence", "0.9"),
        ("--ci-width", "0.1"),
        ("--rel-tol", "0.05"),
        ("--min-runs", "4"),
        ("--min-runs", "8"),  # the default value, given explicitly
    ])
    def test_adaptive_flags_need_adaptive(self, capsys, flag, value):
        assert cli.main([*DRY_RUN, flag, value]) == 2
        assert f"error: {flag} needs --adaptive (or --refine-cliff)" in capsys.readouterr().err
        assert cli.main([*DRY_RUN, flag, value, "--adaptive"]) == 0
        assert cli.main([*DRY_RUN, flag, value, "--refine-cliff"]) == 0

    @pytest.mark.parametrize("flag, value", [("--lease-ttl", "5"), ("--worker-id", "x")])
    def test_fleet_flags_need_fleet(self, capsys, tmp_path, flag, value):
        store = ("--store", f"json-dir:{tmp_path}/cache")
        argv = ["run", "fig09", "--scale", "tiny", "--dry-run", *store, flag, value]
        assert cli.main(argv) == 2
        assert f"error: {flag} needs --fleet" in capsys.readouterr().err
        assert cli.main([*argv, "--fleet"]) == 0

    def test_max_runs_needs_adaptive(self, capsys):
        assert cli.main([*DRY_RUN, "--max-runs", "5"]) == 2
        assert "--max-runs needs --adaptive" in capsys.readouterr().err


def _fill(uri, config):
    """Two ``per-run`` entries and one ``unit`` entry in the store at ``uri``."""
    with resolve_store(uri) as store:
        for scheme, cells in (("per-run", 2), ("unit", 1)):
            points = [((i,), config, 0.05, 0.5) for i in range(cells)]
            options = ExecutionOptions(seed_scheme=scheme)
            for unit in plan_units(points, runs=2, base_seed=3, options=options):
                store.put(unit, execute_unit(unit))


def _scheme_counts(uri):
    with resolve_store(uri) as store:
        return store.scheme_counts()


class TestCacheScheme:
    @pytest.mark.parametrize("backend", ["json-dir", "sqlite"])
    @pytest.mark.parametrize("scheme", ["per-run", "per-run/v1"])
    def test_clear_takes_a_name_or_its_token(
        self, capsys, tmp_path, small_staircase_config, backend, scheme
    ):
        uri = f"{backend}:{tmp_path}/store"
        _fill(uri, small_staircase_config)
        assert cli.main(["cache", "clear", "--store", uri, "--scheme", "pre-seeds"]) == 0
        assert cli.main(["cache", "clear", "--store", uri, "--scheme", scheme]) == 0
        out = capsys.readouterr().out
        assert "removed 0 entries (pre-seeds entries)" in out
        assert "removed 2 entries (per-run entries)" in out
        assert _scheme_counts(uri) == {"unit": 1}

    @pytest.mark.parametrize("backend", ["json-dir", "sqlite"])
    def test_unknown_scheme_lists_the_valid_names(self, capsys, tmp_path, backend):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["cache", "clear", "--store", f"{backend}:{tmp_path}/s", "--scheme", "v1"])
        assert exit_info.value.code == 2
        assert "per-run, per-run/v1, pre-seeds, unit, unit/v1" in capsys.readouterr().err

    def test_migrate_takes_a_token(self, capsys, tmp_path, small_staircase_config):
        uri, dest = f"json-dir:{tmp_path}/source", f"sqlite:{tmp_path}/dest.db"
        _fill(uri, small_staircase_config)
        assert cli.main(["cache", "migrate", uri, dest, "--scheme", "unit/v1"]) == 0
        assert "1 entries copied" in capsys.readouterr().out
        assert _scheme_counts(dest) == {"unit": 1}
