"""Lazy package surfaces, what a CLI run imports, and the built-in name tables.

Packages export their names through PEP 562 ``__getattr__`` and the
built-in registries hold ``"module:attr"`` strings, so an import error or
a typo in a table would otherwise only surface on first use.  These tests
resolve every exported name and every built-in entry, and pin down which
subsystems a dry run and a warm rerun are allowed to load.
"""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro._lazy import load_entry

SRC = Path(__file__).resolve().parent.parent / "src"

PACKAGES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.") if info.ispkg
)

#: Subsystems neither a storeless dry run nor a warm json-dir rerun uses.
NEVER_LOADED = (
    "repro.store.http",
    "repro.store.server",
    "repro.store.sqlite",
    "repro.store.chaos",
    "repro.store.migrate",
    "repro.adaptive",
    "repro.runner.fleet",
    "repro.flute",
    "http.client",
    "sqlite3",
    "socketserver",
    "multiprocessing",
)

#: A warm rerun reads every result from the store, so it builds no code.
NOT_LOADED_WARM = NEVER_LOADED + ("repro.fec.ldgm", "repro.galois")

_PROBE = """
import json, sys
from repro.runner import cli
code = cli.main(sys.argv[1:])
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


class TestPublicSurface:
    @pytest.mark.parametrize("name", PACKAGES)
    def test_every_export_resolves_and_is_listed(self, name):
        module = importlib.import_module(name)
        listed = dir(module)
        for export in module.__all__:
            assert getattr(module, export) is not None, export
            assert export in listed, export

    @pytest.mark.parametrize("name", PACKAGES)
    def test_star_import_binds_all(self, name):
        namespace: dict = {}
        exec(f"from {name} import *", namespace)
        module = importlib.import_module(name)
        missing = [export for export in module.__all__ if export not in namespace]
        assert not missing

    @pytest.mark.parametrize("name", PACKAGES)
    def test_unknown_attribute_names_the_module(self, name):
        module = importlib.import_module(name)
        with pytest.raises(AttributeError, match=name.replace(".", r"\.")):
            getattr(module, "no_such_attribute")

    def test_version_is_a_literal(self):
        # pyproject.toml reads ``attr = "repro.__version__"`` statically.
        tree = ast.parse(Path(repro.__file__).read_text(encoding="utf-8"))
        values = [
            node.value
            for node in tree.body
            if isinstance(node, ast.Assign)
            and any(getattr(target, "id", None) == "__version__" for target in node.targets)
        ]
        assert len(values) == 1
        assert isinstance(values[0], ast.Constant) and isinstance(values[0].value, str)
        assert values[0].value == repro.__version__


def _cli_modules(cwd: Path, *argv: str) -> list:
    """Run the CLI in a fresh interpreter; the modules loaded after ``main``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.strip().splitlines()[-1])
    assert report["code"] == 0
    return report["modules"]


def _loaded(modules: list, prefixes) -> list:
    return [
        name
        for name in modules
        if any(name == prefix or name.startswith(prefix + ".") for prefix in prefixes)
    ]


class TestImportSurface:
    def test_storeless_dry_run(self, tmp_path):
        modules = _cli_modules(
            tmp_path, "run", "fig12", "--scale", "small", "--runs", "100",
            "--no-cache", "--dry-run",
        )
        assert _loaded(modules, NEVER_LOADED) == []

    def test_warm_json_dir_rerun(self, tmp_path):
        argv = ("run", "fig09", "--scale", "tiny", "--runs", "2", "--quiet", "--csv-dir", "csv")
        _cli_modules(tmp_path, *argv)
        modules = _cli_modules(tmp_path, *argv)
        assert _loaded(modules, NOT_LOADED_WARM) == []
        assert "repro.analysis.csvio" in modules


class TestNameTables:
    def test_builtin_codes_tx_models_and_kernels_resolve(self):
        from repro.fec import registry as codes
        from repro.kernels import registry as kernels
        from repro.scheduling import registry as tx_models

        for table in (codes._REGISTRY, tx_models._REGISTRY, kernels._FACTORIES):
            for name in list(table):
                assert callable(load_entry(table, name)), name

    def test_builtin_prototype_compilers_name_code_classes(self):
        from repro.fastpath import prototypes

        for target in prototypes._COMPILERS:
            module, _, qualname = target.partition(":")
            assert isinstance(getattr(importlib.import_module(module), qualname), type)

    def test_every_builtin_store_backend_opens(self, tmp_path):
        from repro.store import ChaosStore, resolve_store
        from repro.store.registry import CHAOS_BACKENDS, _BACKENDS

        locations = {
            "json-dir": str(tmp_path / "cache"),
            "sqlite": str(tmp_path / "results.db"),
            "memory": "",
            "http": "127.0.0.1:9",
        }
        assert set(CHAOS_BACKENDS) <= set(locations)
        for name in [name for name in _BACKENDS if name in locations]:
            assert callable(load_entry(_BACKENDS, name)), name
            store = resolve_store(f"{name}:{locations[name]}")
            assert store.backend == name
            store.close()
        for name in CHAOS_BACKENDS:
            store = resolve_store(f"chaos+{name}:{locations[name]}")
            assert isinstance(store, ChaosStore)
            assert store.backend == f"chaos+{name}"
            store.close()

    def test_builtin_names_stay_reserved(self):
        from repro.fec import ReedSolomonCode, register_code
        from repro.scheduling import TxModel1, register_tx_model

        with pytest.raises(ValueError, match="already registered"):
            register_code("rse", ReedSolomonCode)
        with pytest.raises(ValueError, match="already registered"):
            register_tx_model("tx_model_1", TxModel1)

    def test_third_party_registrations_dispatch(self):
        from repro.fec import make_code, register_code
        from repro.fec.registry import _REGISTRY as codes
        from repro.scheduling import make_tx_model, register_tx_model
        from repro.scheduling.registry import _REGISTRY as tx_models

        register_code("test-third-party", lambda **kwargs: ("code", kwargs["n"]))
        register_tx_model("test-third-party", lambda **kwargs: ("tx", kwargs))
        try:
            assert make_code("test-third-party", k=4, n=6) == ("code", 6)
            assert make_tx_model("test-third-party", alpha=1) == ("tx", {"alpha": 1})
        finally:
            codes.pop("test-third-party")
            tx_models.pop("test-third-party")
