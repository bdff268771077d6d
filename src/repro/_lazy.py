"""Import on first use: lazy package surfaces and name-table entries.

A package ``__init__`` names the submodule that defines each public name;
:func:`lazy_exports` returns the PEP 562 ``__getattr__`` / ``__dir__``
pair that imports that submodule the first time the name is read and
keeps the value on the package.  Built-in registries (FEC codes,
transmission models, store and kernel backends) hold ``"module:attr"``
strings that :func:`load_entry` imports the first time the entry is used,
so ``import repro`` loads only what a command touches.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, MutableMapping, Tuple


def lazy_exports(
    package: str, exports: Dict[str, str]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """PEP 562 hooks for ``package``; ``exports`` maps submodule -> names.

    Names are space-separated.  Call it from the package ``__init__``.
    """
    namespace = vars(sys.modules[package])
    home = {name: module for module, names in exports.items() for name in names.split()}

    def __getattr__(name: str) -> Any:
        if name not in home:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(
            importlib.import_module(f"{package}.{home[name]}"), name
        )
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(home))

    return __getattr__, __dir__


def load_entry(table: MutableMapping[str, Any], name: str) -> Any:
    """``table[name]``, importing a ``"module:attr"`` entry on first use."""
    entry = table[name]
    if isinstance(entry, str):
        module, _, attr = entry.partition(":")
        entry = table[name] = getattr(importlib.import_module(module), attr)
    return entry
