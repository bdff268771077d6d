"""Kernel-backend registry and selection.

Resolution order for :func:`get_backend`:

1. an explicit argument (a name or a ready backend instance; sweeps and
   work units pass theirs through :func:`repro.kernels.threads.kernel_scope`),
2. the ``REPRO_KERNEL`` environment variable,
3. ``auto``: ``cext`` when a C compiler is on the PATH and the library
   builds, else the ``numpy`` reference (:data:`AUTO_ORDER`).

Backends are instantiated lazily and cached per name, so the C compile is
only ever paid when the backend is actually selected.
Asking explicitly for an unavailable backend raises
:class:`KernelUnavailableError` with an actionable message instead of
silently degrading -- silent degradation is reserved for ``auto``.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Callable, Dict, Optional, Set, Tuple, Union

from repro._lazy import load_entry

if TYPE_CHECKING:  # pragma: no cover - typing only; a backend imports its base on use
    from repro.kernels.base import KernelBackend

#: Environment variable consulted when no explicit kernel is given.
ENV_VAR = "REPRO_KERNEL"

#: What :func:`get_backend` and :func:`~repro.kernels.threads.kernel_scope`
#: accept: a registry name, a ready backend instance, or None
#: (environment / auto resolution).
KernelSpec = Union[str, "KernelBackend", None]


class KernelUnavailableError(RuntimeError):
    """A known kernel backend cannot be constructed on this machine."""


#: Backend factories; built-ins are ``"module:attr"`` entries imported on
#: first use, so neither backend's module loads until it is selected.
_FACTORIES: Dict[str, Union[str, Callable[[], KernelBackend]]] = {
    "numpy": "repro.kernels.numpy_backend:NumpyBackend",
    "cext": "repro.kernels.cext:CExtBackend",
}
_INSTANCES: Dict[str, KernelBackend] = {}
#: ``auto`` candidates found unusable here (no compiler, or construction
#: failed); skipped by later ``auto`` resolutions without probing again.
_AUTO_UNUSABLE: Set[str] = set()


def register_backend(
    name: str, factory: Callable[[], KernelBackend], *, replace: bool = False
) -> None:
    """Register a backend factory under ``name`` (lowercase).

    Third-party backends registered here become selectable through
    ``REPRO_KERNEL`` / ``--kernel`` / ``kernel_scope`` like the built-ins.
    """
    key = name.strip().lower()
    if not replace and key in _FACTORIES:
        raise ValueError(f"kernel backend {key!r} is already registered")
    _FACTORIES[key] = factory
    _INSTANCES.pop(key, None)
    _AUTO_UNUSABLE.discard(key)


def cext_compiler_available() -> bool:
    """Whether a C compiler for the cext backend is on the PATH."""
    from repro.kernels.cext import compiler

    return compiler() is not None


def cext_openmp_enabled() -> Optional[bool]:
    """Whether the cext library was built with OpenMP (``None``: no cext).

    Provenance helper for BENCH entries and the CLI header: ``True`` means
    threaded peel/sojourn kernels, ``False`` the serial-fallback build
    (probe compile failed), ``None`` that the backend cannot be
    constructed here at all.
    """
    if not cext_compiler_available():
        return None
    try:
        backend = _construct("cext")
    except KernelUnavailableError:
        return None
    return bool(getattr(backend, "openmp", False))


#: ``auto`` preference order: the compiled backend first, numpy last (it
#: can never fail to construct).
AUTO_ORDER: Tuple[str, ...] = ("cext", "numpy")


def available_backends() -> Tuple[str, ...]:
    """Names selectable on this machine, in registration order.

    Availability is probed cheaply (compiler on PATH); a listed ``cext``
    can still fail to construct in degenerate environments, which
    ``auto`` degrades through and an explicit request reports as
    :class:`KernelUnavailableError`.
    """
    return tuple(
        name for name in _FACTORIES if name != "cext" or cext_compiler_available()
    )


def default_backend_name() -> str:
    """What ``auto`` resolves to on this machine."""
    usable = available_backends()
    for name in AUTO_ORDER:
        if name in usable:
            return name
    return "numpy"


def _construct(name: str) -> KernelBackend:
    instance = _INSTANCES.get(name)
    if instance is not None:
        return instance
    if name not in _FACTORIES:
        raise ValueError(
            f"unknown kernel backend {name!r}; registered: "
            f"{', '.join(sorted(_FACTORIES))}"
        )
    try:
        instance = load_entry(_FACTORIES, name)()
    except ImportError as exc:
        raise KernelUnavailableError(
            f"kernel backend {name!r} is not available on this machine "
            f"({exc}); install it or select kernel='auto' / 'numpy'"
        ) from exc
    _INSTANCES[name] = instance
    return instance


def get_backend(kernel: KernelSpec = None) -> KernelBackend:
    """Resolve a kernel spec to a backend instance (cached per name)."""
    from repro.kernels.base import KernelBackend

    if isinstance(kernel, KernelBackend):
        return kernel
    if kernel is None:
        kernel = os.environ.get(ENV_VAR, "").strip() or "auto"
    name = kernel.strip().lower()
    if name != "auto":
        return _construct(name)
    # auto: the compiled backend if it actually constructs, else numpy --
    # never an error (explicit selection is where failures surface).  Each
    # candidate is constructed or found unusable once, so the compiler
    # probe (a PATH search) does not run again for every work unit.
    for candidate in AUTO_ORDER:
        if candidate in _INSTANCES:
            return _INSTANCES[candidate]
        if candidate in _AUTO_UNUSABLE:
            continue
        try:
            if candidate == "cext" and not cext_compiler_available():
                raise KernelUnavailableError("no C compiler")
            return _construct(candidate)
        except KernelUnavailableError:
            _AUTO_UNUSABLE.add(candidate)
    return _construct("numpy")


__all__ = [
    "ENV_VAR",
    "AUTO_ORDER",
    "KernelSpec",
    "KernelUnavailableError",
    "register_backend",
    "available_backends",
    "default_backend_name",
    "cext_compiler_available",
    "cext_openmp_enabled",
    "get_backend",
]
