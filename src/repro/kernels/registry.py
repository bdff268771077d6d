"""Kernel-backend registry and selection.

Resolution order for :func:`get_backend`:

1. an explicit ``kernel=`` argument (a name or a ready backend instance),
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

import logging
import os
from typing import Callable, Dict, Optional, Tuple, Union

from repro.kernels.base import KernelBackend

logger = logging.getLogger("repro.kernels")

#: Environment variable consulted when no explicit kernel is given.
ENV_VAR = "REPRO_KERNEL"

#: ``kernel=`` arguments accepted everywhere: a registry name, a ready
#: backend instance, or None (environment / auto resolution).
KernelSpec = Union[str, KernelBackend, None]


class KernelUnavailableError(RuntimeError):
    """A known kernel backend cannot be constructed on this machine."""


_FACTORIES: Dict[str, Callable[[], KernelBackend]] = {}
_INSTANCES: Dict[str, KernelBackend] = {}


def register_backend(
    name: str, factory: Callable[[], KernelBackend], *, replace: bool = False
) -> None:
    """Register a backend factory under ``name`` (lowercase).

    Third-party backends registered here become selectable through
    ``REPRO_KERNEL`` / ``--kernel`` / ``kernel=`` like the built-ins.
    """
    key = name.strip().lower()
    if not replace and key in _FACTORIES:
        raise ValueError(f"kernel backend {key!r} is already registered")
    _FACTORIES[key] = factory
    _INSTANCES.pop(key, None)


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
    factory = _FACTORIES.get(name)
    if factory is None:
        raise ValueError(
            f"unknown kernel backend {name!r}; registered: "
            f"{', '.join(sorted(_FACTORIES))}"
        )
    try:
        instance = factory()
    except ImportError as exc:
        raise KernelUnavailableError(
            f"kernel backend {name!r} is not available on this machine "
            f"({exc}); install it or select kernel='auto' / 'numpy'"
        ) from exc
    _INSTANCES[name] = instance
    return instance


def get_backend(kernel: KernelSpec = None) -> KernelBackend:
    """Resolve a kernel spec to a backend instance (cached per name)."""
    if isinstance(kernel, KernelBackend):
        return kernel
    if kernel is None:
        kernel = os.environ.get(ENV_VAR, "").strip() or "auto"
    name = kernel.strip().lower()
    if name != "auto":
        return _construct(name)
    # auto: the compiled backend if it actually constructs, else numpy --
    # never an error (explicit selection is where failures surface).
    for candidate in AUTO_ORDER:
        if candidate == "cext" and not cext_compiler_available():
            continue
        try:
            return _construct(candidate)
        except KernelUnavailableError:
            continue
    return _construct("numpy")


def get_backend_for_run(kernel: KernelSpec = None) -> KernelBackend:
    """Resolve a kernel for an *already running* sweep, degrading on failure.

    Planning-time resolution (:func:`get_backend`) fails fast so a typo'd
    ``--kernel`` aborts before any simulation.  At run time the trade-off
    flips: a backend that resolved on the coordinator can still fail to
    construct in a worker process (no C compiler on this host), and
    aborting a half-finished sweep over a wall-clock knob would throw
    away work.  All kernel backends are bit-identical, so the safe move
    is to fall back down the ``auto`` chain with a logged warning and
    keep the results flowing.
    """
    try:
        return get_backend(kernel)
    except (KernelUnavailableError, ValueError) as error:
        requested = kernel
        if requested is None:
            requested = os.environ.get(ENV_VAR, "").strip() or "auto"
        logger.warning(
            "kernel backend %r failed to construct at run time (%s); "
            "falling back to auto selection",
            requested,
            error,
        )
        # ``auto`` never raises; it degrades through AUTO_ORDER down to
        # numpy.  Passed explicitly so a broken REPRO_KERNEL value is
        # not consulted a second time.
        return get_backend("auto")


def _numpy_factory() -> KernelBackend:
    from repro.kernels.numpy_backend import NumpyBackend

    return NumpyBackend()


def _cext_factory() -> KernelBackend:
    from repro.kernels.cext import CExtBackend

    return CExtBackend()


register_backend("numpy", _numpy_factory)
register_backend("cext", _cext_factory)


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
    "get_backend_for_run",
]
