"""Versioned seed-scheme subsystem.

Makes run-stream derivation a first-class, versioned strategy object: the
``"per-run"`` scheme reproduces the historical
``SeedSequence([base_seed, *seed_path, run])`` streams bit-for-bit (as a
lazy :class:`RunStreams` block that compiled kernels seed and draw in C),
while
the counter-based ``"unit"`` scheme derives one Philox generator per work
unit so stochastic stages can draw whole ``(runs, n)`` blocks in one call.
See :mod:`repro.seeds.schemes` for the scheme contract and selection rules.
"""

from repro.seeds.schemes import (
    DEFAULT_SCHEME,
    ENV_VAR,
    RUN_STRIDE,
    PerRunScheme,
    RunStreams,
    SchemeSpec,
    SeedScheme,
    UnitScheme,
    UnitStreams,
    available_schemes,
    get_scheme,
    register_scheme,
    resolve_scheme_name,
)

__all__ = [
    "DEFAULT_SCHEME",
    "ENV_VAR",
    "RUN_STRIDE",
    "PerRunScheme",
    "RunStreams",
    "SchemeSpec",
    "SeedScheme",
    "UnitScheme",
    "UnitStreams",
    "available_schemes",
    "get_scheme",
    "register_scheme",
    "resolve_scheme_name",
]
