"""Adaptive sweeps: sequential stopping and decode-cliff refinement.

The controller in :mod:`repro.adaptive.controller` replans a (p, q) grid
sweep round by round, stopping each cell as soon as its statistics are
settled to the requested confidence, and (optionally) bisecting between
decodable/undecodable neighbours to localise the decode-probability
cliff.  Every round plans ordinary work units through the existing
engine, so results cache, lease, and fleet exactly like a fixed sweep --
and are bit-identical to one truncated at the same per-cell run counts.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "controller": (
        "AdaptiveConfig AdaptiveSpec adaptive_grid adaptive_grids plan_first_round "
        "resolve_adaptive round_schedule"
    ),
})

__all__ = [
    "AdaptiveConfig",
    "AdaptiveSpec",
    "adaptive_grid",
    "adaptive_grids",
    "plan_first_round",
    "resolve_adaptive",
    "round_schedule",
]
