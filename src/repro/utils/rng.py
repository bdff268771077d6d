"""Random-number-generator helpers.

Every stochastic component of the library (channel models, schedulers,
parity-check-matrix builders, the simulator) accepts either a seed or a
``numpy.random.Generator``.  Centralising the conversion here keeps the rest
of the code base deterministic and easy to test.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

#: Quoted so that importing this module does not import ``numpy.random``.
RandomState = Union[None, int, "np.random.Generator", "np.random.SeedSequence"]


def ensure_rng(random_state: RandomState = None) -> np.random.Generator:
    """Return a ``numpy.random.Generator`` for ``random_state``.

    Parameters
    ----------
    random_state:
        ``None`` (fresh entropy), an integer seed, a ``SeedSequence`` or an
        existing ``Generator`` (returned unchanged).

    Raises
    ------
    TypeError
        If ``random_state`` is of an unsupported type.
    """
    if random_state is None:
        return np.random.default_rng()
    if isinstance(random_state, np.random.Generator):
        return random_state
    if isinstance(random_state, (int, np.integer)):
        return np.random.default_rng(int(random_state))
    if isinstance(random_state, np.random.SeedSequence):
        return np.random.default_rng(random_state)
    raise TypeError(
        f"random_state must be None, an int, a SeedSequence or a Generator, "
        f"got {type(random_state).__name__}"
    )


def spawn_rngs(random_state: RandomState, count: int) -> list[np.random.Generator]:
    """Create ``count`` statistically independent generators.

    The generators are derived from a single seed sequence so that a sweep
    over many simulation runs is reproducible from one top-level seed while
    each run still sees an independent stream.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(random_state, np.random.SeedSequence):
        seq = random_state
    elif isinstance(random_state, np.random.Generator):
        # Derive a seed sequence from the generator to keep determinism.
        # Four 63-bit words give the sequence a full 128+ bits of entropy;
        # funnelling everything through a single 63-bit draw (the original
        # code) narrowed the downstream state space enough to risk stream
        # collisions between independently spawned families.
        entropy = random_state.integers(0, 2**63 - 1, size=4)
        seq = np.random.SeedSequence([int(word) for word in entropy])
    elif random_state is None:
        seq = np.random.SeedSequence()
    else:
        seq = np.random.SeedSequence(int(random_state))
    return [np.random.default_rng(child) for child in seq.spawn(count)]


def as_seed_int(seed: RandomState) -> int:
    """Collapse any accepted seed type to a plain ``int``.

    The sweep and runner layers key their per-run ``SeedSequence`` streams
    (and the on-disk result cache) off a single integer, so every seed type
    accepted by :func:`ensure_rng` must normalise to one deterministically.
    ``None`` maps to 0 for backwards compatibility with the original sweep
    code; a ``Generator`` consumes one draw and is therefore only
    reproducible if the caller controls the generator state.
    """
    if seed is None:
        return 0
    if isinstance(seed, (int, np.integer)):
        return int(seed)
    if isinstance(seed, np.random.SeedSequence):
        return int(seed.generate_state(1, dtype=np.uint64)[0])
    if isinstance(seed, np.random.Generator):
        return int(seed.integers(0, 2**31 - 1))
    raise TypeError(f"unsupported seed type {type(seed).__name__}")


def derive_seed(random_state: RandomState, *salt: Union[int, str]) -> int:
    """Derive a deterministic integer seed from ``random_state`` and a salt.

    Useful to give named sub-components (e.g. "channel", "scheduler")
    reproducible but distinct streams.
    """
    base = 0 if random_state is None else _as_int(random_state)
    mixed = np.random.SeedSequence([base, *(_salt_to_int(s) for s in salt)])
    return int(mixed.generate_state(1, dtype=np.uint64)[0])


def _as_int(random_state: RandomState) -> int:
    if isinstance(random_state, (int, np.integer)):
        return int(random_state)
    if isinstance(random_state, np.random.Generator):
        return int(random_state.integers(0, 2**63 - 1))
    if isinstance(random_state, np.random.SeedSequence):
        return int(random_state.generate_state(1, dtype=np.uint64)[0])
    raise TypeError(f"cannot derive an integer seed from {type(random_state).__name__}")


def _salt_to_int(salt: Union[int, str]) -> int:
    if isinstance(salt, (int, np.integer)):
        return int(salt) & 0xFFFFFFFF
    return sum(ord(c) * 257**i for i, c in enumerate(salt)) & 0xFFFFFFFF


__all__ = [
    "ensure_rng",
    "spawn_rngs",
    "as_seed_int",
    "derive_seed",
    "RandomState",
]
