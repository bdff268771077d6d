"""Seed schemes: versioned strategies for deriving per-run random streams.

Every sweep in this library derives the randomness of run ``run`` of cell
``seed_path`` from a single top-level ``base_seed``.  *How* that derivation
happens used to be an implicit convention spread across four layers
(``SeedSequence([base_seed, *seed_path, run])`` hand-built in the runner,
the sweeps and the benchmarks); this module makes it a first-class,
versioned strategy object -- a :class:`SeedScheme` -- so the convention is
auditable in one place and alternative schemes can ship side by side.

Two schemes are provided:

``"per-run"`` (default)
    One ``PCG64`` generator per run, seeded from
    ``SeedSequence([base_seed, *seed_path, run])``.  This reproduces the
    historical streams bit-for-bit: results are independent of how a cell
    is sharded into work units, and any executor / cache / kernel
    combination returns bit-identical arrays.  The per-run draws are the
    cost: every stochastic stage loops over runs because each run owns its
    own generator.

``"unit"``
    One *counter-based* ``Philox`` generator per work unit, keyed by
    ``SeedSequence([base_seed, *seed_path])`` and advanced to the counter
    window of the unit's first run (:data:`RUN_STRIDE` counter blocks per
    run, so distinct run ranges of one cell can never overlap streams).
    Because a whole unit shares one generator, the stream-defining draws
    that force a per-run loop under ``"per-run"`` -- transmission-model
    shuffles and choices, Gilbert sojourn geometrics, Bernoulli uniforms --
    are drawn as whole ``(runs, n)`` blocks in one call.  Results are
    deterministic and bit-identical between serial and parallel execution,
    but they are **not** bit-identical to ``"per-run"`` (the schemes draw
    different streams) and they depend on the unit sharding
    (``runs_per_unit``), which is why the scheme is part of the result
    cache key.

Scheme selection: an explicit ``seed_scheme=`` argument wins, then the
``REPRO_SEED_SCHEME`` environment variable, then :data:`DEFAULT_SCHEME`.
"""

from __future__ import annotations

import abc
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

#: Environment variable consulted when no explicit scheme is given.
ENV_VAR = "REPRO_SEED_SCHEME"

#: The historical scheme; reproduces pre-seeds streams bit-for-bit.
DEFAULT_SCHEME = "per-run"

#: Philox counter blocks reserved per run under the ``"unit"`` scheme.
#: ``Philox.advance(delta)`` moves the 256-bit counter by ``delta`` blocks
#: of four 64-bit outputs, so one run's window holds ``4 * 2**40 ~ 4.4e12``
#: draws -- orders of magnitude above what any unit consumes (a
#: paper-scale unit of 1000 runs at n = 50000 draws ~3e8 values), and the
#: 256-bit counter space fits ``2**88`` such windows.
RUN_STRIDE = 2 ** 40


@dataclass(frozen=True)
class UnitStreams:
    """The random streams of one work unit, as derived by a scheme.

    Attributes
    ----------
    scheme:
        Name of the deriving scheme.
    base_seed, seed_path, run_start, run_stop:
        The unit coordinates the streams were derived from.
    unit_rng:
        A single whole-unit generator for block draws, or ``None`` when the
        scheme only defines per-run streams (the ``"per-run"`` scheme).
        Consumers that receive ``None`` must use :meth:`run_rngs`.
    """

    scheme: str
    base_seed: int
    seed_path: Tuple[int, ...]
    run_start: int
    run_stop: int
    unit_rng: Optional[np.random.Generator]
    _run_rng: Callable[[int], np.random.Generator] = field(repr=False)

    @property
    def runs(self) -> int:
        return self.run_stop - self.run_start

    def run_rng(self, run: int) -> np.random.Generator:
        """Generator of one run, by *absolute* run index."""
        if not self.run_start <= run < self.run_stop:
            raise ValueError(
                f"run {run} outside unit range [{self.run_start}, {self.run_stop})"
            )
        return self._run_rng(run)

    def run_rngs(self) -> List[np.random.Generator]:
        """One independent generator per run of the unit, in run order."""
        return [self._run_rng(run) for run in range(self.run_start, self.run_stop)]


class SeedScheme(abc.ABC):
    """One versioned strategy for deriving a work unit's random streams.

    Schemes are stateless and picklable (work units carry only the scheme
    *name*; worker processes re-resolve it through the registry).  The
    ``(name, version)`` pair is the cache-key token: bump ``version``
    whenever a scheme's streams change, so stale cached results become
    misses instead of silently wrong hits.
    """

    #: Registry name; also what ``--seed-scheme`` / ``REPRO_SEED_SCHEME``
    #: match.
    name: str = "abstract"

    #: Stream-format version, part of the cache token.
    version: int = 1

    @abc.abstractmethod
    def unit_streams(
        self,
        base_seed: int,
        seed_path: Sequence[int],
        run_start: int,
        run_stop: int,
    ) -> UnitStreams:
        """Derive the streams of one work unit."""

    @property
    def batches_units(self) -> bool:
        """Whether the scheme provides a whole-unit generator."""
        return False

    def token(self) -> str:
        """Cache-key token identifying the scheme and its stream format."""
        return f"{self.name}/v{self.version}"

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"<{type(self).__name__} name={self.name!r} version={self.version}>"


class PerRunScheme(SeedScheme):
    """The historical scheme: one PCG64 stream per run.

    Run ``run`` of cell ``seed_path`` draws from
    ``default_rng(SeedSequence([base_seed, *seed_path, run]))`` -- exactly
    the derivation the serial sweeps and the runner have used since PR 1,
    so any result produced under this scheme is bit-identical to the
    historical streams and independent of unit sharding.
    """

    name = "per-run"
    version = 1

    def unit_streams(
        self,
        base_seed: int,
        seed_path: Sequence[int],
        run_start: int,
        run_stop: int,
    ) -> UnitStreams:
        base = int(base_seed)
        path = tuple(int(x) for x in seed_path)

        def run_rng(run: int) -> np.random.Generator:
            return np.random.default_rng(np.random.SeedSequence([base, *path, run]))

        return UnitStreams(
            scheme=self.name,
            base_seed=base,
            seed_path=path,
            run_start=int(run_start),
            run_stop=int(run_stop),
            unit_rng=None,
            _run_rng=run_rng,
        )


class UnitScheme(SeedScheme):
    """Counter-based scheme: one Philox generator per work unit.

    The cell key is derived once from ``SeedSequence([base_seed,
    *seed_path])``; run ``run`` owns the counter window starting at
    ``run * RUN_STRIDE`` blocks.  A unit covering ``[run_start, run_stop)``
    draws from one generator positioned at ``run_start``'s window, so the
    whole unit's stream fits inside the first run's window and distinct
    units of the same cell can never overlap.  Per-run generators (used by
    ``fresh_code_per_run`` and by consumers without block-draw support) are
    the same Philox advanced to each run's own window.
    """

    name = "unit"
    version = 1

    @property
    def batches_units(self) -> bool:
        return True

    def _key(self, base_seed: int, seed_path: Tuple[int, ...]) -> np.ndarray:
        # Philox4x64 takes a 2-word (128-bit) key.
        sequence = np.random.SeedSequence([int(base_seed), *seed_path])
        return sequence.generate_state(2, dtype=np.uint64)

    def _advanced(self, key: np.ndarray, blocks: int) -> np.random.Generator:
        bit_generator = np.random.Philox(key=key)
        if blocks:
            bit_generator.advance(blocks)
        return np.random.Generator(bit_generator)

    def unit_streams(
        self,
        base_seed: int,
        seed_path: Sequence[int],
        run_start: int,
        run_stop: int,
    ) -> UnitStreams:
        base = int(base_seed)
        path = tuple(int(x) for x in seed_path)
        key = self._key(base, path)
        return UnitStreams(
            scheme=self.name,
            base_seed=base,
            seed_path=path,
            run_start=int(run_start),
            run_stop=int(run_stop),
            unit_rng=self._advanced(key, int(run_start) * RUN_STRIDE),
            _run_rng=lambda run: self._advanced(key, int(run) * RUN_STRIDE),
        )


_SCHEMES: Dict[str, SeedScheme] = {}


def register_scheme(scheme: SeedScheme) -> SeedScheme:
    """Add a scheme instance to the registry (name collisions rejected)."""
    if scheme.name in _SCHEMES:
        raise ValueError(f"seed scheme {scheme.name!r} is already registered")
    _SCHEMES[scheme.name] = scheme
    return scheme


register_scheme(PerRunScheme())
register_scheme(UnitScheme())

#: ``seed_scheme=`` arguments accept a name, a scheme instance, or None.
SchemeSpec = Union[None, str, SeedScheme]


def available_schemes() -> List[str]:
    """Registered scheme names, sorted."""
    return sorted(_SCHEMES)


def resolve_scheme_name(spec: SchemeSpec = None) -> str:
    """Collapse a scheme spec to a registered name.

    ``None`` consults ``REPRO_SEED_SCHEME`` and falls back to
    :data:`DEFAULT_SCHEME`; unknown names raise ``ValueError`` (listing the
    registered schemes) no matter where they came from.  A
    :class:`SeedScheme` *instance* must be the registered one -- the
    runner layers carry schemes by name across process boundaries, so an
    unregistered instance would be silently swapped for the registered
    scheme of the same name (and cached under its token); reject it
    loudly instead.
    """
    if isinstance(spec, SeedScheme):
        if _SCHEMES.get(spec.name) is not spec:
            raise ValueError(
                f"seed scheme instance {spec!r} is not the registered "
                f"{spec.name!r} scheme; register_scheme() it (under a "
                "distinct name) before use"
            )
        return spec.name
    name = spec if spec is not None else os.environ.get(ENV_VAR) or DEFAULT_SCHEME
    if name not in _SCHEMES:
        source = "" if spec is not None else f" (from {ENV_VAR})"
        raise ValueError(
            f"unknown seed scheme {name!r}{source}; available: "
            f"{', '.join(available_schemes())}"
        )
    return name


def get_scheme(spec: SchemeSpec = None) -> SeedScheme:
    """Resolve a scheme spec (name / instance / None) to a scheme object."""
    if isinstance(spec, SeedScheme):
        resolve_scheme_name(spec)  # reject unregistered instances loudly
        return spec
    return _SCHEMES[resolve_scheme_name(spec)]


__all__ = [
    "ENV_VAR",
    "DEFAULT_SCHEME",
    "RUN_STRIDE",
    "SchemeSpec",
    "SeedScheme",
    "PerRunScheme",
    "UnitScheme",
    "UnitStreams",
    "available_schemes",
    "get_scheme",
    "register_scheme",
    "resolve_scheme_name",
]
