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
    One ``PCG64`` stream per run, seeded from
    ``SeedSequence([base_seed, *seed_path, run])``.  This reproduces the
    historical streams bit-for-bit: results are independent of how a cell
    is sharded into work units, and any executor / cache / kernel
    combination returns bit-identical arrays.  A unit's streams come as
    one lazy :class:`RunStreams` block: on the ``cext`` kernel
    ``tx_model_1`` to ``tx_model_5`` and the Gilbert channel seed and draw
    it in C, one ``(runs, 6)`` array of PCG64 states, with no Python
    generator per run;
    every other consumer indexes the block and gets the historical
    ``Generator`` of each run.

``"unit"``
    One *counter-based* ``Philox`` generator per work unit, keyed by
    ``SeedSequence([base_seed, *seed_path])`` and advanced to the counter
    window of the unit's first run (:data:`RUN_STRIDE` counter blocks per
    run, so distinct run ranges of one cell can never overlap streams).
    Because a whole unit shares one generator, the stream-defining draws
    that ``"per-run"`` takes from each run's own stream -- transmission-model
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
from collections.abc import Sequence as SequenceABC
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


def validate_coordinates(
    base_seed: int, seed_path: Sequence[int], run_start: int, run_stop: int
) -> Tuple[int, Tuple[int, ...], int, int]:
    """Normalise a unit's stream coordinates to ints, rejecting bad ones.

    Every coordinate feeds a ``SeedSequence`` entropy word (or the C port
    of it), so each must be a non-negative integer; the error names the
    offending coordinate instead of surfacing from deep inside a unit.
    """
    base = int(base_seed)
    if base < 0:
        raise ValueError(f"base_seed must be a non-negative integer, got {base}")
    path = tuple(int(x) for x in seed_path)
    for index, value in enumerate(path):
        if value < 0:
            raise ValueError(
                f"seed_path[{index}] must be a non-negative integer, got {value}"
            )
    start, stop = int(run_start), int(run_stop)
    if start < 0:
        raise ValueError(f"run_start must be a non-negative integer, got {start}")
    if stop < start:
        raise ValueError(f"run_stop ({stop}) must not be below run_start ({start})")
    return base, path, start, stop


def entropy_words(values: Sequence[int]) -> np.ndarray:
    """``SeedSequence``'s entropy words of non-negative ``values``.

    Each value contributes its 32-bit words, least significant first (one
    word for 0), exactly as ``SeedSequence`` coerces a list of ints.
    """
    words: List[int] = []
    for value in values:
        if value < 0:
            raise ValueError(f"entropy values must be non-negative, got {value}")
        words.append(value & 0xFFFFFFFF)
        value >>= 32
        while value:
            words.append(value & 0xFFFFFFFF)
            value >>= 32
    return np.array(words, dtype=np.uint32)


def per_run_generator(
    base_seed: int, seed_path: Tuple[int, ...], run: int
) -> np.random.Generator:
    """The ``"per-run"`` scheme's generator of one run."""
    return np.random.default_rng(np.random.SeedSequence([base_seed, *seed_path, run]))


def pcg64_state(row: np.ndarray) -> dict:
    """``PCG64.state`` of one :class:`RunStreams` state row."""
    words = [int(word) for word in row]
    return {
        "bit_generator": "PCG64",
        "state": {
            "state": (words[0] << 64) | words[1],
            "inc": (words[2] << 64) | words[3],
        },
        "has_uint32": words[4],
        "uinteger": words[5],
    }


class RunStreams(SequenceABC):
    """The per-run PCG64 streams of one unit, as one lazy block.

    Indexing or iterating yields each run's historical generator,
    ``default_rng(SeedSequence([base_seed, *seed_path, run]))``, built on
    first access and kept.  Alternatively a kernel backend that draws
    from stream blocks (``stream_blocks``) is bound once, before any draw
    (:meth:`bind`): it then seeds the unit's ``(runs, 6)`` ``uint64``
    array of PCG64 states on first use (:meth:`states`: LCG state and
    increment as high/low words, ``has_uint32``, ``uinteger``) and draws
    on the rows in place.  Nothing is seeded until some stage draws.

    The two forms never diverge: a generator materialised after block
    draws starts from its row's current state (buffered ``uint32``
    included), and from then on the generators own the streams -- the
    block is unbound, and :meth:`bind` refuses once any generator exists.
    """

    def __init__(
        self, base_seed: int, seed_path: Sequence[int], run_start: int, run_stop: int
    ) -> None:
        self.base_seed, self.seed_path, self.run_start, self.run_stop = (
            validate_coordinates(base_seed, seed_path, run_start, run_stop)
        )
        #: The backend drawing from the block, or None (generators serve).
        self.kernel = None
        self._states: Optional[np.ndarray] = None
        self._generators: List[Optional[np.random.Generator]] = [None] * len(self)

    def __len__(self) -> int:
        return self.run_stop - self.run_start

    def __getitem__(self, index: int) -> np.random.Generator:
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("run index out of range")
        rng = self._generators[index]
        if rng is None:
            if self._states is None:
                rng = per_run_generator(
                    self.base_seed, self.seed_path, self.run_start + index
                )
            else:
                rng = np.random.Generator(np.random.PCG64())
                rng.bit_generator.state = pcg64_state(self._states[index])
            self._generators[index] = rng
            self.kernel = None
        return rng

    def bind(self, kernel) -> bool:
        """Draw from the block with ``kernel``; False when it cannot.

        Call once per unit, before any draw: a backend without compiled
        stream kernels, or a generator already handed out, keeps the
        generators in charge.
        """
        if not getattr(kernel, "stream_blocks", False):
            return False
        if any(rng is not None for rng in self._generators):
            return False
        self.kernel = kernel
        return True

    def states(self) -> np.ndarray:
        """The block of PCG64 states, seeded by the bound kernel on first use."""
        if self.kernel is None:
            raise RuntimeError("no kernel bound to these run streams")
        if self._states is None:
            prefix = entropy_words((self.base_seed, *self.seed_path))
            self._states = self.kernel.seed_streams(prefix, self.run_start, len(self))
        return self._states


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
    _run_rngs: Optional[Callable[[], Sequence[np.random.Generator]]] = field(
        default=None, repr=False
    )

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

    def run_rngs(self) -> Sequence[np.random.Generator]:
        """One independent generator per run of the unit, in run order.

        The ``"per-run"`` scheme returns a lazy :class:`RunStreams` block.
        """
        if self._run_rngs is not None:
            return self._run_rngs()
        return [self._run_rng(run) for run in range(self.run_start, self.run_stop)]


class SeedScheme(abc.ABC):
    """One versioned strategy for deriving a work unit's random streams.

    Schemes are stateless (work units carry only the scheme *name*; the
    process that executes a unit re-resolves it through the registry).  The
    ``(name, version)`` pair is the cache-key token: bump ``version``
    whenever a scheme's streams change, so stale cached results become
    misses instead of silently wrong hits.
    """

    #: Registry name; also what ``--seed-scheme`` / ``REPRO_SEED_SCHEME``
    #: match.
    name: str = "abstract"

    #: Stream-format version, part of the cache token.
    version: int = 1

    #: Whether a run's streams are independent of how its cell is split
    #: into units.  Planners may then size units freely; otherwise the
    #: unit boundaries are part of the stream definition.  For the
    #: registered schemes it is the inverse of :attr:`batches_units`: a
    #: scheme drawing a whole unit from one generator is cut by its units.
    chunk_invariant: bool = False

    @abc.abstractmethod
    def unit_streams(
        self,
        base_seed: int,
        seed_path: Sequence[int],
        run_start: int,
        run_stop: int,
    ) -> UnitStreams:
        """Derive the streams of one work unit.

        Implementations check the coordinates eagerly with
        :func:`validate_coordinates` (``ValueError`` naming the bad one).
        """

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
    the derivation the serial sweeps and the runner have always used, so
    any result produced under this scheme is bit-identical to the
    historical streams and independent of unit sharding.  The unit's
    streams come as one lazy :class:`RunStreams` block.
    """

    name = "per-run"
    version = 1
    chunk_invariant = True

    def unit_streams(
        self,
        base_seed: int,
        seed_path: Sequence[int],
        run_start: int,
        run_stop: int,
    ) -> UnitStreams:
        base, path, start, stop = validate_coordinates(
            base_seed, seed_path, run_start, run_stop
        )
        return UnitStreams(
            scheme=self.name,
            base_seed=base,
            seed_path=path,
            run_start=start,
            run_stop=stop,
            unit_rng=None,
            _run_rng=lambda run: per_run_generator(base, path, run),
            _run_rngs=lambda: RunStreams(base, path, start, stop),
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
        base, path, start, stop = validate_coordinates(
            base_seed, seed_path, run_start, run_stop
        )
        key = self._key(base, path)
        return UnitStreams(
            scheme=self.name,
            base_seed=base,
            seed_path=path,
            run_start=start,
            run_stop=stop,
            unit_rng=self._advanced(key, start * RUN_STRIDE),
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
    "RunStreams",
    "UnitScheme",
    "UnitStreams",
    "available_schemes",
    "entropy_words",
    "pcg64_state",
    "per_run_generator",
    "validate_coordinates",
    "get_scheme",
    "register_scheme",
    "resolve_scheme_name",
]
