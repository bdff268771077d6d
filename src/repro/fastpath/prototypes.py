"""Precompiled decoder prototypes: per-code state built once, used per batch.

A prototype captures everything about a FEC code that the symbolic decoder
would otherwise rebuild for every simulated run -- CSR adjacency, initial
per-row peeling state, block membership tables -- and exposes one operation:

``decode_batch(received) -> (decoded, n_necessary)``

for a whole batch of runs at once.  The results are bit-identical to feeding
each run's received sequence through the incremental
:class:`repro.fec.base.SymbolicDecoder` and stopping at the first packet
that completes decoding (:meth:`repro.core.simulator.Simulator.run`):

* **MDS block codes (RSE)** -- a block decodes exactly when ``k_b`` distinct
  packets of it have arrived, so ``n_necessary`` is the arrival position of
  the packet that completes the last block; the counting loop runs on the
  selected :mod:`repro.kernels` backend (one compiled pass per run on
  cext, first-arrival order statistics on numpy).
* **Repetition** -- same counting rule with "block" replaced by "source id".
* **LDGM family** -- the prototype precompiles the adjacency (CSR both
  ways, a padded column table, packed count|sum peeling words) and detects
  the bidiagonal staircase/triangle parity structure; the *decode loops*
  run on a pluggable :mod:`repro.kernels` backend (vectorised numpy
  reference, compiled C) selected via ``kernel=`` /
  ``REPRO_KERNEL``.
* **Anything else** -- a fallback prototype replays the incremental decoder
  so the fast path is safe for codes registered by third parties.

Prototypes are cached on the code instance per kernel backend: compiling is
itself vectorised and cheap, but a work unit should pay for it once, not
per run.
"""

from __future__ import annotations

import abc
import threading
from typing import Callable, Dict, Sequence, Tuple, Type, Union

import numpy as np

from repro.fec.base import FECCode
from repro.kernels import (
    COUNT_SHIFT,
    NOT_DECODED,
    KernelSpec,
    ReceivedBatch,
    get_backend,
)

#: What ``decode_batch`` accepts: per-run index arrays or a ready batch.
ReceivedInput = Union[Sequence[np.ndarray], ReceivedBatch]


class DecoderPrototype(abc.ABC):
    """Batch decoder for one FEC code instance."""

    def __init__(self, code: FECCode, kernel: KernelSpec = None):
        self.code = code
        self.k = code.k
        self.n = code.n
        self.kernel = get_backend(kernel)

    @abc.abstractmethod
    def decode_batch(
        self, received: ReceivedInput
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Decode a batch of runs given each run's received index sequence.

        Parameters
        ----------
        received:
            One 1-D ``int64`` array per run -- the global packet indices the
            receiver got, in arrival order (duplicates allowed) -- or an
            already-flattened :class:`~repro.kernels.ReceivedBatch`.

        Returns
        -------
        decoded:
            Boolean array, one entry per run.
        n_necessary:
            ``int64`` array: the 1-based arrival position of the packet that
            completed decoding, or :data:`NOT_DECODED` for failed runs.
        """


# ---------------------------------------------------------------------------
# Block-count prototypes: MDS blocks and repetition.
# ---------------------------------------------------------------------------


class BlockCountPrototype(DecoderPrototype):
    """Batch decoder for codes where decoding is a counting rule.

    Covers every code whose completion condition is "each group ``g`` has
    received ``needed[g]`` distinct keys", where a packet's key is its
    index modulo :attr:`key_modulus`: RSE blocks (modulus ``n``, so key =
    packet index, group = block) and repetition (modulus ``k``, so key =
    group = source id).  The decode runs on the prototype's
    :class:`~repro.kernels.KernelBackend` (``block_count_decode_batch``):

    * the ``cext`` backend walks each run's received sequence once with a
      seen-key byte map and a per-group missing counter, stopping at the
      packet that closes the last open group;
    * the ``numpy`` backend reduces the batch to order statistics over a
      ``(runs, keys)`` first-arrival table, using the regrouping tables
      built here (:attr:`gather`, :attr:`classes`, :attr:`impossible`).
    """

    def __init__(
        self,
        code: FECCode,
        group_of_key: np.ndarray,
        needed: np.ndarray,
        kernel: KernelSpec = None,
    ):
        super().__init__(code, kernel)
        self.group_of_key = np.ascontiguousarray(group_of_key, dtype=np.int64)
        self.needed = np.ascontiguousarray(needed, dtype=np.int64)
        #: Size of the key space; a packet's key is its index modulo this.
        self.key_modulus = int(self.group_of_key.size)
        self.num_groups = int(self.needed.size)
        if self.group_of_key.size and (
            self.group_of_key.min() < 0 or self.group_of_key.max() >= self.num_groups
        ):
            # The kernels index per-group counters by these ids.
            raise ValueError(f"group ids outside [0, {self.num_groups})")
        self.gather = None
        self.classes = None
        self.impossible = None
        if self.kernel.stacks_batches:
            self._build_order_statistic_tables()

    def _build_order_statistic_tables(self) -> None:
        """Regrouping tables of the numpy first-arrival table decode."""
        group_sizes = np.bincount(self.group_of_key, minlength=self.num_groups)
        width = int(group_sizes.max()) if group_sizes.size else 0
        #: (groups, width) table of key ids, padded with the sentinel key
        #: ``key_modulus`` (the position table's extra never-arrived column).
        gather = np.full((self.num_groups, width), self.key_modulus, dtype=np.int64)
        order = np.argsort(self.group_of_key, kind="stable")
        starts = np.zeros(self.num_groups, dtype=np.int64)
        np.cumsum(group_sizes[:-1], out=starts[1:])
        slot = np.arange(order.size, dtype=np.int64) - np.repeat(starts, group_sizes)
        gather[self.group_of_key[order], slot] = order
        self.gather = gather
        #: Groups sharing a ``needed`` value are partitioned together.
        self.classes = [
            (int(value), np.nonzero(self.needed == value)[0])
            for value in np.unique(self.needed)
        ]
        #: A group that needs more distinct keys than it has can never be
        #: reached; its order statistic would index out of the padded row.
        self.impossible = np.nonzero(self.needed > group_sizes)[0]

    def decode_batch(
        self, received: ReceivedInput
    ) -> Tuple[np.ndarray, np.ndarray]:
        return self.kernel.block_count_decode_batch(
            self, ReceivedBatch.coerce(received)
        )


def compile_rse_prototype(code: FECCode, kernel: KernelSpec = None) -> BlockCountPrototype:
    """RSE: a block decodes once ``k_b`` distinct packets of it arrived."""
    layout = code.layout
    block_of = np.empty(layout.n, dtype=np.int64)
    needed = np.empty(layout.num_blocks, dtype=np.int64)
    for block in layout.blocks:
        block_of[block.source_indices] = block.block_id
        block_of[block.parity_indices] = block.block_id
        needed[block.block_id] = block.k
    return BlockCountPrototype(code, group_of_key=block_of, needed=needed, kernel=kernel)


def compile_repetition_prototype(
    code: FECCode, kernel: KernelSpec = None
) -> BlockCountPrototype:
    """Repetition: decoding completes once all ``k`` sources were seen."""
    k = code.k
    return BlockCountPrototype(
        code,
        group_of_key=np.zeros(k, dtype=np.int64),
        needed=np.array([k], dtype=np.int64),
        kernel=kernel,
    )


# ---------------------------------------------------------------------------
# LDGM: precompiled peeling arrays, decoded by the selected kernel backend.
# ---------------------------------------------------------------------------


class LDGMPrototype(DecoderPrototype):
    """Precompiled peeling-decoder state over the code's CSR arrays.

    The prototype owns everything shape-dependent -- row/column CSR
    adjacency, the padded column table, the packed ``count << 40 | id_sum``
    row words, the bidiagonal-chain detection -- and delegates the decode
    loops to its :class:`~repro.kernels.KernelBackend`:

    * the ``numpy`` backend runs a lockstep gallop+bisect search for the
      smallest decodable prefix of every run, batch-peeling only delta
      packets from checkpointed state, with a chain-aware cascade that
      resolves whole staircase reveal chains in one scan;
    * the ``cext`` backend replays the incremental peel run by run (the
      compiled form needs no batching to be fast).

    All backends return bit-identical ``(decoded, n_necessary)`` arrays.
    """

    def __init__(self, code: FECCode, kernel: KernelSpec = None):
        super().__init__(code, kernel)
        matrix = code.matrix
        self.num_checks = matrix.num_checks
        self.row_ptr, self.row_cols = matrix.row_csr()
        self.row_degrees = matrix.row_degrees()
        self.col_indptr, self.col_rows = matrix.column_adjacency()
        self.num_edges = int(self.row_cols.size)
        row_sums = (
            np.add.reduceat(self.row_cols, self.row_ptr[:-1])
            if self.row_cols.size
            else np.zeros(self.num_checks, dtype=np.int64)
        )
        row_sums[self.row_degrees == 0] = 0
        self.row_sums = row_sums
        #: Per-node degree, for the cascade's exact CSR edge expansion.
        self.col_degrees = np.diff(self.col_indptr)
        self.row_packed = None
        self.col_rows_padded = None
        self.chain_expected = None
        self.parity_extra_indptr = None
        self.parity_extra_rows = None
        self.parity_extra_degrees = None
        if self.kernel.stacks_batches:
            # Only the numpy lockstep cascade works on packed count|sum
            # words; the per-run loop backends keep counts and sums in
            # separate int64 arrays and have no size bound, so the packed
            # constraint must not force them onto the incremental fallback.
            if self.row_cols.size and int(self.row_cols.max()) * int(
                self.row_degrees.max()
            ) >= 1 << COUNT_SHIFT:
                raise ValueError(
                    "code too large for the packed peeling state "
                    f"(id sums must stay below 2**{COUNT_SHIFT})"
                )
            self.row_packed = (self.row_degrees << COUNT_SHIFT) + row_sums
            #: Degenerate matrices can carry rows whose INITIAL unknown
            #: count is already 1; the incremental decoder never peels
            #: from them (rows are only examined on decrement), so the
            #: cascade's full-state trigger scan must ignore them until
            #: they are actually touched.
            self.has_unit_rows = bool((self.row_degrees == 1).any())
            self.col_rows_padded = self._build_padded_adjacency()
            self.chain_expected = self._detect_chain()
            if self.chain_expected is not None:
                self.parity_extra_indptr, self.parity_extra_rows = (
                    self._build_parity_extras()
                )
                self.parity_extra_degrees = np.diff(self.parity_extra_indptr)

    @property
    def chain_aware(self) -> bool:
        """Whether the bidiagonal parity chain was detected (and exploited)."""
        return self.chain_expected is not None

    #: Build the dense padded column table only while its ghost slots stay
    #: a modest fraction of the real edges; beyond that (triangle parities
    #: can sit in many below-diagonal rows) the exact CSR expansion wins.
    _PADDING_WASTE_LIMIT = 1.35

    def _build_padded_adjacency(self):
        """Dense ``(n, max_degree)`` column table, or None when wasteful.

        Node degrees of the staircase are tiny and near-uniform
        (``left_degree`` for sources, <= 2 for parities), so a dense table
        turns the cascade's per-round CSR expansion into one fancy-indexing
        gather.  Ghost slots of low-degree nodes point at the per-run
        *sentinel row* (local index ``num_checks``), whose unknown count
        starts astronomically high: updates land there harmlessly.  Skipped
        when padding would inflate the edge traffic past
        :attr:`_PADDING_WASTE_LIMIT` (the numpy cascade then expands exact
        CSR edge lists instead) or when the code is so large that a
        cascade's ghost hits could dent the sentinel's count headroom.
        """
        degrees = self.col_degrees
        max_degree = int(degrees.max()) if degrees.size else 0
        if max_degree == 0:
            return None
        if self.n * max_degree > self._PADDING_WASTE_LIMIT * self.num_edges:
            return None
        if self.n * max_degree >= 1 << 21:
            # Keep the sentinel's 2**22 initial count far above the ghost
            # decrements one cascade can apply.
            return None
        padded = np.full((self.n, max_degree), self.num_checks, dtype=np.int64)
        node_ids = np.repeat(np.arange(self.n, dtype=np.int64), degrees)
        slot = np.arange(self.col_rows.size, dtype=np.int64) - np.repeat(
            self.col_indptr[:-1], degrees
        )
        padded[node_ids, slot] = self.col_rows
        return padded

    def _detect_chain(self):
        """Detect the staircase/triangle bidiagonal parity structure.

        From the row CSR only: every check row ``j`` must contain its own
        parity column ``k + j`` and (for ``j >= 1``) the previous one
        ``k + j - 1``, and no column above ``k + j``.  Under those
        constraints the packed word ``2 << COUNT_SHIFT | (2k + 2j - 1)`` is
        achieved *only* by the unknown pair ``{k+j-1, k+j}`` -- any other
        2-subset of the row's columns sums strictly lower (two sources stay
        below ``2k - 2``; an extra below-diagonal parity plus either
        staircase parity misses the sum by at least one) -- which is what
        makes the O(1) chain-eligibility test of the numpy cascade sound.

        Returns the per-row expected words (with impossible ``-1`` entries
        for row 0 and the sentinel slot), or ``None`` when the structure
        does not hold (plain LDGM, third-party matrices).
        """
        num_checks = self.num_checks
        k = self.k
        if num_checks < 2 or self.row_cols.size == 0:
            return None
        row_ids = np.repeat(
            np.arange(num_checks, dtype=np.int64), self.row_degrees
        )
        cols = self.row_cols
        own = np.zeros(num_checks, dtype=bool)
        own[row_ids[cols == row_ids + k]] = True
        previous = np.zeros(num_checks, dtype=bool)
        previous[row_ids[cols == row_ids + k - 1]] = True
        if not (own.all() and previous[1:].all()):
            return None
        if (cols > row_ids + k).any():
            return None
        expected = (np.int64(2) << COUNT_SHIFT) + (
            2 * k - 1 + 2 * np.arange(num_checks, dtype=np.int64)
        )
        expected[0] = -1  # row 0 has no previous parity; never chain-eligible
        return np.concatenate([expected, np.array([-1], dtype=np.int64)])

    def _build_parity_extras(self) -> Tuple[np.ndarray, np.ndarray]:
        """CSR of each parity's check rows *beyond* its bidiagonal pair.

        A resolved chain stretch is applied to the peeling state directly:
        every bidiagonal edge of a stretch parity lands inside the stretch
        (rows zero out) or on one of its two boundary rows.  What remains
        are the extra below-diagonal entries of the triangle -- parity
        ``t`` may also sit in rows ``r >= t + 2`` -- which the cascade
        routes through this CSR.  (An extra edge can never point into
        another stretch: a chain-eligible row's extra parity is already
        known.)  Empty for the pure staircase.
        """
        num_checks, k = self.num_checks, self.k
        start = self.col_indptr[k]
        flat_rows = self.col_rows[start:]
        parity_of_edge = np.repeat(
            np.arange(num_checks, dtype=np.int64), self.col_degrees[k:]
        )
        extra = (flat_rows != parity_of_edge) & (
            flat_rows != parity_of_edge + 1
        )
        extra_rows = flat_rows[extra]
        counts = np.bincount(parity_of_edge[extra], minlength=num_checks)
        indptr = np.zeros(num_checks + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return indptr, extra_rows

    def decode_batch(
        self, received: ReceivedInput
    ) -> Tuple[np.ndarray, np.ndarray]:
        return self.kernel.ldgm_decode_batch(self, ReceivedBatch.coerce(received))


def compile_ldgm_prototype(code: FECCode, kernel: KernelSpec = None) -> DecoderPrototype:
    try:
        return LDGMPrototype(code, kernel)
    except ValueError:
        # Only the numpy lockstep backend has the packed-word size bound
        # (hit around n in the millions, far outside the paper's range);
        # it falls back to the incremental replay there, while the
        # per-run loop backends never raise and keep their fast peel.
        return IncrementalPrototype(code, kernel)


class IncrementalPrototype(DecoderPrototype):
    """Fallback for codes without a vectorised prototype.

    Replays each run through the code's own incremental symbolic decoder --
    no speedup, but it keeps the fast path safe for every registered
    code and is also the reference the equivalence tests compare against.
    """

    def decode_batch(
        self, received: ReceivedInput
    ) -> Tuple[np.ndarray, np.ndarray]:
        batch = ReceivedBatch.coerce(received)
        decoded = np.zeros(batch.num_runs, dtype=bool)
        n_necessary = np.full(batch.num_runs, NOT_DECODED, dtype=np.int64)
        for run, indices in enumerate(batch.sequences()):
            decoder = self.code.new_symbolic_decoder()
            for count, index in enumerate(indices, start=1):
                if decoder.add_packet(index):
                    n_necessary[run] = count
                    break
            decoded[run] = decoder.is_complete
        return decoded, n_necessary


# ---------------------------------------------------------------------------
# Registry: code class -> prototype compiler.
# ---------------------------------------------------------------------------

PrototypeCompiler = Callable[[FECCode, KernelSpec], DecoderPrototype]

#: Keyed by ``"module:qualname"`` of the code class, so the built-in
#: entries import no code module until a code of that class exists.
_COMPILERS: Dict[str, PrototypeCompiler] = {
    "repro.fec.rse.object_codec:ReedSolomonCode": compile_rse_prototype,
    "repro.fec.repetition:RepetitionCode": compile_repetition_prototype,
    **{
        f"repro.fec.ldgm.code:{name}": compile_ldgm_prototype
        for name in ("LDGMCode", "LDGMStaircaseCode", "LDGMTriangleCode")
    },
}

#: Attribute under which compiled prototypes are cached on code instances
#: (one per kernel backend name).
_CACHE_ATTR = "_fastpath_prototypes"

#: Attribute naming a code instance's *semantic* identity (a hashable
#: token set by :func:`set_prototype_memo_token`).  Two instances with
#: the same token were built by the same pure function of (config, seed)
#: and therefore compile to interchangeable prototypes.
_MEMO_TOKEN_ATTR = "_fastpath_memo_token"

#: Module-level memo of compiled prototypes keyed by (code identity,
#: backend name).  The per-instance cache above already avoids recompiles
#: while a code object stays alive; this map survives the instance, so a
#: worker that rebuilds an identical code (resumed sweeps, repeated units
#: after a code-cache eviction) reuses the compiled prototype instead of
#: recompiling.  Insertion-ordered with FIFO eviction; guarded by a lock
#: for thread-executor workers.
_PROTOTYPE_MEMO: Dict[Tuple[object, str], DecoderPrototype] = {}
_PROTOTYPE_MEMO_MAX = 64
_PROTOTYPE_MEMO_LOCK = threading.Lock()


def set_prototype_memo_token(code: FECCode, token: object) -> None:
    """Tag a code instance with its semantic identity for prototype reuse.

    ``token`` must be hashable and must fully determine the code's
    structure (the runner uses its shared-code cache key: config token +
    code seed).  Tagged codes share compiled prototypes across instances
    through the module-level memo; untagged codes keep the per-instance
    cache only.
    """
    setattr(code, _MEMO_TOKEN_ATTR, token)


def register_prototype_compiler(
    code_cls: Type[FECCode], compiler: PrototypeCompiler
) -> None:
    """Register a prototype compiler for a code class (and its subclasses).

    ``compiler`` is called as ``compiler(code, kernel)`` where ``kernel``
    is the resolved-or-None kernel spec the caller selected.
    """
    _COMPILERS[f"{code_cls.__module__}:{code_cls.__qualname__}"] = compiler


def compile_prototype(code: FECCode, kernel: KernelSpec = None) -> DecoderPrototype:
    """Return the (cached) batch-decoder prototype for a code instance.

    Prototypes are cached per kernel backend, so switching ``kernel=`` (or
    ``REPRO_KERNEL``) between calls compiles at most once per backend.
    Codes tagged with :func:`set_prototype_memo_token` additionally share
    prototypes across semantically identical instances via a module-level
    memo, so one worker never recompiles the same (code, backend) pair --
    even when the instance itself was rebuilt.
    """
    backend = get_backend(kernel)
    cache = getattr(code, _CACHE_ATTR, None)
    if cache is None or cache.get("code") is not code:
        cache = {"code": code, "prototypes": {}}
        setattr(code, _CACHE_ATTR, cache)
    prototype = cache["prototypes"].get(backend.name)
    if prototype is not None:
        return prototype
    token = getattr(code, _MEMO_TOKEN_ATTR, None)
    memo_key = None
    if token is not None:
        memo_key = (token, backend.name)
        with _PROTOTYPE_MEMO_LOCK:
            prototype = _PROTOTYPE_MEMO.get(memo_key)
        if prototype is not None:
            cache["prototypes"][backend.name] = prototype
            return prototype
    compiler: PrototypeCompiler = IncrementalPrototype
    for cls in type(code).__mro__:
        registered = _COMPILERS.get(f"{cls.__module__}:{cls.__qualname__}")
        if registered is not None:
            compiler = registered
            break
    prototype = compiler(code, backend)
    cache["prototypes"][backend.name] = prototype
    if memo_key is not None:
        with _PROTOTYPE_MEMO_LOCK:
            if len(_PROTOTYPE_MEMO) >= _PROTOTYPE_MEMO_MAX:
                _PROTOTYPE_MEMO.pop(next(iter(_PROTOTYPE_MEMO)))
            _PROTOTYPE_MEMO[memo_key] = prototype
    return prototype


__all__ = [
    "NOT_DECODED",
    "ReceivedBatch",
    "DecoderPrototype",
    "BlockCountPrototype",
    "LDGMPrototype",
    "IncrementalPrototype",
    "compile_prototype",
    "set_prototype_memo_token",
    "register_prototype_compiler",
    "compile_ldgm_prototype",
    "compile_rse_prototype",
    "compile_repetition_prototype",
]
