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
* **LDGM family** -- the prototype precompiles the CSR adjacency and the
  initial per-row peeling state for the compiled peel of ``cext``; the
  numpy backend replays the code's own incremental decoder instead.
* **Anything else** -- a fallback prototype replays the incremental decoder
  (the same loop as the numpy LDGM decode) so the fast path is safe for
  codes registered by third parties.

Prototypes are cached on the code instance per kernel backend: compiling is
itself vectorised and cheap, but a work unit should pay for it once, not
per run.
"""

from __future__ import annotations

import abc
import functools
from typing import Callable, Dict, Sequence, Tuple, Type, Union

import numpy as np

from repro.fec.base import FECCode
from repro.kernels import NOT_DECODED, ReceivedBatch, current_backend
from repro.kernels.base import replay_decode_batch

#: What ``decode_batch`` accepts: per-run index arrays or a ready batch.
ReceivedInput = Union[Sequence[np.ndarray], ReceivedBatch]


class DecoderPrototype(abc.ABC):
    """Batch decoder for one FEC code instance."""

    def __init__(self, code: FECCode):
        self.code = code
        self.k = code.k
        self.n = code.n
        #: The backend of the kernel scope the prototype was compiled in.
        self.kernel = current_backend()

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
      ``(runs, keys)`` first-arrival table, using the regrouping tables of
      :attr:`order_statistics` (built on its first read, so ``cext``
      never builds them).
    """

    def __init__(
        self,
        code: FECCode,
        group_of_key: np.ndarray,
        needed: np.ndarray,
    ):
        super().__init__(code)
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

    @functools.cached_property
    def order_statistics(self):
        """Regrouping tables of the numpy first-arrival table decode.

        ``(gather, classes, impossible)``: ``gather`` is the ``(groups,
        width)`` table of key ids, padded with the sentinel key
        ``key_modulus`` (the position table's extra never-arrived column);
        ``classes`` pairs each distinct ``needed`` value with its groups,
        which are partitioned together; ``impossible`` lists the groups
        that need more distinct keys than they have (never reached; their
        order statistic would index out of the padded row).
        """
        group_sizes = np.bincount(self.group_of_key, minlength=self.num_groups)
        width = int(group_sizes.max()) if group_sizes.size else 0
        gather = np.full((self.num_groups, width), self.key_modulus, dtype=np.int64)
        order = np.argsort(self.group_of_key, kind="stable")
        starts = np.zeros(self.num_groups, dtype=np.int64)
        np.cumsum(group_sizes[:-1], out=starts[1:])
        slot = np.arange(order.size, dtype=np.int64) - np.repeat(starts, group_sizes)
        gather[self.group_of_key[order], slot] = order
        classes = [
            (int(value), np.nonzero(self.needed == value)[0])
            for value in np.unique(self.needed)
        ]
        impossible = np.nonzero(self.needed > group_sizes)[0]
        return gather, classes, impossible

    def decode_batch(
        self, received: ReceivedInput
    ) -> Tuple[np.ndarray, np.ndarray]:
        return self.kernel.block_count_decode_batch(
            self, ReceivedBatch.coerce(received)
        )


def compile_rse_prototype(code: FECCode) -> BlockCountPrototype:
    """RSE: a block decodes once ``k_b`` distinct packets of it arrived."""
    layout = code.layout
    block_of = np.empty(layout.n, dtype=np.int64)
    needed = np.empty(layout.num_blocks, dtype=np.int64)
    for block in layout.blocks:
        block_of[block.source_indices] = block.block_id
        block_of[block.parity_indices] = block.block_id
        needed[block.block_id] = block.k
    return BlockCountPrototype(code, group_of_key=block_of, needed=needed)


def compile_repetition_prototype(code: FECCode) -> BlockCountPrototype:
    """Repetition: decoding completes once all ``k`` sources were seen."""
    k = code.k
    return BlockCountPrototype(
        code,
        group_of_key=np.zeros(k, dtype=np.int64),
        needed=np.array([k], dtype=np.int64),
    )


# ---------------------------------------------------------------------------
# LDGM: precompiled peeling arrays, decoded by the selected kernel backend.
# ---------------------------------------------------------------------------


class LDGMPrototype(DecoderPrototype):
    """Precompiled peeling-decoder state over the code's CSR arrays.

    The prototype holds the column CSR adjacency
    (:attr:`column_adjacency`) and the initial per-row unknown counts and
    id sums (:attr:`check_init`), each built on first read, and delegates the
    decode to its :class:`~repro.kernels.KernelBackend`:

    * the ``cext`` backend runs the incremental peel in C, run by run;
    * the ``numpy`` backend (the base-class default) replays the code's
      own incremental decoder, exactly like :class:`IncrementalPrototype`.

    All backends return bit-identical ``(decoded, n_necessary)`` arrays.
    """

    def __init__(self, code: FECCode):
        super().__init__(code)
        self.num_checks = code.matrix.num_checks

    @functools.cached_property
    def column_adjacency(self) -> Tuple[np.ndarray, np.ndarray]:
        """Column CSR ``(indptr, rows)``, rows in increasing order.

        Read by the compiled peel only.  The prototype holds its own
        reference, so a concurrent first read that rebuilds the matrix's
        cache never frees the arrays another thread is passing to C.
        """
        return self.code.matrix.column_adjacency()

    @functools.cached_property
    def check_init(self) -> np.ndarray:
        """Each check row's ``(unknown count, id sum mod 2**32)``, ``(checks, 2)`` uint32.

        The layout of the compiled peel's per-check counters (built on
        first read, so the numpy backend never builds it).  A wrapped sum
        still names the last unknown exactly, as every id is below
        ``n < 2**32``.
        """
        if self.n >= 2**32:
            raise ValueError(f"the compiled peel needs n < 2**32, got {self.n}")
        row_ptr, row_cols = self.code.matrix.row_csr()
        degrees = np.diff(row_ptr)
        init = np.zeros((self.num_checks, 2), dtype=np.uint32)
        init[:, 0] = degrees
        if row_cols.size:
            sums = np.add.reduceat(row_cols, row_ptr[:-1]) & 0xFFFFFFFF
            init[:, 1] = np.where(degrees > 0, sums, 0)
        return init

    def decode_batch(
        self, received: ReceivedInput
    ) -> Tuple[np.ndarray, np.ndarray]:
        return self.kernel.ldgm_decode_batch(self, ReceivedBatch.coerce(received))


def compile_ldgm_prototype(code: FECCode) -> LDGMPrototype:
    """LDGM family: the peel runs on the scope's kernel backend."""
    return LDGMPrototype(code)


class IncrementalPrototype(DecoderPrototype):
    """Fallback for codes without a vectorised prototype.

    Replays each run through the code's own incremental symbolic decoder
    (:func:`~repro.kernels.base.replay_decode_batch`, the numpy LDGM
    decode too) -- no speedup, but it keeps the fast path safe for every
    registered code and is also the reference the equivalence tests
    compare against.
    """

    def decode_batch(
        self, received: ReceivedInput
    ) -> Tuple[np.ndarray, np.ndarray]:
        return replay_decode_batch(self.code, ReceivedBatch.coerce(received))


# ---------------------------------------------------------------------------
# Registry: code class -> prototype compiler.
# ---------------------------------------------------------------------------

PrototypeCompiler = Callable[[FECCode], DecoderPrototype]

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


def register_prototype_compiler(
    code_cls: Type[FECCode], compiler: PrototypeCompiler
) -> None:
    """Register a prototype compiler for a code class (and its subclasses).

    ``compiler`` is called as ``compiler(code)`` inside the caller's
    kernel scope; :func:`~repro.kernels.current_backend` names its backend.
    """
    _COMPILERS[f"{code_cls.__module__}:{code_cls.__qualname__}"] = compiler


def compile_prototype(code: FECCode) -> DecoderPrototype:
    """Return the (cached) batch-decoder prototype for a code instance.

    The prototype decodes on the current kernel scope's backend.
    Prototypes are cached per backend, so switching backends between
    calls compiles at most once per backend.
    """
    backend = current_backend()
    cache = getattr(code, _CACHE_ATTR, None)
    if cache is None or cache.get("code") is not code:
        cache = {"code": code, "prototypes": {}}
        setattr(code, _CACHE_ATTR, cache)
    prototype = cache["prototypes"].get(backend.name)
    if prototype is not None:
        return prototype
    compiler: PrototypeCompiler = IncrementalPrototype
    for cls in type(code).__mro__:
        registered = _COMPILERS.get(f"{cls.__module__}:{cls.__qualname__}")
        if registered is not None:
            compiler = registered
            break
    prototype = compiler(code)
    cache["prototypes"][backend.name] = prototype
    return prototype


__all__ = [
    "NOT_DECODED",
    "ReceivedBatch",
    "DecoderPrototype",
    "BlockCountPrototype",
    "LDGMPrototype",
    "IncrementalPrototype",
    "compile_prototype",
    "register_prototype_compiler",
    "compile_ldgm_prototype",
    "compile_rse_prototype",
    "compile_repetition_prototype",
]
