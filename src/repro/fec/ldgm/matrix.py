"""Sparse parity-check matrices for the LDGM code family.

The matrix ``H`` has ``n - k`` rows (one per check node / parity packet) and
``n`` columns (one per message node: ``k`` source packets followed by
``n - k`` parity packets).  It is stored sparsely as, for every check row,
the array of source columns and the array of parity columns it touches,
plus a CSR-style column-to-row adjacency used by the decoders.

Construction rules
------------------

* **Left part H1** -- every source column receives exactly ``left_degree``
  (default 3, the value used in the paper) distinct check rows.  Rows are
  drawn from a balanced pool so check-node degrees stay as even as possible,
  mirroring the "evenboth" construction of the reference LDPC codec.
* **Right part H2**:

  - ``LDGM``: identity -- check ``i`` involves parity packet ``i`` only.
  - ``LDGM Staircase``: dual diagonal -- check ``i`` involves parity packets
    ``i`` and ``i - 1``.
  - ``LDGM Triangle``: the staircase plus extra entries below the diagonal.
    The reference codec fills the triangle "progressively"; here every check
    row ``i >= 2`` additionally involves one parity packet drawn uniformly
    from the columns strictly below the staircase (``[0, i - 2]``).  This
    keeps check rows sparse (which the iterative decoder needs), keeps
    encoding a short XOR cascade, and reproduces the paper's qualitative
    behaviour (Triangle at least as good as Staircase except when only a
    small share of the packets is received).  The approximation is recorded
    in DESIGN.md.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.utils.rng import RandomState, ensure_rng
from repro.utils.validation import validate_k_n, validate_positive_int

#: Left (source-node) degree used throughout the paper.
DEFAULT_LEFT_DEGREE = 3


class LDGMVariant(enum.Enum):
    """The three LDGM parity structures compared in the paper."""

    LDGM = "ldgm"
    STAIRCASE = "staircase"
    TRIANGLE = "triangle"


@dataclass
class ParityCheckMatrix:
    """Sparse representation of ``H = [H1 | H2]``.

    Attributes
    ----------
    k, n:
        Code dimensions; there are ``n - k`` check rows.
    variant:
        Which parity structure the matrix follows.
    source_cols:
        ``source_cols[i]`` is the array of source columns (``< k``) of row i.
    parity_cols:
        ``parity_cols[i]`` is the array of *global* parity columns
        (``>= k``) of row i; it always contains ``k + i``.
    """

    k: int
    n: int
    variant: LDGMVariant
    source_cols: list[np.ndarray]
    parity_cols: list[np.ndarray]

    @property
    def num_checks(self) -> int:
        return self.n - self.k

    @property
    def num_edges(self) -> int:
        """Total number of "1"s in the matrix."""
        return sum(row.size for row in self.source_cols) + sum(
            row.size for row in self.parity_cols
        )

    @property
    def density(self) -> float:
        """Fraction of non-zero entries."""
        return self.num_edges / (self.num_checks * self.n)

    def row_columns(self, row: int) -> np.ndarray:
        """All (global) columns of check row ``row``."""
        return np.concatenate([self.source_cols[row], self.parity_cols[row]])

    def row_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR-style (indptr, cols) adjacency from check rows to columns.

        ``cols[indptr[r]:indptr[r + 1]]`` lists the (global) message nodes of
        check row ``r``, source columns first.  Cached after the first call;
        this flat form is what the vectorised decoders operate on.
        """
        cached = getattr(self, "_row_csr_cache", None)
        if cached is not None:
            return cached
        self._row_csr_cache = _interleave_rows(
            *_flatten_rows(self.source_cols), *_flatten_rows(self.parity_cols)
        )
        return self._row_csr_cache

    def row_degrees(self) -> np.ndarray:
        """Degree of every check row, length ``num_checks``."""
        indptr, _cols = self.row_csr()
        return np.diff(indptr)

    def column_degrees(self) -> np.ndarray:
        """Degree of every message node (column), length ``n``.

        Cached after the first call and built with one ``np.bincount`` over
        the flattened row arrays instead of a per-row Python loop.
        """
        cached = getattr(self, "_column_degrees_cache", None)
        if cached is not None:
            return cached
        _indptr, cols = self.row_csr()
        self._column_degrees_cache = np.bincount(cols, minlength=self.n).astype(
            np.int64, copy=False
        )
        return self._column_degrees_cache

    def column_adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR-style (indptr, rows) adjacency from columns to check rows.

        ``rows[indptr[v]:indptr[v + 1]]`` lists the check rows that involve
        message node ``v``, in increasing row order.  Cached after the first
        call and built by one stable argsort over the flattened row arrays
        (the concatenation enumerates rows in order, so the stable sort by
        column preserves the per-column row ordering of the historical
        nested-loop construction).
        """
        cached = getattr(self, "_adjacency_cache", None)
        if cached is not None:
            return cached
        row_ptr, cols = self.row_csr()
        degrees = self.column_degrees()
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        row_ids = np.repeat(
            np.arange(self.num_checks, dtype=np.int64), np.diff(row_ptr)
        )
        order = np.argsort(cols, kind="stable")
        self._adjacency_cache = (indptr, row_ids[order])
        return self._adjacency_cache

    def initial_row_state(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-row (unknown count, XOR of unknown columns) before any packet.

        This is the decoder state the symbolic peeling decoder starts from;
        it is computed once per matrix (``np.add.reduceat`` /
        ``np.bitwise_xor.reduceat`` over the row CSR) and *copied* by every
        decoder instance instead of being rebuilt with Python loops.
        """
        cached = getattr(self, "_initial_row_state_cache", None)
        if cached is not None:
            return cached
        indptr, cols = self.row_csr()
        unknowns = self.row_degrees()
        if cols.size:
            xor_unknown = np.bitwise_xor.reduceat(cols, indptr[:-1])
            # reduceat misbehaves on empty segments (it returns the element
            # *at* the segment start); force those rows to the empty XOR, 0.
            xor_unknown[unknowns == 0] = 0
        else:
            xor_unknown = np.zeros(self.num_checks, dtype=np.int64)
        self._initial_row_state_cache = (unknowns, xor_unknown)
        return self._initial_row_state_cache

    def to_dense(self) -> np.ndarray:
        """Dense 0/1 matrix, for tests and small examples only."""
        dense = np.zeros((self.num_checks, self.n), dtype=np.uint8)
        for row in range(self.num_checks):
            dense[row, self.source_cols[row]] = 1
            dense[row, self.parity_cols[row]] = 1
        return dense


def _flatten_rows(rows: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """``(indptr, flat)`` of a list of per-row arrays."""
    lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    flat = np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64)
    return indptr, flat


def _interleave_rows(
    src_ptr: np.ndarray, src: np.ndarray, par_ptr: np.ndarray, par: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The row CSR whose row ``r`` is source row ``r`` then parity row ``r``.

    Row ``r`` starts at ``src_ptr[r] + par_ptr[r]``, so a source entry at
    flat index ``t`` lands at ``t + par_ptr[r]`` and a parity one at
    ``t + src_ptr[r + 1]``.
    """
    indptr = src_ptr + par_ptr
    cols = np.empty(int(indptr[-1]), dtype=np.int64)
    cols[np.arange(src.size) + np.repeat(par_ptr[:-1], np.diff(src_ptr))] = src
    cols[np.arange(par.size) + np.repeat(src_ptr[1:], np.diff(par_ptr))] = par
    return indptr, cols


def build_parity_check_matrix(
    k: int,
    n: int,
    variant: LDGMVariant | str = LDGMVariant.STAIRCASE,
    *,
    left_degree: int = DEFAULT_LEFT_DEGREE,
    seed: RandomState = None,
) -> ParityCheckMatrix:
    """Build the parity-check matrix of an LDGM-family code.

    Parameters
    ----------
    k, n:
        Source / total packet counts; ``n - k`` check rows are created.
    variant:
        ``LDGMVariant`` or its string value.
    left_degree:
        Number of check equations each source packet participates in
        (3 in the paper).  Capped at ``n - k``.
    seed:
        Seed or generator controlling the random H1 construction.
    """
    k, n = validate_k_n(k, n)
    if isinstance(variant, str):
        variant = LDGMVariant(variant.lower())
    left_degree = validate_positive_int(left_degree, "left_degree")
    num_checks = n - k
    effective_degree = min(left_degree, num_checks)
    rng = ensure_rng(seed)

    source_cols = _build_left_part(k, num_checks, effective_degree, rng)
    parity_cols = _build_right_part(k, num_checks, variant, rng)
    return ParityCheckMatrix(
        k=k, n=n, variant=variant, source_cols=source_cols, parity_cols=parity_cols
    )


def _build_left_part(
    k: int, num_checks: int, left_degree: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Assign ``left_degree`` distinct check rows to every source column.

    A balanced pool (every check row repeated ``ceil(left_degree * k /
    num_checks)`` times) is shuffled and consumed column by column so check
    degrees stay within one of each other; duplicates within a column are
    re-drawn.
    """
    edges_needed = left_degree * k
    repeats = -(-edges_needed // num_checks)  # ceil division
    pool = np.tile(np.arange(num_checks, dtype=np.int64), repeats)[:edges_needed]
    rng.shuffle(pool)
    assignment = pool.reshape(k, left_degree)

    # One row-sorted compare finds the columns holding a duplicate; only
    # those re-draw, in column order, so the draws are those of a
    # column-by-column loop.
    columns = np.sort(assignment, axis=1)
    for col in np.flatnonzero((columns[:, 1:] == columns[:, :-1]).any(axis=1)):
        columns[col] = np.sort(_deduplicate_rows(assignment[col].copy(), num_checks, rng))

    # Each check row's source columns in increasing order: a stable sort
    # of the column-major edge list by row.
    edge_rows = columns.ravel()
    edge_cols = np.argsort(edge_rows, kind="stable") // left_degree
    degrees = np.bincount(edge_rows, minlength=num_checks)
    ends = np.cumsum(degrees).tolist()
    starts = [0, *ends[:-1]]
    if degrees.all():
        return [edge_cols[start:end] for start, end in zip(starts, ends)]

    per_row = [edge_cols[start:end].tolist() for start, end in zip(starts, ends)]
    _fill_empty_rows(per_row, rng)
    return [np.array(sorted(cols), dtype=np.int64) for cols in per_row]


def _deduplicate_rows(
    rows: np.ndarray, num_checks: int, rng: np.random.Generator
) -> np.ndarray:
    """Replace duplicate check rows within one column by fresh random rows."""
    seen: set[int] = set()
    for i in range(rows.size):
        value = int(rows[i])
        attempts = 0
        while value in seen:
            value = int(rng.integers(num_checks))
            attempts += 1
            if attempts > 10 * num_checks:
                raise RuntimeError("unable to build a duplicate-free column")
        rows[i] = value
        seen.add(value)
    return rows


def _fill_empty_rows(per_row: list[list[int]], rng: np.random.Generator) -> None:
    """Guarantee every check row touches at least one source packet.

    A check row with no source edge would create a parity packet carrying no
    information (for plain LDGM) and makes the graph needlessly weak; the
    reference codec avoids this too.  Edges are stolen from the rows with
    the highest degree.
    """
    empty_rows = [row for row, cols in enumerate(per_row) if not cols]
    if not empty_rows:
        return
    for empty_row in empty_rows:
        donor_row = max(range(len(per_row)), key=lambda r: len(per_row[r]))
        if len(per_row[donor_row]) <= 1:
            # Not enough edges to share; leave the row empty (harmless but
            # weaker).  This only happens for degenerate tiny codes.
            continue
        moved_col = per_row[donor_row].pop(int(rng.integers(len(per_row[donor_row]))))
        per_row[empty_row].append(moved_col)


def _build_right_part(
    k: int, num_checks: int, variant: LDGMVariant, rng: np.random.Generator
) -> list[np.ndarray]:
    """Build H2 according to the variant (identity, staircase, triangle).

    Check ``row`` involves parity packet ``row``; the Staircase adds
    ``row - 1`` (rows from 1 on), and the Triangle adds, for rows from 2
    on, one parity packet drawn uniformly from the columns strictly below
    the staircase (``[0, row - 2]``), creating the "progressive dependency
    between check nodes" described in the paper while keeping every check
    row sparse enough for the iterative decoder.
    """
    own = k + np.arange(num_checks, dtype=np.int64)
    if variant is LDGMVariant.LDGM:
        return [own[row : row + 1] for row in range(num_checks)]
    # Columns (triangle extra, staircase, own): the extra is always the
    # smallest, so every row stays sorted.
    table = np.stack([own, own - 1, own], axis=1)
    first = 1
    if variant is LDGMVariant.TRIANGLE and num_checks > 2:
        first = 0
        # One call with a per-row bound makes the draws of one
        # ``rng.integers(0, row - 1)`` call per row, in row order.
        table[2:, 0] = k + rng.integers(0, np.arange(1, num_checks - 1))
    return [own[:1], *table[1:2, 1:], *table[2:, first:]]


__all__ = [
    "LDGMVariant",
    "ParityCheckMatrix",
    "build_parity_check_matrix",
    "DEFAULT_LEFT_DEGREE",
]
