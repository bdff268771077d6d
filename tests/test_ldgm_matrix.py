"""Unit tests for LDGM parity-check-matrix construction."""

import numpy as np
import pytest

from repro.fec.ldgm.matrix import (
    DEFAULT_LEFT_DEGREE,
    LDGMVariant,
    ParityCheckMatrix,
    build_parity_check_matrix,
)


class TestDimensions:
    @pytest.mark.parametrize("variant", list(LDGMVariant))
    def test_shapes(self, variant):
        matrix = build_parity_check_matrix(100, 250, variant, seed=0)
        assert matrix.k == 100 and matrix.n == 250
        assert matrix.num_checks == 150
        assert len(matrix.source_cols) == 150
        assert len(matrix.parity_cols) == 150

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ValueError):
            build_parity_check_matrix(100, 100, "staircase")
        with pytest.raises(ValueError):
            build_parity_check_matrix(0, 10, "staircase")

    def test_string_variant_accepted(self):
        matrix = build_parity_check_matrix(50, 100, "triangle", seed=1)
        assert matrix.variant is LDGMVariant.TRIANGLE

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            build_parity_check_matrix(50, 100, "diagonal")


class TestLeftPart:
    def test_every_source_column_has_left_degree_edges(self):
        matrix = build_parity_check_matrix(200, 500, "staircase", seed=3)
        degrees = matrix.column_degrees()[:200]
        assert np.all(degrees == DEFAULT_LEFT_DEGREE)

    def test_custom_left_degree(self):
        matrix = build_parity_check_matrix(100, 250, "staircase", left_degree=5, seed=3)
        degrees = matrix.column_degrees()[:100]
        assert np.all(degrees == 5)

    def test_left_degree_capped_for_tiny_codes(self):
        # Only 2 check nodes exist, so the degree cannot exceed 2.
        matrix = build_parity_check_matrix(10, 12, "staircase", seed=0)
        degrees = matrix.column_degrees()[:10]
        assert np.all(degrees <= 2)

    def test_no_duplicate_edges_within_a_column(self):
        matrix = build_parity_check_matrix(300, 750, "triangle", seed=7)
        membership = [set() for _ in range(matrix.n)]
        for row in range(matrix.num_checks):
            for col in matrix.source_cols[row]:
                assert row not in membership[col], "duplicate edge"
                membership[col].add(row)

    def test_check_rows_balanced(self):
        matrix = build_parity_check_matrix(600, 1500, "staircase", seed=11)
        row_degrees = np.array([cols.size for cols in matrix.source_cols])
        # Balanced pool construction keeps source-edge counts within a small band.
        assert row_degrees.min() >= 1
        assert row_degrees.max() - row_degrees.min() <= 3

    def test_reproducible_for_same_seed(self):
        first = build_parity_check_matrix(100, 250, "staircase", seed=42)
        second = build_parity_check_matrix(100, 250, "staircase", seed=42)
        for row in range(first.num_checks):
            assert np.array_equal(first.source_cols[row], second.source_cols[row])

    def test_different_seeds_differ(self):
        first = build_parity_check_matrix(100, 250, "staircase", seed=1)
        second = build_parity_check_matrix(100, 250, "staircase", seed=2)
        assert any(
            not np.array_equal(first.source_cols[row], second.source_cols[row])
            for row in range(first.num_checks)
        )


class TestRightPart:
    def test_ldgm_identity(self):
        matrix = build_parity_check_matrix(50, 100, "ldgm", seed=0)
        for row in range(matrix.num_checks):
            assert matrix.parity_cols[row].tolist() == [50 + row]

    def test_staircase_dual_diagonal(self):
        matrix = build_parity_check_matrix(50, 100, "staircase", seed=0)
        assert matrix.parity_cols[0].tolist() == [50]
        for row in range(1, matrix.num_checks):
            assert matrix.parity_cols[row].tolist() == [50 + row - 1, 50 + row]

    def test_triangle_adds_one_entry_below_staircase(self):
        matrix = build_parity_check_matrix(50, 150, "triangle", seed=0)
        assert matrix.parity_cols[0].tolist() == [50]
        assert matrix.parity_cols[1].tolist() == [50, 51]
        for row in range(2, matrix.num_checks):
            cols = matrix.parity_cols[row].tolist()
            assert 50 + row in cols and 50 + row - 1 in cols
            extras = [c for c in cols if c < 50 + row - 1]
            assert len(extras) == 1
            assert 50 <= extras[0] <= 50 + row - 2

    def test_triangle_denser_than_staircase(self):
        staircase = build_parity_check_matrix(100, 250, "staircase", seed=5)
        triangle = build_parity_check_matrix(100, 250, "triangle", seed=5)
        assert triangle.num_edges > staircase.num_edges


class TestAccessors:
    def test_row_columns_concatenates(self):
        matrix = build_parity_check_matrix(20, 50, "staircase", seed=0)
        row = matrix.row_columns(3)
        assert set(matrix.source_cols[3]) <= set(row.tolist())
        assert set(matrix.parity_cols[3]) <= set(row.tolist())

    def test_column_adjacency_consistent_with_rows(self):
        matrix = build_parity_check_matrix(40, 100, "triangle", seed=0)
        indptr, rows = matrix.column_adjacency()
        assert indptr.shape == (matrix.n + 1,)
        assert rows.size == matrix.num_edges
        # Rebuild membership from the adjacency and compare with the rows.
        for node in range(matrix.n):
            adjacent = set(rows[indptr[node] : indptr[node + 1]].tolist())
            expected = {
                row
                for row in range(matrix.num_checks)
                if node in matrix.row_columns(row)
            }
            assert adjacent == expected

    def test_adjacency_is_cached(self):
        matrix = build_parity_check_matrix(20, 50, "staircase", seed=0)
        first = matrix.column_adjacency()
        second = matrix.column_adjacency()
        assert first[0] is second[0] and first[1] is second[1]

    def test_to_dense_matches_sparse(self):
        matrix = build_parity_check_matrix(15, 40, "triangle", seed=0)
        dense = matrix.to_dense()
        assert dense.shape == (25, 40)
        assert dense.sum() == matrix.num_edges

    def test_density(self):
        matrix = build_parity_check_matrix(100, 250, "staircase", seed=0)
        assert 0 < matrix.density < 0.1


# ---------------------------------------------------------------------------
# Oracle: the column-by-column builder the vectorised one replaced.
# ---------------------------------------------------------------------------


def _oracle_left_part(k, num_checks, left_degree, rng):
    edges_needed = left_degree * k
    repeats = -(-edges_needed // num_checks)
    pool = np.tile(np.arange(num_checks, dtype=np.int64), repeats)[:edges_needed]
    rng.shuffle(pool)
    assignment = pool.reshape(k, left_degree)
    per_row = [[] for _ in range(num_checks)]
    for col in range(k):
        rows = assignment[col].copy()
        if np.unique(rows).size != rows.size:
            seen = set()
            for i in range(rows.size):
                value = int(rows[i])
                while value in seen:
                    value = int(rng.integers(num_checks))
                rows[i] = value
                seen.add(value)
        rows.sort()
        for row in rows:
            per_row[int(row)].append(col)
    for empty_row in [row for row, cols in enumerate(per_row) if not cols]:
        donor_row = max(range(len(per_row)), key=lambda r: len(per_row[r]))
        if len(per_row[donor_row]) <= 1:
            continue
        moved = per_row[donor_row].pop(int(rng.integers(len(per_row[donor_row]))))
        per_row[empty_row].append(moved)
    return [np.array(sorted(cols), dtype=np.int64) for cols in per_row]


def _oracle_right_part(k, num_checks, variant, rng):
    parity_cols = []
    for row in range(num_checks):
        cols = {k + row}
        if variant in (LDGMVariant.STAIRCASE, LDGMVariant.TRIANGLE) and row > 0:
            cols.add(k + row - 1)
        if variant is LDGMVariant.TRIANGLE and row >= 2:
            cols.add(k + int(rng.integers(0, row - 1)))
        parity_cols.append(np.array(sorted(cols), dtype=np.int64))
    return parity_cols


class TestVectorisedBuildMatchesOracle:
    # Empty rows (5 of 30 with one edge each), duplicate-heavy columns
    # (40 of 50 at degree 5), and ordinary shapes.
    SHAPES = [(5, 30), (40, 50), (100, 150), (200, 500), (7, 9), (300, 310)]

    @pytest.mark.parametrize("variant", list(LDGMVariant))
    @pytest.mark.parametrize("left_degree", [1, 3, 5])
    def test_same_matrix_and_generator_state(self, variant, left_degree):
        for seed in range(40):
            for k, n in self.SHAPES:
                oracle_rng = np.random.default_rng(seed)
                degree = min(left_degree, n - k)
                source = _oracle_left_part(k, n - k, degree, oracle_rng)
                parity = _oracle_right_part(k, n - k, variant, oracle_rng)
                rng = np.random.default_rng(seed)
                matrix = build_parity_check_matrix(
                    k, n, variant, left_degree=left_degree, seed=rng
                )
                for expected, actual in zip(source + parity, matrix.source_cols + matrix.parity_cols):
                    assert actual.dtype == np.int64
                    assert np.array_equal(actual, expected)
                assert len(matrix.source_cols) == len(matrix.parity_cols) == n - k
                assert rng.bit_generator.state == oracle_rng.bit_generator.state


def _oracle_row_csr(matrix):
    """The per-row loop ``ParityCheckMatrix.row_csr`` used to run."""
    rows = range(matrix.num_checks)
    lengths = [matrix.source_cols[r].size + matrix.parity_cols[r].size for r in rows]
    indptr = np.zeros(matrix.num_checks + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    pairs = [a for r in rows for a in (matrix.source_cols[r], matrix.parity_cols[r])]
    cols = np.concatenate(pairs).astype(np.int64) if pairs else np.zeros(0, np.int64)
    return indptr, cols


class TestRowCsrMatchesOracle:
    SHAPES = TestVectorisedBuildMatchesOracle.SHAPES

    @staticmethod
    def _assert_csr(actual, expected):
        for got, want in zip(actual, expected):
            assert got.dtype == np.int64
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("variant", list(LDGMVariant))
    @pytest.mark.parametrize("left_degree", [1, 3])
    def test_built_matrices(self, variant, left_degree):
        for seed in range(20):
            for k, n in self.SHAPES:
                matrix = build_parity_check_matrix(
                    k, n, variant, left_degree=left_degree, seed=seed
                )
                self._assert_csr(matrix.row_csr(), _oracle_row_csr(matrix))

    def test_hand_built_rows_with_empty_halves(self):
        empty = np.array([], dtype=np.int64)
        matrix = ParityCheckMatrix(
            k=3,
            n=7,
            variant=LDGMVariant.STAIRCASE,
            source_cols=[np.array([0, 2], dtype=np.int64), empty, empty, np.array([1])],
            parity_cols=[np.array([3]), np.array([3, 4]), empty, np.array([5, 6])],
        )
        self._assert_csr(matrix.row_csr(), _oracle_row_csr(matrix))
        assert matrix.row_csr()[0].tolist() == [0, 3, 5, 5, 8]
