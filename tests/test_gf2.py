"""Unit and property tests for GF(2) linear algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from kernel_modes import force_gf2_tier

from repro.ecc import gf2
from repro.utils.bits import bits_to_int


def random_matrix(rows, cols, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)


matrix_strategy = st.builds(
    random_matrix,
    rows=st.integers(min_value=1, max_value=8),
    cols=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)


def sparse_matrix(rows, cols, seed, density):
    rng = np.random.default_rng(seed)
    matrix = (rng.random((rows, cols)) < density).astype(np.uint8)
    # Duplicate a row now and then so rank-deficient systems are common.
    if rows >= 2 and rng.random() < 0.5:
        matrix[int(rng.integers(rows))] = matrix[int(rng.integers(rows))]
    return matrix


# Wide, often rank-deficient matrices whose rows cross the 64-bit word
# boundary, as a BEER recovery's (71, 64) systems do.
wide_matrix_strategy = st.builds(
    sparse_matrix,
    rows=st.integers(min_value=1, max_value=40),
    cols=st.integers(min_value=1, max_value=150),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    density=st.sampled_from([0.1, 0.3, 0.5, 0.9]),
)


def int64_product(a, b):
    return (a.astype(np.int64) @ b.astype(np.int64) % 2).astype(np.uint8)


class TestBasicOps:
    def test_identity(self):
        eye = gf2.identity(3)
        assert (gf2.matmul(eye, eye) == eye).all()

    def test_matmul_mod2(self):
        a = np.array([[1, 1]], dtype=np.uint8)
        b = np.array([[1], [1]], dtype=np.uint8)
        assert gf2.matmul(a, b)[0, 0] == 0  # 1 + 1 == 0 in GF(2)

    def test_is_bit_matrix(self):
        assert gf2.is_bit_matrix(np.array([[0, 1]]))
        assert not gf2.is_bit_matrix(np.array([[2]]))

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            gf2.matmul(np.zeros((2, 3), dtype=np.uint8), np.zeros((2, 3), dtype=np.uint8))


class TestRowReduce:
    def test_identity_is_fixed_point(self):
        eye = gf2.identity(4)
        reduced, pivots = gf2.row_reduce(eye)
        assert (reduced == eye).all()
        assert pivots == [0, 1, 2, 3]

    def test_input_not_mutated(self):
        a = np.array([[1, 1], [1, 0]], dtype=np.uint8)
        original = a.copy()
        gf2.row_reduce(a)
        assert (a == original).all()

    @settings(max_examples=50)
    @given(matrix_strategy)
    def test_rref_pivot_columns_are_unit(self, matrix):
        reduced, pivots = gf2.row_reduce(matrix)
        for row_index, col in enumerate(pivots):
            column = reduced[:, col]
            assert column[row_index] == 1
            assert column.sum() == 1

    @settings(max_examples=50)
    @given(matrix_strategy)
    def test_rank_bounds(self, matrix):
        r = gf2.rank(matrix)
        assert 0 <= r <= min(matrix.shape)

    @settings(max_examples=60)
    @given(wide_matrix_strategy)
    def test_echelon_shape(self, matrix):
        """Row ``i`` leads at ``pivots[i]``, pivots increase, and every
        row past the rank is zero."""
        reduced, pivots = gf2.row_reduce(matrix)
        assert reduced.shape == matrix.shape
        assert pivots == sorted(set(pivots))
        for row_index, col in enumerate(pivots):
            assert int(np.flatnonzero(reduced[row_index])[0]) == col
        assert not reduced[len(pivots) :].any()

    @settings(max_examples=60)
    @given(wide_matrix_strategy)
    def test_row_space_is_preserved(self, matrix):
        """Every input row is the XOR of the reduced rows its pivot
        entries select, so elimination lost no row of the input."""
        reduced, pivots = gf2.row_reduce(matrix)
        for row in matrix:
            selected = [i for i, col in enumerate(pivots) if row[col]]
            # An empty selection reduces to the zero row.
            assert np.array_equal(np.bitwise_xor.reduce(reduced[selected], axis=0), row)

    @pytest.mark.parametrize(
        "shape", [(0, 5), (3, 0), (4, 70)], ids=["no-rows", "no-columns", "two-words"]
    )
    def test_zero_matrix_has_no_pivots(self, shape):
        zero = np.zeros(shape, dtype=np.uint8)
        reduced, pivots = gf2.row_reduce(zero)
        assert pivots == []
        assert reduced.shape == shape
        assert reduced.dtype == np.uint8
        assert not reduced.any()


class TestSolve:
    def test_solves_consistent_system(self):
        a = np.array([[1, 0, 1], [0, 1, 1]], dtype=np.uint8)
        b = np.array([1, 0], dtype=np.uint8)
        x = gf2.solve(a, b)
        assert x is not None
        assert (gf2.matmul(a, x[:, None])[:, 0] == b).all()

    def test_detects_inconsistency(self):
        a = np.array([[1, 1], [1, 1]], dtype=np.uint8)
        b = np.array([0, 1], dtype=np.uint8)
        assert gf2.solve(a, b) is None

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            gf2.solve(np.zeros((2, 2), dtype=np.uint8), np.zeros(3, dtype=np.uint8))

    @settings(max_examples=60)
    @given(matrix_strategy, st.integers(min_value=0, max_value=2**32 - 1))
    def test_solution_satisfies_system(self, matrix, seed):
        rng = np.random.default_rng(seed)
        x_true = rng.integers(0, 2, size=matrix.shape[1], dtype=np.uint8)
        b = gf2.matmul(matrix, x_true[:, None])[:, 0]
        x = gf2.solve(matrix, b)
        assert x is not None, "system constructed from a solution must be consistent"
        assert (gf2.matmul(matrix, x[:, None])[:, 0] == b).all()

    @settings(max_examples=60)
    @given(wide_matrix_strategy, st.integers(min_value=0, max_value=2**32 - 1))
    def test_none_exactly_when_rhs_leaves_the_column_space(self, matrix, seed):
        """An arbitrary right-hand side is refused exactly when appending
        it raises the rank; otherwise the solution satisfies the system."""
        b = np.random.default_rng(seed).integers(0, 2, size=matrix.shape[0], dtype=np.uint8)
        x = gf2.solve(matrix, b)
        consistent = gf2.rank(np.concatenate([matrix, b[:, None]], axis=1)) == gf2.rank(matrix)
        assert (x is not None) == consistent
        if x is not None:
            assert np.array_equal(int64_product(matrix, x[:, None])[:, 0], b)

    @settings(max_examples=40)
    @given(wide_matrix_strategy, st.integers(min_value=0, max_value=2**32 - 1))
    def test_free_variables_are_zero(self, matrix, seed):
        rng = np.random.default_rng(seed)
        x_true = rng.integers(0, 2, size=matrix.shape[1], dtype=np.uint8)
        x = gf2.solve(matrix, int64_product(matrix, x_true[:, None])[:, 0])
        _, pivots = gf2.row_reduce(matrix)
        free = np.setdiff1d(np.arange(matrix.shape[1]), pivots)
        assert not x[free].any()


class TestPopcountProduct:
    """The popcount kernel ``matmul`` takes on large products."""

    @settings(max_examples=60)
    @given(
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=1, max_value=140),
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matmul_matches_int64_reference(self, m, k, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 2, size=(m, k), dtype=np.uint8)
        b = rng.integers(0, 2, size=(k, n), dtype=np.uint8)
        reference = (a.astype(np.int64) @ b.astype(np.int64) % 2).astype(np.uint8)
        assert np.array_equal(gf2._matmul_popcount(a, b), reference)

    def test_row_blocks_stitch_in_order(self, monkeypatch):
        """Products taller than one row block equal the unblocked product."""
        monkeypatch.setattr(gf2, "_MATMUL_BLOCK", 3)
        rng = np.random.default_rng(12)
        a = rng.integers(0, 2, size=(10, 70), dtype=np.uint8)
        b = rng.integers(0, 2, size=(70, 5), dtype=np.uint8)
        assert np.array_equal(gf2._matmul_popcount(a, b), int64_product(a, b))

    @settings(max_examples=60)
    @given(wide_matrix_strategy)
    def test_pack_words_round_trip(self, matrix):
        words = gf2._pack_words(matrix)
        assert words.dtype == np.uint64
        assert words.shape == (matrix.shape[0], -(-matrix.shape[1] // 64))
        unpacked = np.unpackbits(
            words.view(np.uint8), axis=1, bitorder="little", count=matrix.shape[1]
        )
        assert np.array_equal(unpacked, matrix)

    @pytest.mark.parametrize("width", [0, 1, 63, 64, 65, 130])
    def test_pack_rows_cover_every_column(self, width):
        """Row ints, on both sides of the one-word fast path."""
        matrix = np.random.default_rng(width).integers(0, 2, (9, width)).astype(bool)
        assert gf2._pack_rows(matrix) == [bits_to_int(row) for row in matrix]

    def test_pack_matches_int_packing(self):
        matrix = np.random.default_rng(9).integers(0, 2, size=(6, 130), dtype=np.uint8)
        ints = gf2._pack_rows(matrix)
        words = gf2._pack_words(matrix)
        for row_int, row_words in zip(ints, words):
            assert row_int == int.from_bytes(row_words.tobytes(), "little")


class TestProductDispatch:
    """``matmul`` picks its kernel from the work alone; both are exact."""

    def test_dispatch_follows_operand_size(self, monkeypatch):
        popcount_shapes = []

        def recording(a, b):
            popcount_shapes.append((a.shape, b.shape))
            return int64_product(a, b)

        monkeypatch.setattr(gf2, "_matmul_popcount", recording)
        threshold = gf2._AUTO_PACKED_WORK
        for inner in (64, threshold - 1, threshold):
            gf2.matmul(np.zeros((1, inner), dtype=np.uint8), np.zeros((inner, 1), dtype=np.uint8))
        assert popcount_shapes == [((1, threshold), (threshold, 1))]

    @pytest.mark.parametrize("tier", ["packed", "unpacked"])
    def test_product_identical_under_both_tiers(self, tier, monkeypatch):
        """A single-pattern encode, a batch encode and a syndrome batch
        across the 64-column boundary give the int64 answer on either kernel."""
        force_gf2_tier(monkeypatch, tier)
        rng = np.random.default_rng(34)
        for m, k, n in [(1, 64, 7), (1024, 64, 7), (300, 71, 7), (5, 130, 9)]:
            a = rng.integers(0, 2, size=(m, k), dtype=np.uint8)
            b = rng.integers(0, 2, size=(k, n), dtype=np.uint8)
            assert np.array_equal(gf2.matmul(a, b), int64_product(a, b)), (m, k, n)


class TestValidationFastPaths:
    def test_is_bit_matrix_still_rejects_nonbinary(self):
        assert gf2.is_bit_matrix(np.array([[0, 1]], dtype=np.uint8))
        assert not gf2.is_bit_matrix(np.array([[2]], dtype=np.uint8))
        assert not gf2.is_bit_matrix(np.array([[0.5]]))
        assert gf2.is_bit_matrix(np.array([], dtype=np.uint8))
        assert gf2.is_bit_matrix(np.array([[True, False]]))

    def test_validated_returns_same_object_for_uint8(self):
        arr = np.zeros((3, 4), dtype=np.uint8)
        assert gf2._validated(arr, 2) is arr
        with pytest.raises(ValueError):
            gf2._validated(arr, 1)

    def test_validated_converts_other_dtypes(self):
        arr = np.zeros((3, 4), dtype=np.int64)
        out = gf2._validated(arr, 2)
        assert out.dtype == np.uint8
