"""Property tests: the packed tier is bit-identical to the unpacked tier.

Every ``gf2`` op must give the reference answer on arbitrary matrices —
rectangular, rank-deficient, and wider than one 64-bit word — when the
facade is forced onto the packed ``gf2w`` kernels, because it picks a
tier by operand size alone and the repo's exhibits must not depend on
which tier ran.  The strategies here bias toward low-rank inputs (sparse
entries, duplicated rows) and straddle the 64-column word boundary on
purpose.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from kernel_modes import force_gf2_tier

from repro.ecc import gf2, gf2w


def _reference_row_reduce(matrix):
    """The unpacked reference, independent of facade dispatch."""
    return gf2._row_reduce_unpacked(gf2._validated(matrix, 2))


def _on_tier(tier, op, *args):
    """``op(*args)`` with the facade forced onto ``tier``."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        force_gf2_tier(monkeypatch, tier)
        return op(*args)


def random_matrix(rows, cols, seed, density):
    rng = np.random.default_rng(seed)
    matrix = (rng.random((rows, cols)) < density).astype(np.uint8)
    # Duplicate a row now and then so rank-deficient systems are common.
    if rows >= 2 and rng.random() < 0.5:
        matrix[int(rng.integers(rows))] = matrix[int(rng.integers(rows))]
    return matrix


# Row/column ranges deliberately cross the 64-column word boundary.
matrix_strategy = st.builds(
    random_matrix,
    rows=st.integers(min_value=1, max_value=40),
    cols=st.integers(min_value=1, max_value=150),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    density=st.sampled_from([0.1, 0.3, 0.5, 0.9]),
)


class TestPackRoundTrip:
    @settings(max_examples=60)
    @given(matrix_strategy)
    def test_pack_unpack_round_trip(self, matrix):
        packed = gf2w.pack_rows(matrix)
        assert packed.dtype == np.uint64
        assert packed.shape == (matrix.shape[0], gf2w.words_for(matrix.shape[1]))
        assert np.array_equal(gf2w.unpack_rows(packed, matrix.shape[1]), matrix)

    def test_vector_round_trip(self):
        rng = np.random.default_rng(5)
        for cols in (1, 63, 64, 65, 128, 130):
            vector = rng.integers(0, 2, size=cols, dtype=np.uint8)
            packed = gf2w.pack_vector(vector)
            assert np.array_equal(gf2w.unpack_rows(packed[None, :], cols)[0], vector)

    def test_pack_matches_int_packing(self):
        matrix = random_matrix(6, 130, seed=9, density=0.5)
        ints = gf2._pack_rows(matrix)
        words = gf2w.pack_rows(matrix)
        for row_int, row_words in zip(ints, words):
            assert row_int == int.from_bytes(
                np.ascontiguousarray(row_words, dtype=np.dtype("<u8")).tobytes(),
                "little",
            )


class TestEliminationEquivalence:
    @settings(max_examples=80)
    @given(matrix_strategy)
    def test_row_reduce_identical(self, matrix):
        ref_rref, ref_pivots = _reference_row_reduce(matrix)
        packed_rref, packed_pivots = gf2w.row_reduce(matrix)
        assert packed_pivots == ref_pivots
        assert np.array_equal(packed_rref, ref_rref)

    @settings(max_examples=60)
    @given(matrix_strategy)
    def test_rank_identical(self, matrix):
        assert _on_tier("packed", gf2.rank, matrix) == len(_reference_row_reduce(matrix)[1])

    @settings(max_examples=60)
    @given(matrix_strategy, st.integers(min_value=0, max_value=2**32 - 1))
    def test_solve_identical(self, matrix, seed):
        rng = np.random.default_rng(seed)
        if rng.random() < 0.5:
            # Consistent by construction.
            x_true = rng.integers(0, 2, size=matrix.shape[1], dtype=np.uint8)
            b = gf2w.matvec(matrix, x_true)
        else:
            # Arbitrary right-hand side; often inconsistent.
            b = rng.integers(0, 2, size=matrix.shape[0], dtype=np.uint8)
        num_cols = matrix.shape[1]
        reduced, pivots = _reference_row_reduce(np.concatenate([matrix, b[:, None]], axis=1))
        if num_cols in pivots:
            reference = None
        else:
            reference = np.zeros(num_cols, dtype=np.uint8)
            for row_index, col in enumerate(pivots):
                reference[col] = reduced[row_index, num_cols]
        packed = _on_tier("packed", gf2.solve, matrix, b)
        if reference is None:
            assert packed is None
            assert not _on_tier("packed", gf2.is_consistent, matrix, b)
        else:
            assert packed is not None
            assert np.array_equal(packed, reference)
            assert _on_tier("packed", gf2.is_consistent, matrix, b)

    @settings(max_examples=50)
    @given(matrix_strategy)
    def test_nullspace_identical(self, matrix):
        reference = _on_tier("unpacked", gf2.nullspace, matrix)
        packed = _on_tier("packed", gf2.nullspace, matrix)
        assert np.array_equal(packed, reference)

    def test_solve_many_matches_per_plane_solve(self):
        rng = np.random.default_rng(21)
        for trial in range(30):
            rows = int(rng.integers(1, 30))
            cols = int(rng.integers(1, 140))
            planes = int(rng.integers(1, 9))
            a = (rng.random((rows, cols)) < 0.4).astype(np.uint8)
            rhs = rng.integers(0, 2, size=(rows, planes), dtype=np.uint8)
            per_plane = [gf2.solve(a, rhs[:, p]) for p in range(planes)]
            batched = gf2w.solve_many(a, rhs)
            if any(x is None for x in per_plane):
                assert batched is None
            else:
                assert batched is not None
                assert np.array_equal(batched, np.stack(per_plane))


class TestPackedProducts:
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
        assert np.array_equal(gf2w.matmul(a, b), reference)

    @settings(max_examples=60)
    @given(matrix_strategy, st.integers(min_value=0, max_value=2**32 - 1))
    def test_matvec_matches_int64_reference(self, matrix, seed):
        rng = np.random.default_rng(seed)
        v = rng.integers(0, 2, size=matrix.shape[1], dtype=np.uint8)
        reference = (matrix.astype(np.int64) @ v.astype(np.int64) % 2).astype(np.uint8)
        assert np.array_equal(gf2w.matvec(matrix, v), reference)


class TestFacadeDispatch:
    @pytest.mark.parametrize("tier", ["packed", "unpacked"])
    def test_facade_output_identical_under_both_tiers(self, tier):
        matrix = random_matrix(24, 100, seed=33, density=0.3)
        rng = np.random.default_rng(34)
        b = rng.integers(0, 2, size=24, dtype=np.uint8)
        baseline_rref, baseline_pivots = gf2._row_reduce_unpacked(matrix)
        rref, pivots = _on_tier(tier, gf2.row_reduce, matrix)
        assert pivots == baseline_pivots
        assert np.array_equal(rref, baseline_rref)
        solved = _on_tier(tier, gf2.solve, matrix, b)
        reference = _on_tier("unpacked", gf2.solve, matrix, b)
        if reference is None:
            assert solved is None
        else:
            assert np.array_equal(solved, reference)

    def test_dispatch_follows_operand_size(self, monkeypatch):
        packed_sizes = []
        monkeypatch.setattr(gf2w, "row_reduce", lambda arr: packed_sizes.append(arr.size))
        gf2.row_reduce(np.zeros((2, 3), dtype=np.uint8))
        gf2.row_reduce(np.zeros((1, gf2._AUTO_PACKED_SIZE), dtype=np.uint8))
        assert packed_sizes == [gf2._AUTO_PACKED_SIZE]


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
