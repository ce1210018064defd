"""Unit and property tests for DEC BCH codes."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_code_analysis import minimum_distance

from repro.ecc import gf2
from repro.ecc.bch import _raw_parity_check_matrix, bch_dec_code, bch_field_degree_for
from repro.ecc.gf2m import field


class TestFieldDegree:
    def test_known_sizes(self):
        assert bch_field_degree_for(7) == 4  # (15, 7)
        assert bch_field_degree_for(16) == 5
        assert bch_field_degree_for(64) == 7

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            bch_field_degree_for(0)


@pytest.fixture(scope="module")
def bch16():
    return bch_dec_code(16)


class TestConstruction:
    def test_geometry(self, bch16):
        assert bch16.k == 16
        assert bch16.t == 2
        assert bch16.p == 10  # 2m for m=5

    def test_orthogonality(self, bch16):
        product = gf2.matmul(bch16.generator_matrix_t, bch16.parity_check_matrix.T)
        assert not product.any()

    def test_minimum_distance_at_least_five(self):
        code = bch_dec_code(7, m=4)  # (15, 7) BCH: exhaustive check feasible
        assert minimum_distance(code) == 5

    def test_oversized_k_rejected(self):
        with pytest.raises(ValueError):
            bch_dec_code(100, m=5)

    def test_all_pair_syndromes_distinct(self, bch16):
        """Every weight-<=2 pattern must map to a unique syndrome."""
        seen = set()
        columns = [bch16.column_int(i) for i in range(bch16.n)]
        for a, b in combinations(range(bch16.n), 2):
            syndrome = columns[a] ^ columns[b]
            assert syndrome not in seen
            seen.add(syndrome)


class TestDoubleErrorCorrection:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_corrects_every_double_error(self, data):
        code = bch_dec_code(16)
        first = data.draw(st.integers(min_value=0, max_value=code.n - 1))
        second = data.draw(st.integers(min_value=0, max_value=code.n - 1).filter(lambda x: x != first))
        message = np.zeros(code.k, dtype=np.uint8)
        message[::3] = 1
        corrupted = code.encode(message).copy()
        corrupted[first] ^= 1
        corrupted[second] ^= 1
        result = code.decode(corrupted)
        assert (result.data == message).all()
        assert set(result.corrected_positions) == {first, second}

    def test_corrects_single_error_too(self, bch16):
        message = np.ones(bch16.k, dtype=np.uint8)
        corrupted = bch16.encode(message).copy()
        corrupted[5] ^= 1
        result = bch16.decode(corrupted)
        assert (result.data == message).all()

    def test_triple_error_not_silently_fixed(self, bch16):
        message = np.ones(bch16.k, dtype=np.uint8)
        corrupted = bch16.encode(message).copy()
        for position in (1, 7, 13):
            corrupted[position] ^= 1
        result = bch16.decode(corrupted)
        # A triple error is beyond t=2: it is either detected or miscorrected.
        if not result.detected_uncorrectable:
            assert set(result.corrected_positions) != {1, 7, 13} or not (
                result.data == message
            ).all()


class TestBchStructure:
    """The construction is the narrow-sense BCH code of length ``2^m - 1``.

    Full-length codes keep all ``2m`` parity bits, and every codeword,
    placed back on the unshortened code's coordinates ``j`` (the ``alpha^j``
    columns), has ``alpha^1 .. alpha^4`` as roots: the designed distance 5.
    """

    @pytest.mark.parametrize("m", [4, 5, 6])
    def test_full_length_code_has_2m_parity_bits(self, m):
        code = bch_dec_code((1 << m) - 1 - 2 * m, m=m)
        assert code.n == (1 << m) - 1
        assert code.p == 2 * m

    @pytest.mark.parametrize("k, m", [(7, 4), (16, 5), (64, 7)])
    def test_codewords_have_designed_roots(self, k, m):
        fld = field(m)
        _, pivots = gf2.row_reduce(_raw_parity_check_matrix(fld))
        non_pivots = [c for c in range(fld.order) if c not in pivots]
        # Data positions are the first k non-pivot coordinates; parity
        # position k + i is row i's pivot coordinate.
        coordinate = non_pivots[:k] + list(pivots)
        code = bch_dec_code(k, m=m)
        data = np.random.default_rng(k).integers(0, 2, size=(20, k), dtype=np.uint8)
        for codeword in code.encode(data):
            for root in range(1, 5):
                value = 0
                for position in np.flatnonzero(codeword):
                    value ^= fld.alpha_power(root * coordinate[position])
                assert value == 0, (root, codeword)
