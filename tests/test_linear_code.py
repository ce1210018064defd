"""Unit and property tests for SystematicCode."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ecc import gf2
from repro.ecc.hamming import paper_example_code, random_sec_code
from repro.ecc.linear_code import SystematicCode


@pytest.fixture(scope="module")
def code74():
    return paper_example_code()


@pytest.fixture(scope="module")
def code71():
    return random_sec_code(64, np.random.default_rng(11))


def sec_code_strategy():
    return st.builds(
        lambda k, seed: random_sec_code(k, np.random.default_rng(seed)),
        k=st.integers(min_value=4, max_value=26),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )


class TestStructure:
    def test_dimensions(self, code74):
        assert (code74.n, code74.k, code74.p) == (7, 4, 3)
        assert code74.parity_check_matrix.shape == (3, 7)
        assert code74.generator_matrix_t.shape == (4, 7)

    def test_g_h_orthogonality(self, code74):
        product = gf2.matmul(code74.generator_matrix_t, code74.parity_check_matrix.T)
        assert not product.any()

    @settings(max_examples=25)
    @given(sec_code_strategy())
    def test_g_h_orthogonality_random(self, code):
        product = gf2.matmul(code.generator_matrix_t, code.parity_check_matrix.T)
        assert not product.any()

    def test_systematic_identity_blocks(self, code74):
        h = code74.parity_check_matrix
        assert (h[:, code74.k :] == gf2.identity(code74.p)).all()
        g = code74.generator_matrix_t
        assert (g[:, : code74.k] == gf2.identity(code74.k)).all()

    def test_all_columns_distinct_nonzero(self, code71):
        columns = [code71.column_int(i) for i in range(code71.n)]
        assert 0 not in columns
        assert len(set(columns)) == code71.n

    def test_rejects_aliasing_code(self):
        # Two identical parity columns cannot be distinguished by syndrome.
        parity = np.array([[1, 1], [1, 1]], dtype=np.uint8)
        with pytest.raises(ValueError):
            SystematicCode(parity, correction_capability=1)

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            SystematicCode(np.array([[2, 0]], dtype=np.uint8))

    def test_equality_and_hash(self, code74):
        clone = paper_example_code()
        assert code74 == clone
        assert hash(code74) == hash(clone)


class TestEncode:
    def test_data_bits_preserved(self, code71):
        rng = np.random.default_rng(0)
        data = rng.integers(0, 2, code71.k, dtype=np.uint8)
        codeword = code71.encode(data)
        assert (codeword[: code71.k] == data).all()

    def test_zero_maps_to_zero(self, code71):
        assert not code71.encode(np.zeros(code71.k, dtype=np.uint8)).any()

    def test_batch_matches_single(self, code71):
        rng = np.random.default_rng(1)
        batch = rng.integers(0, 2, (5, code71.k), dtype=np.uint8)
        encoded = code71.encode(batch)
        for row in range(5):
            assert (encoded[row] == code71.encode(batch[row])).all()

    def test_linearity(self, code74):
        rng = np.random.default_rng(2)
        a = rng.integers(0, 2, code74.k, dtype=np.uint8)
        b = rng.integers(0, 2, code74.k, dtype=np.uint8)
        assert (code74.encode(a ^ b) == (code74.encode(a) ^ code74.encode(b))).all()

    def test_wrong_length_rejected(self, code74):
        with pytest.raises(ValueError):
            code74.encode(np.zeros(5, dtype=np.uint8))


class TestDecode:
    def test_clean_codeword(self, code71):
        data = np.ones(code71.k, dtype=np.uint8)
        result = code71.decode(code71.encode(data))
        assert (result.data == data).all()
        assert not result.corrected
        assert not result.detected_uncorrectable

    @settings(max_examples=25)
    @given(sec_code_strategy(), st.data())
    def test_corrects_every_single_error(self, code, data):
        """The defining SEC property: any single flipped bit is repaired."""
        position = data.draw(st.integers(min_value=0, max_value=code.n - 1))
        message = np.zeros(code.k, dtype=np.uint8)
        message[:: 2] = 1
        corrupted = code.encode(message).copy()
        corrupted[position] ^= 1
        result = code.decode(corrupted)
        assert (result.data == message).all()
        assert result.corrected_positions == (position,)

    def test_double_error_never_silently_correct(self, code71):
        """A double error either miscorrects or is flagged, never 'fixed'."""
        message = np.ones(code71.k, dtype=np.uint8)
        codeword = code71.encode(message)
        corrupted = codeword.copy()
        corrupted[3] ^= 1
        corrupted[9] ^= 1
        result = code71.decode(corrupted)
        if not result.detected_uncorrectable:
            # Miscorrection: decoder flipped some third position.
            assert result.corrected_positions not in ((3,), (9,))

    def test_syndrome_zero_for_codewords(self, code71):
        rng = np.random.default_rng(3)
        data = rng.integers(0, 2, code71.k, dtype=np.uint8)
        assert not code71.syndrome(code71.encode(data)).any()

    def test_decode_batch_matches_single(self, code71):
        rng = np.random.default_rng(4)
        batch = rng.integers(0, 2, (8, code71.k), dtype=np.uint8)
        codewords = code71.encode(batch)
        # Corrupt a different position in each word.
        for row in range(8):
            codewords[row, (row * 7) % code71.n] ^= 1
        decoded = code71.decode_batch(codewords)
        for row in range(8):
            assert (decoded[row] == code71.decode(codewords[row]).data).all()

    def test_decode_wrong_length(self, code74):
        with pytest.raises(ValueError):
            code74.decode(np.zeros(8, dtype=np.uint8))

    def test_correction_for_syndrome_zero(self, code74):
        assert code74.correction_for_syndrome(0) == ()

    def test_correction_for_unmatched_syndrome(self, code71):
        matched = {code71.column_int(i) for i in range(code71.n)}
        unmatched = next(s for s in range(1, 1 << code71.p) if s not in matched)
        assert code71.correction_for_syndrome(unmatched) is None


class TestNonHammingCodes:
    """Parity-only and repetition codes expressed as ``SystematicCode``."""

    @pytest.fixture(scope="class")
    def single_parity(self):
        return SystematicCode(np.ones((1, 4), dtype=np.uint8), correction_capability=0)

    @pytest.fixture(scope="class")
    def repetition(self):
        """The 3-bit repetition code: both parity bits copy the data bit."""
        return SystematicCode(np.ones((2, 1), dtype=np.uint8))

    def test_single_parity_codewords_have_even_weight(self, single_parity):
        data = np.array([[(v >> i) & 1 for i in range(4)] for v in range(16)], dtype=np.uint8)
        codewords = single_parity.encode(data)
        assert (codewords[:, :4] == data).all()
        assert not (codewords.sum(axis=1) % 2).any()

    def test_single_parity_detects_without_correcting(self, single_parity):
        codeword = single_parity.encode(np.array([1, 0, 1, 1], dtype=np.uint8))
        for position in range(single_parity.n):
            corrupted = codeword.copy()
            corrupted[position] ^= 1
            result = single_parity.decode(corrupted)
            assert result.detected_uncorrectable
            assert result.corrected_positions == ()
            assert (result.data == corrupted[:4]).all()

    def test_repetition_corrects_one_error(self, repetition):
        for bit in (0, 1):
            codeword = repetition.encode(np.array([bit], dtype=np.uint8))
            assert codeword.tolist() == [bit] * 3
            for position in range(3):
                corrupted = codeword.copy()
                corrupted[position] ^= 1
                result = repetition.decode(corrupted)
                assert result.corrected_positions == (position,)
                assert result.data.tolist() == [bit]

    def test_repetition_double_error_miscorrects(self, repetition):
        """Two flips look like one flip of the third bit: the decoder
        'corrects' it and returns the wrong data bit, undetected."""
        corrupted = np.array([1, 1, 0], dtype=np.uint8)  # 0 with bits 0 and 1 flipped
        result = repetition.decode(corrupted)
        assert result.corrected_positions == (2,)
        assert not result.detected_uncorrectable
        assert result.data.tolist() == [1]
        assert repetition.decode_batch(corrupted[None, :]).tolist() == [[1]]
