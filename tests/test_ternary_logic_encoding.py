"""Tests for word-level logic and the binary-encoded ternary representation."""

import pytest
from hypothesis import given, strategies as st

from repro.ternary import (
    TernaryWord,
    bits_for_word,
    decode_trit,
    decode_word,
    encode_trit,
    encode_word,
    word_and,
    word_nti,
    word_or,
    word_pti,
    word_sti,
    word_xor,
)
from repro.ternary.encoding import EncodingError
from repro.ternary.trit import trit_and, trit_or, trit_xor

values = st.integers(min_value=-9841, max_value=9841)


class TestWordLogic:
    @given(values, values)
    def test_and_or_are_tritwise_min_max(self, a, b):
        wa, wb = TernaryWord(a), TernaryWord(b)
        assert word_and(wa, wb).trits == tuple(min(x, y) for x, y in zip(wa.trits, wb.trits))
        assert word_or(wa, wb).trits == tuple(max(x, y) for x, y in zip(wa.trits, wb.trits))

    @given(values, values)
    def test_xor_is_tritwise(self, a, b):
        wa, wb = TernaryWord(a), TernaryWord(b)
        assert word_xor(wa, wb).trits == tuple(trit_xor(x, y) for x, y in zip(wa.trits, wb.trits))

    @given(values)
    def test_sti_negates(self, a):
        assert word_sti(TernaryWord(a)).value == -a

    @given(values)
    def test_de_morgan_style_duality(self, a):
        # STI(AND(x, y)) == OR(STI(x), STI(y)) because min/max are dual under negation.
        other = TernaryWord(1234)
        word = TernaryWord(a)
        assert word_sti(word_and(word, other)) == word_or(word_sti(word), word_sti(other))

    def test_nti_pti_extremes(self):
        word = TernaryWord.from_trits([-1, 0, 1])
        assert word_nti(word).trits[:3] == (1, -1, -1)
        assert word_pti(word).trits[:3] == (1, 1, -1)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            word_and(TernaryWord(0, width=9), TernaryWord(0, width=5))


class TestBinaryEncoding:
    def test_trit_encoding_table(self):
        assert encode_trit(0) == 0b00
        assert encode_trit(1) == 0b01
        assert encode_trit(-1) == 0b10

    def test_illegal_patterns_rejected(self):
        with pytest.raises(EncodingError):
            decode_trit(0b11)
        with pytest.raises(EncodingError):
            encode_trit(2)

    def test_word_occupies_two_bits_per_trit(self):
        encoded = encode_word(TernaryWord(42))
        assert encoded.bit_length == 18
        assert bits_for_word(9) == 18

    @given(values)
    def test_encode_decode_round_trip(self, value):
        word = TernaryWord(value)
        assert decode_word(encode_word(word)) == word
