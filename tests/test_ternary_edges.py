"""Edge-case tests for :mod:`repro.ternary`.

Focus areas the example-based unit tests leave uncovered: wraparound
behaviour exactly at the representable boundary ±(3**9 − 1)/2 = ±9841,
algebraic identities of the word arithmetic (negation is an involution,
addition and subtraction invert each other *through* the wrap), and the
width-validation error paths of :class:`TernaryWord`.
"""

import pytest

from repro.ternary.arithmetic import add_words, mul_words, negate_word, sub_words
from repro.ternary.conversion import balanced_range, to_balanced_range
from repro.ternary.word import WORD_TRITS, TernaryWord

MOD = 3 ** WORD_TRITS
HALF = (MOD - 1) // 2

#: Values at and around every interesting boundary.
_EDGES = (
    0, 1, -1, HALF, -HALF, HALF - 1, -(HALF - 1),
    HALF + 1, -(HALF + 1), MOD, -MOD, MOD + 1, 2 * MOD + 5,
)


class TestWraparound:
    def test_range_boundaries_are_representable(self):
        assert TernaryWord(HALF).value == HALF
        assert TernaryWord(-HALF).value == -HALF
        assert TernaryWord.value_range() == (-HALF, HALF)
        assert balanced_range(WORD_TRITS) == (-HALF, HALF)

    def test_one_past_the_boundary_wraps_to_the_other_end(self):
        assert TernaryWord(HALF + 1).value == -HALF
        assert TernaryWord(-(HALF + 1)).value == HALF

    @pytest.mark.parametrize("value", _EDGES)
    def test_constructor_wrap_matches_to_balanced_range(self, value):
        assert TernaryWord(value).value == to_balanced_range(value, WORD_TRITS)

    def test_adder_wrap_equals_constructor_wrap(self):
        # Adding 1 at the positive extreme lands at the negative extreme,
        # exactly like dropping the carry out of the top trit.
        top = TernaryWord(HALF)
        one = TernaryWord(1)
        assert add_words(top, one).value == -HALF
        assert sub_words(TernaryWord(-HALF), one).value == HALF

    def test_unsigned_view_of_negative_values(self):
        assert TernaryWord(-1).unsigned == MOD - 1
        assert TernaryWord(-HALF).unsigned == HALF + 1
        assert TernaryWord(0).unsigned == 0


class TestArithmeticIdentities:
    @pytest.mark.parametrize("value", _EDGES)
    def test_negate_is_an_involution(self, value):
        word = TernaryWord(value)
        assert negate_word(negate_word(word)) == word
        # Negation never wraps: the balanced range is symmetric.
        assert negate_word(word).value == -word.value

    @pytest.mark.parametrize("a", (0, 1, -40, 4000, HALF, -HALF))
    @pytest.mark.parametrize("b", (0, 1, -1, 121, HALF, -HALF))
    def test_add_then_sub_is_identity_through_the_wrap(self, a, b):
        wa, wb = TernaryWord(a), TernaryWord(b)
        assert sub_words(add_words(wa, wb), wb) == wa
        assert add_words(sub_words(wa, wb), wb) == wa

    @pytest.mark.parametrize("a", (0, 1, -40, 4000, HALF))
    def test_subtracting_self_is_zero(self, a):
        word = TernaryWord(a)
        assert sub_words(word, word).value == 0
        assert add_words(word, negate_word(word)).value == 0

    def test_multiplication_by_negative_one_negates(self):
        for value in (0, 7, -13, 4000, HALF):
            word = TernaryWord(value)
            assert mul_words(word, TernaryWord(-1)) == negate_word(word)
            assert mul_words(word, TernaryWord(1)) == word
            assert mul_words(word, TernaryWord(0)).value == 0


class TestWidthValidation:
    def test_nonpositive_width_rejected(self):
        with pytest.raises(ValueError):
            TernaryWord(0, width=0)
        with pytest.raises(ValueError):
            TernaryWord(0, width=-3)

    def test_trit_sequence_must_match_width_exactly(self):
        with pytest.raises(ValueError):
            TernaryWord([1, 0, -1], width=9)
        with pytest.raises(ValueError):
            TernaryWord([0] * 10, width=9)

    def test_invalid_trit_values_rejected(self):
        with pytest.raises(ValueError):
            TernaryWord([2] + [0] * 8)
        with pytest.raises(ValueError):
            TernaryWord([0] * 8 + [-2])

    def test_from_trits_rejects_overflow_but_pads_short_input(self):
        with pytest.raises(ValueError):
            TernaryWord.from_trits([0] * 10)
        padded = TernaryWord.from_trits([1, -1])
        assert padded.width == WORD_TRITS
        assert padded.value == 1 - 3

    def test_slice_bounds_checked(self):
        word = TernaryWord(100)
        with pytest.raises(ValueError):
            word.slice(9, 0)
        with pytest.raises(ValueError):
            word.slice(2, 5)
        with pytest.raises(ValueError):
            word.slice(3, -1)

    def test_replace_low_rejects_wider_replacement(self):
        word = TernaryWord(0, width=4)
        with pytest.raises(ValueError):
            TernaryWord(0, width=3).replace_low(word)
