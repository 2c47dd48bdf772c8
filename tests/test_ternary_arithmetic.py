"""Unit and property tests for word-level balanced ternary arithmetic."""

import pytest
from hypothesis import given, strategies as st

from repro.ternary import (
    TernaryWord,
    add_trits,
    add_words,
    compare_words,
    divmod_by_power_of_three,
    full_adder,
    mul_words,
    negate_word,
    shift_left,
    shift_right,
    sub_words,
    to_balanced_range,
)
from repro.ternary.arithmetic import shift_amount_from_word

values = st.integers(min_value=-9841, max_value=9841)
small_values = st.integers(min_value=-90, max_value=90)
trits = st.sampled_from((-1, 0, 1))


class TestFullAdder:
    def test_all_27_input_combinations(self):
        for a in (-1, 0, 1):
            for b in (-1, 0, 1):
                for carry in (-1, 0, 1):
                    total, carry_out = full_adder(a, b, carry)
                    assert total in (-1, 0, 1)
                    assert carry_out in (-1, 0, 1)
                    assert total + 3 * carry_out == a + b + carry

    @given(st.lists(st.tuples(trits, trits), min_size=1, max_size=12), trits)
    def test_add_trits_is_a_ripple_of_full_adders(self, pairs, carry_in):
        a_trits = [a for a, _ in pairs]
        b_trits = [b for _, b in pairs]
        expected, carry = [], carry_in
        for a, b in pairs:
            total, carry = full_adder(a, b, carry)
            expected.append(total)
        assert add_trits(a_trits, b_trits, carry_in) == (expected, carry)


class TestAddSub:
    def test_simple_addition(self):
        assert add_words(TernaryWord(700), TernaryWord(42)).value == 742

    def test_addition_wraps_at_word_boundary(self):
        assert add_words(TernaryWord(9841), TernaryWord(1)).value == -9841

    def test_subtraction(self):
        assert sub_words(TernaryWord(10), TernaryWord(25)).value == -15

    def test_negation_is_sti_of_every_trit(self):
        word = TernaryWord(1234)
        assert negate_word(word).value == -1234

    @given(values, values)
    def test_add_matches_integer_addition(self, a, b):
        expected = to_balanced_range(a + b, 9)
        assert add_words(TernaryWord(a), TernaryWord(b)).value == expected

    @given(values, values)
    def test_sub_matches_integer_subtraction(self, a, b):
        expected = to_balanced_range(a - b, 9)
        assert sub_words(TernaryWord(a), TernaryWord(b)).value == expected

    @given(values)
    def test_x_minus_x_is_zero(self, a):
        assert sub_words(TernaryWord(a), TernaryWord(a)).value == 0


class TestMultiply:
    @given(small_values, small_values)
    def test_mul_matches_integer_multiplication(self, a, b):
        expected = to_balanced_range(a * b, 9)
        assert mul_words(TernaryWord(a), TernaryWord(b)).value == expected

    def test_mul_by_zero_and_one(self):
        assert mul_words(TernaryWord(1234), TernaryWord(0)).value == 0
        assert mul_words(TernaryWord(1234), TernaryWord(1)).value == 1234
        assert mul_words(TernaryWord(1234), TernaryWord(-1)).value == -1234


class TestShifts:
    def test_shift_left_multiplies_by_three(self):
        assert shift_left(TernaryWord(5), 1).value == 15
        assert shift_left(TernaryWord(5), 2).value == 45

    def test_shift_right_rounds_to_nearest(self):
        # Balanced ternary truncation rounds to the nearest integer.
        assert shift_right(TernaryWord(5), 1).value == 2   # 5/3 = 1.67 -> 2
        assert shift_right(TernaryWord(4), 1).value == 1   # 4/3 = 1.33 -> 1
        assert shift_right(TernaryWord(-5), 1).value == -2

    def test_shift_by_width_clears(self):
        assert shift_left(TernaryWord(5), 9).value == 0
        assert shift_right(TernaryWord(5), 9).value == 0

    def test_negative_amount_rejected(self):
        with pytest.raises(ValueError):
            shift_left(TernaryWord(1), -1)
        with pytest.raises(ValueError):
            shift_right(TernaryWord(1), -1)

    @given(values, st.integers(min_value=0, max_value=8))
    def test_left_then_right_recovers_value_when_no_overflow(self, value, amount):
        if abs(value) <= 9841 // (3 ** amount):
            word = TernaryWord(value)
            assert shift_right(shift_left(word, amount), amount).value == value

    @given(values, st.integers(min_value=0, max_value=8))
    def test_shift_right_is_nearest_division(self, value, amount):
        shifted = shift_right(TernaryWord(value), amount).value
        exact = value / (3 ** amount)
        assert abs(shifted - exact) <= 0.5

    def test_shift_amount_decoding(self):
        assert shift_amount_from_word(TernaryWord(4)) == 4
        assert shift_amount_from_word(TernaryWord(-4)) == 5   # wraps modulo 9
        assert shift_amount_from_word(TernaryWord(0)) == 0


class TestCompare:
    @given(values, values)
    def test_compare_matches_integer_comparison(self, a, b):
        expected = 0 if a == b else (1 if a > b else -1)
        assert compare_words(TernaryWord(a), TernaryWord(b)) == expected

    @pytest.mark.parametrize("narrow_first", [True, False])
    def test_compare_rejects_mismatched_widths(self, narrow_first):
        pair = [TernaryWord(4, 5), TernaryWord(4)]
        if not narrow_first:
            pair.reverse()
        with pytest.raises(ValueError):
            compare_words(*pair)

    def test_divmod_by_power_of_three(self):
        quotient, remainder = divmod_by_power_of_three(TernaryWord(100), 2)
        assert quotient.value == shift_right(TernaryWord(100), 2).value
        assert remainder.value == 100 - quotient.value * 9
