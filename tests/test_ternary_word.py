"""Unit and property tests for TernaryWord."""

import pytest
from hypothesis import given, strategies as st

from repro.ternary import TernaryWord, WORD_TRITS, to_balanced_range, trits_to_int

word_values = st.integers(min_value=-9841, max_value=9841)
widths = st.integers(min_value=1, max_value=12)
trits = st.sampled_from((-1, 0, 1))


class TestConstruction:
    def test_default_is_zero(self):
        assert TernaryWord().value == 0
        assert TernaryWord.zero().value == 0

    def test_from_int_round_trip(self):
        assert TernaryWord(742).value == 742
        assert TernaryWord(-9841).value == -9841

    def test_out_of_range_wraps(self):
        assert TernaryWord(9842).value == -9841

    def test_from_trits_requires_exact_width(self):
        with pytest.raises(ValueError):
            TernaryWord([1, 0], width=9)

    def test_from_trits_classmethod_pads(self):
        word = TernaryWord.from_trits([1, -1])
        assert word.width == WORD_TRITS
        assert word.value == 1 - 3

    def test_str_is_most_significant_first(self):
        assert str(TernaryWord(2)) == "00000001T"

    def test_invalid_trit_rejected(self):
        with pytest.raises(ValueError):
            TernaryWord([2] + [0] * 8)


class TestAccessors:
    def test_lst_and_trit(self):
        word = TernaryWord(5)  # trits little-endian: -1, -1, 1
        assert word.lst == -1
        assert word.trit(2) == 1

    def test_slice_matches_field_notation(self):
        word = TernaryWord.from_trits([1, 0, -1, 1, 0, 0, 0, 0, 0])
        assert word.slice(2, 0).trits == (1, 0, -1)
        assert word.slice(3, 3).value == 1

    def test_slice_bounds_checked(self):
        with pytest.raises(ValueError):
            TernaryWord(0).slice(9, 0)

    def test_replace_low_implements_li(self):
        original = TernaryWord(9 ** 4)          # some value with high trits set
        low = TernaryWord(7, width=5)
        replaced = original.replace_low(low)
        assert replaced.trits[:5] == low.trits
        assert replaced.trits[5:] == original.trits[5:]

    def test_unsigned_view(self):
        assert TernaryWord(-1).unsigned == 3 ** 9 - 1


class TestEqualityHashing:
    def test_equal_to_int(self):
        assert TernaryWord(5) == 5
        assert TernaryWord(5) != 6

    def test_hashable(self):
        assert len({TernaryWord(1), TernaryWord(1), TernaryWord(2)}) == 2

    def test_iteration_and_len(self):
        word = TernaryWord(5)
        assert len(word) == WORD_TRITS
        assert list(word) == list(word.trits)


class TestWordProperties:
    @given(word_values)
    def test_value_round_trip(self, value):
        assert TernaryWord(value).value == value

    @given(word_values)
    def test_str_parse_round_trip(self, value):
        text = str(TernaryWord(value))
        assert len(text) == WORD_TRITS
        digits = {"T": -1, "0": 0, "1": 1}
        assert sum(digits[symbol] * 3 ** power
                   for power, symbol in enumerate(reversed(text))) == value

    @given(word_values, st.integers(min_value=0, max_value=8))
    def test_slice_single_trit_matches_trit(self, value, index):
        word = TernaryWord(value)
        assert word.slice(index, index).value == word.trit(index)


def assert_cached_value(word):
    """The first read fills the value cache; both reads match the trits."""
    expected = trits_to_int(word.trits)
    assert word.value == expected
    assert word.value == expected


class TestCachedValue:
    @given(st.integers(), widths)
    def test_from_int(self, value, width):
        word = TernaryWord(value, width)
        assert_cached_value(word)
        assert word.value == to_balanced_range(value, width)

    @given(st.lists(trits, min_size=1, max_size=12))
    def test_from_trit_sequence(self, digits):
        assert_cached_value(TernaryWord(digits, len(digits)))
        assert_cached_value(TernaryWord(tuple(digits), len(digits)))

    @given(st.lists(trits, min_size=1, max_size=12))
    def test_from_generator(self, digits):
        word = TernaryWord((digit for digit in digits), len(digits))
        assert word.trits == tuple(digits)
        assert_cached_value(word)

    @given(word_values, st.data())
    def test_slice(self, value, data):
        word = TernaryWord(value)
        assert_cached_value(word)  # a cached parent must not leak into the slice
        lo = data.draw(st.integers(min_value=0, max_value=WORD_TRITS - 1))
        hi = data.draw(st.integers(min_value=lo, max_value=WORD_TRITS - 1))
        assert_cached_value(word.slice(hi, lo))

    @given(word_values, st.integers(min_value=-121, max_value=121))
    def test_replace_low(self, value, low):
        word = TernaryWord(value)
        assert_cached_value(word)
        assert_cached_value(word.replace_low(TernaryWord(low, 5)))


class TestTritValidation:
    @given(st.lists(trits, min_size=1, max_size=12), st.data())
    def test_non_trit_elements_raise(self, digits, data):
        bad = data.draw(st.integers().filter(lambda v: v not in (-1, 0, 1)))
        index = data.draw(st.integers(min_value=0, max_value=len(digits) - 1))
        digits[index] = bad
        with pytest.raises(ValueError):
            TernaryWord(digits, len(digits))
        with pytest.raises(ValueError):
            TernaryWord(iter(digits), len(digits))
