"""Unit and property tests for integer <-> balanced trit conversion."""

import pytest
from hypothesis import given, strategies as st

from repro.ternary.conversion import (
    balanced_range,
    int_to_trits,
    min_trits_for,
    to_balanced_range,
    trits_to_int,
)


class TestRanges:
    def test_balanced_range_width_9(self):
        assert balanced_range(9) == (-9841, 9841)

    def test_balanced_range_width_1(self):
        assert balanced_range(1) == (-1, 1)

    def test_bad_width_raises(self):
        with pytest.raises(ValueError):
            balanced_range(0)

    def test_wrap_positive_overflow(self):
        assert to_balanced_range(9842, 9) == -9841

    def test_wrap_negative_overflow(self):
        assert to_balanced_range(-9842, 9) == 9841

    def test_wrap_identity_inside_range(self):
        for value in (-9841, -1, 0, 1, 9841):
            assert to_balanced_range(value, 9) == value


class TestConversions:
    @pytest.mark.parametrize("value,expected", [
        (0, [0, 0, 0]),
        (1, [1, 0, 0]),
        (-1, [-1, 0, 0]),
        (5, [-1, -1, 1]),      # 5 = 9 - 3 - 1
        (13, [1, 1, 1]),
        (-13, [-1, -1, -1]),
    ])
    def test_known_encodings(self, value, expected):
        assert int_to_trits(value, 3) == expected

    def test_round_trip_full_width9_sample(self):
        for value in range(-9841, 9842, 97):
            assert trits_to_int(int_to_trits(value, 9)) == value

    def test_trits_to_int_rejects_bad_digit(self):
        with pytest.raises(ValueError):
            trits_to_int([0, 2, 0])

    def test_min_trits_for(self):
        assert min_trits_for(0) == 1
        assert min_trits_for(1) == 1
        assert min_trits_for(2) == 2
        assert min_trits_for(13) == 3
        assert min_trits_for(14) == 4
        assert min_trits_for(-121) == 5
        assert min_trits_for(-122) == 6

class TestConversionProperties:
    @given(st.integers(min_value=-9841, max_value=9841))
    def test_round_trip_is_identity(self, value):
        assert trits_to_int(int_to_trits(value, 9)) == value

    @given(st.integers(), st.integers(min_value=1, max_value=12))
    def test_wrap_preserves_congruence_mod_3n(self, value, width):
        wrapped = to_balanced_range(value, width)
        assert (wrapped - value) % (3 ** width) == 0
        lo, hi = balanced_range(width)
        assert lo <= wrapped <= hi

    @given(st.integers(min_value=-9841, max_value=9841))
    def test_digits_are_balanced(self, value):
        assert all(t in (-1, 0, 1) for t in int_to_trits(value, 9))

    @given(st.integers(min_value=-9841, max_value=9841))
    def test_negation_flips_every_trit(self, value):
        positive = int_to_trits(value, 9)
        negative = int_to_trits(-value, 9)
        assert negative == [-t for t in positive]
