"""Unit tests for single-trit values and the Fig. 1 logic operations."""

import pytest

from repro.ternary import (
    NEG, POS, ZERO, Trit,
    trit_and, trit_nti, trit_or, trit_pti, trit_sti, trit_xor,
)

ALL = (NEG, ZERO, POS)


class TestTritValidation:
    def test_valid_trits_pass(self):
        for value in ALL:
            assert Trit.validate(value) == value

    @pytest.mark.parametrize("bad", [2, -2, 3, 0.5, "1"])
    def test_invalid_trits_raise(self, bad):
        with pytest.raises(ValueError):
            Trit.validate(bad)

    def test_symbols(self):
        assert [Trit.to_symbol(value) for value in ALL] == ["T", "0", "1"]

    def test_to_symbol_rejects_non_trits(self):
        with pytest.raises(ValueError):
            Trit.to_symbol(2)


class TestDyadicGates:
    def test_and_is_minimum(self):
        for a in ALL:
            for b in ALL:
                assert trit_and(a, b) == min(a, b)

    def test_or_is_maximum(self):
        for a in ALL:
            for b in ALL:
                assert trit_or(a, b) == max(a, b)

    def test_xor_truth_table(self):
        # Carry-free balanced sum: addition modulo 3 mapped to {-1, 0, +1}.
        expected = {
            (NEG, NEG): POS, (NEG, ZERO): NEG, (NEG, POS): ZERO,
            (ZERO, NEG): NEG, (ZERO, ZERO): ZERO, (ZERO, POS): POS,
            (POS, NEG): ZERO, (POS, ZERO): POS, (POS, POS): NEG,
        }
        for (a, b), value in expected.items():
            assert trit_xor(a, b) == value

    def test_gates_are_commutative(self):
        for a in ALL:
            for b in ALL:
                assert trit_and(a, b) == trit_and(b, a)
                assert trit_or(a, b) == trit_or(b, a)
                assert trit_xor(a, b) == trit_xor(b, a)


class TestInverters:
    def test_sti_table(self):
        assert [trit_sti(v) for v in ALL] == [POS, ZERO, NEG]

    def test_nti_table(self):
        assert [trit_nti(v) for v in ALL] == [POS, NEG, NEG]

    def test_pti_table(self):
        assert [trit_pti(v) for v in ALL] == [POS, POS, NEG]

    def test_sti_is_an_involution(self):
        for value in ALL:
            assert trit_sti(trit_sti(value)) == value

    def test_nti_pti_relation(self):
        # NTI(x) == STI(PTI(STI(x))) holds for the conventional tables.
        for value in ALL:
            assert trit_nti(value) == trit_sti(trit_pti(trit_sti(value)))
