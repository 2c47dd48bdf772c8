"""Tests for the simulator components: memory, register file, TALU."""

import pytest
from hypothesis import given, strategies as st

from repro.sim import MemoryError_, TernaryALU, TernaryMemory, TernaryRegisterFile
from repro.ternary import TernaryWord, to_balanced_range, trits_to_int

values = st.integers(min_value=-9841, max_value=9841)


class TestTernaryMemory:
    def test_uninitialised_reads_zero(self):
        memory = TernaryMemory(depth=64)
        assert memory.read_int(10) == 0

    def test_write_read_round_trip(self):
        memory = TernaryMemory(depth=64)
        memory.write_int(5, -321)
        assert memory.read_int(5) == -321

    def test_out_of_range_rejected(self):
        memory = TernaryMemory(depth=8)
        with pytest.raises(MemoryError_):
            memory.read(8)
        with pytest.raises(MemoryError_):
            memory.write_int(-1, 0)

    def test_effective_address_wraps_negative_base(self):
        base = TernaryWord(-1)
        assert TernaryMemory.effective_address(base, 0) == 3 ** 9 - 1
        assert TernaryMemory.effective_address(TernaryWord(10), -3) == 7

    def test_bulk_helpers(self):
        memory = TernaryMemory(depth=32, name="TDM")
        memory.load_words([1, 2, 3], base=4)
        assert memory.dump(4, 3) == [1, 2, 3]
        assert memory.contents() == {4: 1, 5: 2, 6: 3}
        memory.clear()
        assert memory.contents() == {}

    @given(st.integers(min_value=1, max_value=64), st.integers(min_value=1, max_value=9),
           st.data())
    def test_unwritten_cell_reads_a_zero_word_and_counts(self, depth, width, data):
        memory = TernaryMemory(depth=depth, width=width)
        address = data.draw(st.integers(min_value=0, max_value=depth - 1))
        if depth > 1:
            memory.write_int((address + 1) % depth, 1)
        first = memory.read(address)
        assert first == TernaryWord.zero(width) and first.width == width
        assert memory.read(address).value == 0

    def test_width_mismatch_rejected(self):
        memory = TernaryMemory(depth=8)
        with pytest.raises(ValueError):
            memory.write(0, TernaryWord(0, width=5))


class TestRegisterFile:
    def test_reset_state_is_zero(self):
        trf = TernaryRegisterFile()
        assert all(value == 0 for value in trf.snapshot().values())

    def test_write_read(self):
        trf = TernaryRegisterFile()
        trf.write_int(3, 123)
        assert trf.read_int(3) == 123
        assert trf.snapshot()["T3"] == 123

    def test_bad_index_rejected(self):
        trf = TernaryRegisterFile()
        with pytest.raises(ValueError):
            trf.read(9)

    def test_reset(self):
        trf = TernaryRegisterFile()
        trf.write_int(1, 5)
        trf.reset()
        assert trf.read_int(1) == 0


class TestTernaryALU:
    def setup_method(self):
        self.alu = TernaryALU()

    def test_unknown_operation_rejected(self):
        with pytest.raises(ValueError):
            self.alu.compute("BEQ", TernaryWord(0))

    @given(values, values)
    def test_add_sub(self, a, b):
        assert self.alu.compute("ADD", TernaryWord(a), TernaryWord(b)).value == \
            to_balanced_range(a + b, 9)
        assert self.alu.compute("SUB", TernaryWord(a), TernaryWord(b)).value == \
            to_balanced_range(a - b, 9)

    @given(values, values)
    def test_comp_sets_sign_word(self, a, b):
        result = self.alu.compute("COMP", TernaryWord(a), TernaryWord(b))
        expected = 0 if a == b else (1 if a > b else -1)
        assert result.value == expected
        assert result.lst == expected

    def test_mv_and_inverters_use_operand_b(self):
        a, b = TernaryWord(111), TernaryWord(-42)
        assert self.alu.compute("MV", a, b).value == -42
        assert self.alu.compute("STI", a, b).value == 42

    def test_immediate_operations(self):
        a = TernaryWord(100)
        assert self.alu.compute("ADDI", a, imm=13).value == 113
        assert self.alu.compute("SLI", a, imm=1).value == 300
        assert self.alu.compute("SRI", a, imm=1).value == 33  # nearest

    def test_lui_li_build_constants(self):
        high = self.alu.compute("LUI", TernaryWord(0), imm=3)
        assert high.value == 3 * 243
        combined = self.alu.compute("LI", high, imm=-7)
        assert combined.value == 3 * 243 - 7

    def test_shift_by_register_amount(self):
        assert self.alu.compute("SL", TernaryWord(10), TernaryWord(2)).value == 90
        assert self.alu.compute("SR", TernaryWord(90), TernaryWord(2)).value == 10

    @given(st.sampled_from(TernaryALU.OPERATIONS), values, values,
           st.integers(min_value=-121, max_value=121))
    def test_every_result_caches_its_trit_value(self, mnemonic, a, b, imm):
        result = self.alu.compute(mnemonic, TernaryWord(a), TernaryWord(b), imm=imm)
        expected = trits_to_int(result.trits)
        assert result.value == expected
        assert result.value == expected
