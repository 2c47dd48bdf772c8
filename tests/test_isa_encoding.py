"""Tests for the ART-9 ISA: registers, instruction specs, encode/decode."""

import pytest
from hypothesis import given, strategies as st

from repro.isa import (
    Instruction,
    decode_instruction,
    encode_instruction,
    spec_for,
    register_index,
    register_name,
    DecodeError,
)
from repro.isa.encoder import EncodeError, check_imm_fits
from repro.isa.formats import ENCODING_TABLE, imm_range
from repro.isa.instructions import ARCHITECTURAL_MNEMONICS, INSTRUCTION_SPECS
from repro.isa.registers import field_to_index, index_to_field
from repro.ternary.word import TernaryWord


class TestRegisters:
    def test_round_trip_names(self):
        for index in range(9):
            assert register_index(register_name(index)) == index

    def test_aliases(self):
        assert register_index("sp") == 7
        assert register_index("ra") == 8
        assert register_index("zero") == 0

    def test_bad_register_rejected(self):
        with pytest.raises(ValueError):
            register_index("T9")
        with pytest.raises(ValueError):
            register_name(9)

    def test_field_encoding_round_trip(self):
        for index in range(9):
            assert field_to_index(index_to_field(index)) == index

    def test_field_range(self):
        assert index_to_field(0) == -4
        assert index_to_field(8) == 4
        with pytest.raises(ValueError):
            field_to_index(5)


class TestInstructionSpecs:
    def test_exactly_24_architectural_instructions(self):
        assert len(ARCHITECTURAL_MNEMONICS) == 24

    def test_table1_categories(self):
        by_category = {}
        for mnemonic in ARCHITECTURAL_MNEMONICS:
            by_category.setdefault(INSTRUCTION_SPECS[mnemonic].category, []).append(mnemonic)
        assert len(by_category["R"]) == 12
        assert len(by_category["I"]) == 6
        assert len(by_category["B"]) == 4
        assert len(by_category["M"]) == 2

    def test_every_mnemonic_has_an_encoding(self):
        for mnemonic in INSTRUCTION_SPECS:
            assert mnemonic in ENCODING_TABLE

    def test_dataflow_flags(self):
        assert spec_for("ADD").reads_ta and spec_for("ADD").reads_tb
        assert not spec_for("MV").reads_ta and spec_for("MV").reads_tb
        assert spec_for("LI").reads_ta          # LI keeps the upper trits
        assert not spec_for("LUI").reads_ta
        assert spec_for("STORE").reads_ta and not spec_for("STORE").writes_ta
        assert spec_for("LOAD").writes_ta

    def test_nop_is_addi_zero(self):
        nop = Instruction.nop()
        assert (nop.mnemonic, nop.ta, nop.imm) == ("ADDI", 0, 0)

    def test_unknown_mnemonic_rejected(self):
        with pytest.raises(ValueError):
            spec_for("FOO")

    def test_render(self):
        assert Instruction("ADD", ta=1, tb=2).render() == "ADD T1, T2"
        assert Instruction("BEQ", tb=3, branch_trit=-1, imm=5).render() == "BEQ T3, -1, 5"
        assert Instruction("HALT").render() == "HALT"


def _sample_instruction(mnemonic: str) -> Instruction:
    spec = spec_for(mnemonic)
    lo, hi = imm_range(mnemonic)
    fields = {}
    if "ta" in spec.operands:
        fields["ta"] = 3
    if "tb" in spec.operands:
        fields["tb"] = 6
    if "branch_trit" in spec.operands:
        fields["branch_trit"] = -1
    if "imm" in spec.operands:
        fields["imm"] = hi  # extreme value exercises the full field
    return Instruction(mnemonic, **fields)


class TestEncodeDecode:
    @pytest.mark.parametrize("mnemonic", sorted(INSTRUCTION_SPECS))
    def test_round_trip_every_mnemonic(self, mnemonic):
        instruction = _sample_instruction(mnemonic)
        word = encode_instruction(instruction)
        assert word.width == 9
        decoded = decode_instruction(word)
        assert decoded.mnemonic == mnemonic
        assert decoded.ta == instruction.ta
        assert decoded.tb == instruction.tb
        assert decoded.imm == instruction.imm
        assert decoded.branch_trit == instruction.branch_trit

    def test_out_of_range_immediate_rejected(self):
        with pytest.raises(EncodeError):
            encode_instruction(Instruction("ADDI", ta=0, imm=14))
        assert not check_imm_fits("ADDI", 14)
        assert check_imm_fits("ADDI", 13)

    def test_unresolved_label_rejected(self):
        with pytest.raises(EncodeError):
            encode_instruction(Instruction("BEQ", tb=0, branch_trit=0, label="loop"))

    def test_missing_operand_rejected(self):
        with pytest.raises(EncodeError):
            encode_instruction(Instruction("ADD", ta=1))

    def test_decode_rejects_wrong_width(self):
        with pytest.raises(DecodeError):
            decode_instruction(TernaryWord(0, width=5))

    def test_decode_rejects_undefined_pattern(self):
        # EXT0 / R-group-B with an unused funct value has no instruction.
        word = TernaryWord.from_trits([0, 0, 0, 0, -1, -1, 1, 0, 1], width=9)
        with pytest.raises(DecodeError):
            decode_instruction(word)


imm_strategy = st.integers(min_value=-13, max_value=13)


class TestEncodingProperties:
    @given(st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=8))
    def test_r_type_round_trip(self, ta, tb):
        for mnemonic in ("ADD", "SUB", "COMP", "MV"):
            word = encode_instruction(Instruction(mnemonic, ta=ta, tb=tb))
            decoded = decode_instruction(word)
            assert (decoded.mnemonic, decoded.ta, decoded.tb) == (mnemonic, ta, tb)

    @given(st.integers(min_value=0, max_value=8), imm_strategy)
    def test_addi_round_trip(self, ta, imm):
        decoded = decode_instruction(encode_instruction(Instruction("ADDI", ta=ta, imm=imm)))
        assert (decoded.ta, decoded.imm) == (ta, imm)

    @given(st.integers(min_value=0, max_value=8),
           st.sampled_from([-1, 0, 1]),
           st.integers(min_value=-40, max_value=40))
    def test_branch_round_trip(self, tb, trit, imm):
        decoded = decode_instruction(
            encode_instruction(Instruction("BNE", tb=tb, branch_trit=trit, imm=imm)))
        assert (decoded.tb, decoded.branch_trit, decoded.imm) == (tb, trit, imm)

    def test_all_encodings_are_distinct(self):
        words = set()
        for mnemonic in INSTRUCTION_SPECS:
            words.add(str(encode_instruction(_sample_instruction(mnemonic))))
        assert len(words) == len(INSTRUCTION_SPECS)
