"""Tests for the ART-9 assembler, disassembler and Program container."""

import pytest

from repro.isa import AssemblerError, Program, assemble, disassemble_program
from repro.isa.assembler import split_constant
from repro.isa.instructions import Instruction
from repro.ternary.word import WORD_TRITS


class TestSplitConstant:
    @pytest.mark.parametrize("value", [0, 1, -1, 121, -121, 242, 743, 9841, -9841, 4567])
    def test_lui_li_reconstruction(self, value):
        high, low = split_constant(value)
        assert high * 243 + low == value
        assert -40 <= high <= 40
        assert -121 <= low <= 121


class TestAssembler:
    def test_basic_program(self):
        program = assemble("""
        .text
            ADDI T1, 5
            ADD  T1, T2
            HALT
        """)
        assert len(program) == 3
        assert program[0].mnemonic == "ADDI"
        assert program[2].mnemonic == "HALT"

    def test_labels_resolve_pc_relative(self):
        program = assemble("""
        loop:
            ADDI T1, 1
            BNE  T1, 0, loop
            HALT
        """)
        branch = program[1]
        assert branch.imm == -1  # one instruction back

    def test_forward_label(self):
        program = assemble("""
            BEQ T1, 0, done
            ADDI T2, 1
        done:
            HALT
        """)
        assert program[0].imm == 2

    def test_liw_expands_to_lui_li(self):
        program = assemble("LIW T3, 743\nHALT")
        assert [i.mnemonic for i in program] == ["LUI", "LI", "HALT"]

    def test_nop_pseudo(self):
        program = assemble("NOP\nHALT")
        assert program[0] == Instruction.nop()

    def test_beqz_bnez_pseudo(self):
        program = assemble("""
        start:
            BEQZ T2, start
            BNEZ T3, start
            HALT
        """)
        assert program[0].mnemonic == "BEQ" and program[0].branch_trit == 0
        assert program[1].mnemonic == "BNE" and program[1].branch_trit == 0

    def test_data_section_and_labels(self):
        program = assemble("""
        .text
            LIW T1, table
            LOAD T2, T1, 1
            HALT
        .data
        table: .word 5, -7, 9
               .zero 2
        """)
        assert program.data[0].values == [5, -7, 9, 0, 0]
        assert program.data_labels["table"] == 0
        # LIW of a data label materialises its absolute address (0).
        assert program[0].imm == 0 and program[1].mnemonic == "LI"

    def test_register_aliases(self):
        program = assemble("ADD SP, RA\nHALT")
        assert program[0].ta == 7 and program[0].tb == 8

    def test_comments_and_blank_lines(self):
        program = assemble("""
        # full line comment
            ADDI T1, 1   ; trailing comment
            HALT
        """)
        assert len(program) == 2

    def test_ternary_literal(self):
        program = assemble("ADDI T1, 0t1T\nHALT")
        assert program[0].imm == 2

    def test_errors_have_line_numbers(self):
        with pytest.raises(AssemblerError) as excinfo:
            assemble("ADDI T1, 99")
        assert "immediate" in str(excinfo.value)
        with pytest.raises(AssemblerError):
            assemble("FROB T1, T2")
        with pytest.raises(AssemblerError):
            assemble("ADD T1")
        with pytest.raises(AssemblerError):
            assemble("BEQ T1, 2, 0\nHALT")  # branch trit must be -1/0/1
        with pytest.raises(AssemblerError):
            assemble("BEQ T1, 0, nowhere")

    def test_undefined_and_duplicate_labels(self):
        with pytest.raises(AssemblerError):
            assemble("JAL T8, missing\nHALT")
        with pytest.raises(ValueError):
            assemble("a:\nADDI T1, 1\na:\nHALT")


class TestProgram:
    def test_memory_footprint(self):
        program = assemble("ADDI T1, 1\nHALT\n.data\nx: .word 1, 2")
        assert program.instruction_memory_trits() == 2 * WORD_TRITS
        assert program.data_memory_trits() == 2 * WORD_TRITS
        assert program.total_memory_trits() == 4 * WORD_TRITS

    def test_encode_produces_9_trit_words(self):
        program = assemble("ADDI T1, 1\nHALT")
        words = program.encode()
        assert all(w.width == 9 for w in words)

    def test_listing_contains_labels(self):
        program = assemble("loop:\nADDI T1, 1\nBNE T1, 0, loop\nHALT")
        listing = program.listing()
        assert "loop:" in listing and "ADDI" in listing

    def test_copy_is_independent(self):
        program = assemble("ADDI T1, 1\nHALT")
        clone = program.copy()
        clone.instructions[0].imm = 2
        assert program[0].imm == 1

    def test_resolve_labels_rejects_undefined(self):
        program = Program()
        program.append(Instruction("JAL", ta=8, label="nowhere"))
        with pytest.raises(ValueError):
            program.resolve_labels()


class TestDisassembler:
    def test_round_trip_listing(self):
        source = """
            LIW T1, 500
            ADDI T1, 3
            STORE T1, T0, 2
            LOAD T2, T0, 2
            COMP T1, T2
            BEQ T1, 0, skip
            ADDI T3, 1
        skip:
            HALT
        """
        program = assemble(source)
        text = disassemble_program(program, with_addresses=False)
        lines = text.splitlines()
        assert lines[1] == "LI T1, 14"       # 500 == 2*243 + 14
        assert lines[0] == "LUI T1, 2"
        assert any(line.startswith("BEQ") for line in lines)
        # Re-assembling the disassembly (plus resolved immediates) succeeds.
        reassembled = assemble("\n".join(lines))
        assert len(reassembled) == len(program)
