"""ART-9 instruction set architecture.

This package defines the 24 ternary instructions of Table I of the paper
(plus the HALT framework extension used to terminate simulation), their
trit-level encodings, an assembler/disassembler for a small textual assembly
language, and the :class:`~repro.isa.program.Program` container that the
simulators and the hardware-level evaluation framework consume.
"""

from repro.isa.registers import NUM_REGISTERS, REGISTER_NAMES, register_index, register_name
from repro.isa.instructions import (
    ALL_MNEMONICS,
    B_TYPE,
    I_TYPE,
    INSTRUCTION_SPECS,
    M_TYPE,
    R_TYPE,
    SYS_TYPE,
    Instruction,
    InstructionSpec,
    spec_for,
)
from repro.isa.encoder import encode_instruction, validate_instruction
from repro.isa.decoder import DecodeError, decode_instruction
from repro.isa.program import DataSegment, Program
from repro.isa.assembler import AssemblerError, assemble, assemble_file
from repro.isa.disassembler import disassemble, disassemble_program

__all__ = [
    "NUM_REGISTERS",
    "REGISTER_NAMES",
    "register_index",
    "register_name",
    "Instruction",
    "InstructionSpec",
    "INSTRUCTION_SPECS",
    "ALL_MNEMONICS",
    "R_TYPE",
    "I_TYPE",
    "B_TYPE",
    "M_TYPE",
    "SYS_TYPE",
    "spec_for",
    "encode_instruction",
    "validate_instruction",
    "decode_instruction",
    "DecodeError",
    "Program",
    "DataSegment",
    "assemble",
    "assemble_file",
    "AssemblerError",
    "disassemble",
    "disassemble_program",
]
