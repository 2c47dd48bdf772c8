"""Encoding of :class:`~repro.isa.instructions.Instruction` to 9-trit words."""

from __future__ import annotations

from typing import List, Tuple

from repro.isa.formats import INSTRUCTION_TRITS, encoding_for, imm_field_width, imm_range
from repro.isa.instructions import Instruction
from repro.isa.registers import NUM_REGISTERS, index_to_field
from repro.ternary.conversion import int_to_trits
from repro.ternary.word import TernaryWord


class EncodeError(ValueError):
    """Raised when an instruction cannot be encoded (operand out of range)."""


def validate_instruction(instruction: Instruction) -> None:
    """Raise :class:`EncodeError` unless ``instruction`` fits its encoding.

    Every operand its format names must be present and fit its field: a
    register index 0..8, a branch trit of -1, 0 or +1, and a resolved
    immediate within the field's balanced range.  This is the one operand
    check of the tool chain: :func:`encode_instruction` and the constructor
    of every executor call it, so a malformed program fails the same way
    everywhere.
    """
    spec = instruction.spec
    mnemonic = instruction.mnemonic
    for operand, name, value in (("ta", "Ta", instruction.ta),
                                 ("tb", "Tb", instruction.tb)):
        if operand not in spec.operands:
            continue
        if value is None:
            raise EncodeError(f"{mnemonic} requires a {name} operand")
        if not 0 <= value < NUM_REGISTERS:
            raise EncodeError(
                f"{mnemonic} {name} register index {value} out of range "
                f"0..{NUM_REGISTERS - 1}")
    if "branch_trit" in spec.operands:
        if instruction.branch_trit is None:
            raise EncodeError(f"{mnemonic} requires a branch trit operand")
        if instruction.branch_trit not in (-1, 0, 1):
            raise EncodeError(
                f"branch trit must be -1, 0 or +1, got {instruction.branch_trit}"
            )
    if "imm" in spec.operands:
        if instruction.imm is None:
            if instruction.label is not None:
                raise EncodeError(
                    f"unresolved label {instruction.label!r} in {mnemonic}")
            raise EncodeError(f"{mnemonic} requires an immediate operand")
        if not check_imm_fits(mnemonic, instruction.imm):
            raise EncodeError(
                f"immediate value {instruction.imm} does not fit the "
                f"{imm_field_width(mnemonic)}-trit field of {mnemonic}")


def _place(trits: List[int], field: Tuple[int, int], value: int) -> None:
    """Write ``value`` (known to fit) as balanced trits into ``trits[lo..hi]``."""
    hi, lo = field
    for offset, trit in enumerate(int_to_trits(value, hi - lo + 1)):
        trits[lo + offset] = trit


def encode_instruction(instruction: Instruction) -> TernaryWord:
    """Encode ``instruction`` into its 9-trit instruction word.

    Raises :class:`EncodeError` (from :func:`validate_instruction`) when an
    operand is missing or does not fit its field, or when a branch/jump
    still carries an unresolved label.
    """
    validate_instruction(instruction)
    operands = instruction.spec.operands
    entry = encoding_for(instruction.mnemonic)
    layout = entry.layout
    trits = [0] * INSTRUCTION_TRITS

    # Major opcode in trits [8:7].
    _place(trits, (8, 7), entry.major)
    if entry.sub is not None:
        _place(trits, layout.sub, entry.sub)
    if entry.funct is not None:
        _place(trits, layout.funct, entry.funct)
    if "ta" in operands:
        _place(trits, layout.ta, index_to_field(instruction.ta))
    if "tb" in operands:
        _place(trits, layout.tb, index_to_field(instruction.tb))
    if "branch_trit" in operands:
        _place(trits, layout.branch_trit, instruction.branch_trit)
    if "imm" in operands:
        _place(trits, layout.imm, instruction.imm)
    return TernaryWord(trits, INSTRUCTION_TRITS)


def check_imm_fits(mnemonic: str, value: int) -> bool:
    """True when ``value`` fits the immediate field of ``mnemonic``."""
    lo, hi = imm_range(mnemonic)
    return lo <= value <= hi
