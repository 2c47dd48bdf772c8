"""Property-style round-trip tests over every ART-9 encoding format.

For every mnemonic and a dense grid over its operand space, assert the full
tool-chain cycle is a fixed point::

    Instruction -> render -> assemble -> encode -> decode -> render
                -> re-assemble -> re-encode == original encoding

Example-based tests (test_isa_encoding.py) check known words; this sweep
catches encoder/decoder asymmetries anywhere in the operand space — field
placement errors, sign flips in balanced immediates, register bias mistakes.
"""

import pytest

from repro.isa.assembler import assemble
from repro.isa.decoder import decode_instruction
from repro.isa.disassembler import disassemble_program
from repro.isa.encoder import encode_instruction
from repro.isa.formats import ENCODING_TABLE, imm_range
from repro.isa.instructions import ALL_MNEMONICS, Instruction, spec_for
from repro.testing import generate_program

_REGISTERS = range(9)
_TRITS = (-1, 0, 1)


def _imm_samples(mnemonic: str):
    """The full immediate range for narrow fields, a dense stride for wide ones."""
    lo, hi = imm_range(mnemonic)
    if hi == 0:
        return (None,)
    if hi <= 13:
        return tuple(range(lo, hi + 1))
    values = set(range(lo, hi + 1, 3))
    values.update((lo, -1, 0, 1, hi))
    return tuple(sorted(values))


def _operand_grid(mnemonic: str):
    """Yield one Instruction per point of the operand grid of ``mnemonic``."""
    spec = spec_for(mnemonic)
    tas = _REGISTERS if "ta" in spec.operands else (None,)
    tbs = _REGISTERS if "tb" in spec.operands else (None,)
    trits = _TRITS if "branch_trit" in spec.operands else (None,)
    imms = _imm_samples(mnemonic) if "imm" in spec.operands else (None,)
    for ta in tas:
        for tb in tbs:
            for bt in trits:
                for imm in imms:
                    yield Instruction(mnemonic, ta=ta, tb=tb, imm=imm, branch_trit=bt)


def _fields(instruction: Instruction):
    return (
        instruction.mnemonic,
        instruction.ta,
        instruction.tb,
        instruction.imm if instruction.spec.imm_trits else None,
        instruction.branch_trit,
    )


@pytest.mark.parametrize("mnemonic", sorted(ALL_MNEMONICS))
def test_roundtrip_is_fixed_point_over_operand_grid(mnemonic):
    for original in _operand_grid(mnemonic):
        word = encode_instruction(original)

        # encode -> decode recovers every operand field.
        decoded = decode_instruction(word)
        assert _fields(decoded) == _fields(original), str(original)

        # decode -> disassemble -> re-assemble -> re-encode is a fixed point.
        text = decoded.render()
        reassembled = assemble(text).instructions[0]
        assert _fields(reassembled) == _fields(original), text
        assert encode_instruction(reassembled).trits == word.trits, text


def test_every_mnemonic_has_an_encoding_entry():
    assert set(ENCODING_TABLE) == set(ALL_MNEMONICS)


def test_distinct_instructions_encode_to_distinct_words():
    """The encoding is injective over the whole operand space."""
    seen = {}
    for mnemonic in ALL_MNEMONICS:
        for instruction in _operand_grid(mnemonic):
            key = encode_instruction(instruction).trits
            assert key not in seen, (
                f"{instruction.render()} and {seen[key]} share an encoding"
            )
            seen[key] = instruction.render()


@pytest.mark.parametrize("seed", range(25))
def test_generated_programs_survive_disassembly_roundtrip(seed):
    """Whole random programs survive encode -> disassemble -> re-assemble."""
    program = generate_program(seed)
    listing = disassemble_program(program, with_addresses=False)
    reassembled = assemble(listing, name=program.name)
    assert len(reassembled) == len(program)
    for ours, theirs in zip(program.instructions, reassembled.instructions):
        assert encode_instruction(ours).trits == encode_instruction(theirs).trits
