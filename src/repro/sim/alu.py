"""The ternary arithmetic logic unit (TALU) of the EX stage.

The TALU performs every R-type and I-type data operation of Table I.  It is
deliberately a standalone component with a single ``execute`` entry point so
that (a) the functional and pipeline simulators share identical semantics
and (b) the gate-level analyzer can attribute hardware resources to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from repro.ternary.arithmetic import (
    add_words,
    compare_words,
    shift_amount_from_word,
    shift_left,
    shift_right,
    sub_words,
)
from repro.ternary.logic import (
    word_and,
    word_nti,
    word_or,
    word_pti,
    word_sti,
    word_xor,
)
from repro.ternary.word import WORD_TRITS, TernaryWord


@dataclass
class ALUResult:
    """Outcome of one TALU operation."""

    value: TernaryWord
    operation: str


@lru_cache(maxsize=1024)
def _constant_word(value: int, width: int) -> TernaryWord:
    """The ``width``-trit word of an immediate or COMP result.

    ``TernaryWord`` is immutable, so one instance per value is shared by
    every operation that needs it.
    """
    return TernaryWord(value, width)


def _imm_shift_amount(imm: int) -> int:
    """Decode the 2-trit immediate shift amount of SRI/SLI (mod 9)."""
    return imm % 9


#: Mnemonic → ``handler(operand_a, operand_b, imm)`` for every TALU operation.
_HANDLERS = {
    "MV": lambda a, b, imm: b,
    "PTI": lambda a, b, imm: word_pti(b),
    "NTI": lambda a, b, imm: word_nti(b),
    "STI": lambda a, b, imm: word_sti(b),
    "AND": lambda a, b, imm: word_and(a, b),
    "OR": lambda a, b, imm: word_or(a, b),
    "XOR": lambda a, b, imm: word_xor(a, b),
    "ADD": lambda a, b, imm: add_words(a, b),
    "SUB": lambda a, b, imm: sub_words(a, b),
    "SR": lambda a, b, imm: shift_right(a, shift_amount_from_word(b)),
    "SL": lambda a, b, imm: shift_left(a, shift_amount_from_word(b)),
    "COMP": lambda a, b, imm: _constant_word(compare_words(a, b), WORD_TRITS),
    "ANDI": lambda a, b, imm: word_and(a, _constant_word(imm, WORD_TRITS)),
    "ADDI": lambda a, b, imm: add_words(a, _constant_word(imm, WORD_TRITS)),
    "SRI": lambda a, b, imm: shift_right(a, _imm_shift_amount(imm)),
    "SLI": lambda a, b, imm: shift_left(a, _imm_shift_amount(imm)),
    "LUI": lambda a, b, imm: shift_left(_constant_word(imm, WORD_TRITS), 5),
    "LI": lambda a, b, imm: a.replace_low(_constant_word(imm, 5)),
}


class TernaryALU:
    """Executes the arithmetic/logic portion of the ART-9 ISA.

    The ``execute`` method takes the mnemonic and the two (already forwarded)
    operand words.  For I-type instructions the immediate operand is passed
    in ``imm`` and the ``operand_b`` argument is ignored.
    """

    #: Mnemonics handled by the TALU (everything that produces its result in EX).
    OPERATIONS = tuple(_HANDLERS)

    def execute(
        self,
        mnemonic: str,
        operand_a: TernaryWord,
        operand_b: Optional[TernaryWord] = None,
        imm: Optional[int] = None,
    ) -> ALUResult:
        """Compute one operation and return its :class:`ALUResult`.

        ``mnemonic`` is case-insensitive; anything outside
        :attr:`OPERATIONS` raises ``ValueError``.
        """
        mnemonic = mnemonic.upper()
        return ALUResult(self.compute(mnemonic, operand_a, operand_b, imm),
                         mnemonic)

    def compute(
        self,
        mnemonic: str,
        operand_a: TernaryWord,
        operand_b: Optional[TernaryWord] = None,
        imm: Optional[int] = None,
    ) -> TernaryWord:
        """The result word of one operation, as the simulators' EX uses it.

        ``mnemonic`` is the upper-case name decoded from the instruction;
        anything outside :attr:`OPERATIONS` raises ``ValueError``.
        """
        handler = _HANDLERS.get(mnemonic)
        if handler is None:
            raise ValueError(f"TALU does not implement {mnemonic!r}")
        return handler(operand_a, operand_b, imm)

    def effective_address(self, base: TernaryWord, offset: int) -> int:
        """Address computation of the M-type instructions (shared adder)."""
        return (base.value + offset) % (3 ** base.width)
