"""The ternary arithmetic logic unit (TALU) of the EX stage.

The TALU performs every R-type and I-type data operation of Table I.  It is
deliberately a standalone component with one table of operation handlers so
that (a) the functional and pipeline simulators share identical semantics
(the functional EX calls :meth:`TernaryALU.compute`, the pipeline's
predecode resolves each handler once) and (b) the gate-level analyzer can
attribute hardware resources to it.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import Callable, Mapping, Optional

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


@lru_cache(maxsize=1024)
def constant_word(value: int, width: int) -> TernaryWord:
    """The ``width``-trit word of an immediate, COMP result or link value.

    ``TernaryWord`` is immutable, so one instance per value is shared by
    every operation that needs it.
    """
    return TernaryWord(value, width)


@lru_cache(maxsize=128)
def _upper_word(imm: int) -> TernaryWord:
    """LUI's result ``{imm[3:0], 00000}``, shared per immediate."""
    return shift_left(constant_word(imm, WORD_TRITS), 5)


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
    "COMP": lambda a, b, imm: constant_word(compare_words(a, b), WORD_TRITS),
    "ANDI": lambda a, b, imm: word_and(a, constant_word(imm, WORD_TRITS)),
    "ADDI": lambda a, b, imm: add_words(a, constant_word(imm, WORD_TRITS)),
    "SRI": lambda a, b, imm: shift_right(a, _imm_shift_amount(imm)),
    "SLI": lambda a, b, imm: shift_left(a, _imm_shift_amount(imm)),
    "LUI": lambda a, b, imm: _upper_word(imm),
    "LI": lambda a, b, imm: a.replace_low(constant_word(imm, 5)),
}


class TernaryALU:
    """Executes the arithmetic/logic portion of the ART-9 ISA.

    :meth:`compute` takes the mnemonic and the two (already forwarded)
    operand words.  For I-type instructions the immediate operand is passed
    in ``imm`` and the ``operand_b`` argument is ignored.
    """

    #: Mnemonics handled by the TALU (everything that produces its result in EX).
    OPERATIONS = tuple(_HANDLERS)
    #: Mnemonic → ``handler(operand_a, operand_b, imm)`` computing its
    #: result; the pipeline's predecode resolves each ALU instruction's
    #: handler here once.
    HANDLERS: Mapping[str, Callable[..., TernaryWord]] = MappingProxyType(
        _HANDLERS)

    def compute(
        self,
        mnemonic: str,
        operand_a: TernaryWord,
        operand_b: Optional[TernaryWord] = None,
        imm: Optional[int] = None,
    ) -> TernaryWord:
        """The result word of one operation, as the functional EX uses it.

        ``mnemonic`` is the upper-case name decoded from the instruction;
        anything outside :attr:`OPERATIONS` raises ``ValueError``.
        """
        handler = self.HANDLERS.get(mnemonic)
        if handler is None:
            raise ValueError(f"TALU does not implement {mnemonic!r}")
        return handler(operand_a, operand_b, imm)
