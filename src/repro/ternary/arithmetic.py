"""Word-level balanced ternary arithmetic.

The functions here model what the ternary ALU (TALU) of the ART-9 core
computes: addition and subtraction through a ripple of ternary full adders,
negation through the conversion-based property of balanced ternary (STI of
every trit), multiplication by repeated shift-and-add, trit shifts (which
multiply/divide by powers of three) and three-way comparison.

They are written trit-by-trit rather than as integer arithmetic so that the
gate-level analyzer can count the exact number of full adders / gates that a
hardware implementation needs, and so unit tests can cross-check the digit
algorithms against plain integer arithmetic.
"""

from __future__ import annotations

from typing import Tuple

from repro.ternary.trit import trit_sti
from repro.ternary.word import TernaryWord


def full_adder(a: int, b: int, carry_in: int) -> Tuple[int, int]:
    """One balanced ternary full adder: returns ``(sum, carry_out)``.

    The three inputs are balanced trits; their arithmetic sum lies in
    [-3, +3] and is decomposed as ``sum + 3 * carry`` with ``sum`` in
    {-1, 0, +1} and ``carry`` in {-1, 0, +1}.
    """
    total = a + b + carry_in
    carry = 0
    if total > 1:
        carry = 1
    elif total < -1:
        carry = -1
    return total - 3 * carry, carry


def add_trits(a_trits, b_trits, carry_in: int = 0) -> Tuple[list, int]:
    """Ripple-add two equal-length trit sequences, returning (trits, carry).

    Each position is one :func:`full_adder`, written out in the loop.
    """
    if len(a_trits) != len(b_trits):
        raise ValueError("operands must have the same width")
    result = []
    append = result.append
    carry = carry_in
    for a, b in zip(a_trits, b_trits):
        total = a + b + carry
        if total > 1:
            carry = 1
            append(total - 3)
        elif total < -1:
            carry = -1
            append(total + 3)
        else:
            carry = 0
            append(total)
    return result, carry


def add_words(a: TernaryWord, b: TernaryWord) -> TernaryWord:
    """Fixed-width addition; the carry out of the top trit is discarded.

    The ripple of :func:`add_trits`, written out here: this is the adder
    of every ADD, ADDI and SUB the pipeline simulator executes, so it reads
    the words' trits directly and makes no further call before building
    the (validated) result word.
    """
    a_trits = a._trits
    b_trits = b._trits
    if len(a_trits) != len(b_trits):
        raise ValueError("operands must have the same width")
    result = []
    append = result.append
    carry = 0
    for x, y in zip(a_trits, b_trits):
        total = x + y + carry
        if total > 1:
            carry = 1
            append(total - 3)
        elif total < -1:
            carry = -1
            append(total + 3)
        else:
            carry = 0
            append(total)
    return TernaryWord(result, a._width)


def negate_word(a: TernaryWord) -> TernaryWord:
    """Negation by per-trit standard inversion (the conversion property)."""
    return TernaryWord([trit_sti(t) for t in a.trits], a.width)


def sub_words(a: TernaryWord, b: TernaryWord) -> TernaryWord:
    """Fixed-width subtraction implemented as ``a + STI(b)``.

    Balanced ternary needs no "+1" correction term (unlike two's complement),
    which is exactly why the paper adopts the balanced system: the
    pre-designed adder plus one inverter stage realises subtraction.
    """
    return add_words(a, negate_word(b))


def mul_words(a: TernaryWord, b: TernaryWord) -> TernaryWord:
    """Fixed-width multiplication by shift-and-add over the trits of ``b``.

    ART-9 has no hardware multiplier (Table II: "Multiplier: X"); this
    routine exists for the functional reference model and for building the
    software multiply sequences emitted by the translation framework.
    """
    width = a.width
    accumulator = TernaryWord.zero(width)
    partial = a
    for trit in b.trits:
        if trit == 1:
            accumulator = add_words(accumulator, partial)
        elif trit == -1:
            accumulator = sub_words(accumulator, partial)
        partial = shift_left(partial, 1)
    return accumulator


def shift_left(a: TernaryWord, amount: int) -> TernaryWord:
    """Shift towards the most significant trit (multiply by ``3**amount``)."""
    if amount < 0:
        raise ValueError(f"shift amount must be non-negative, got {amount}")
    if amount >= a.width:
        return TernaryWord.zero(a.width)
    trits = [0] * amount + list(a.trits[: a.width - amount])
    return TernaryWord(trits, a.width)


def shift_right(a: TernaryWord, amount: int) -> TernaryWord:
    """Shift towards the least significant trit (divide by ``3**amount``).

    Dropping low trits of a balanced ternary number rounds the quotient to
    the *nearest* integer (ties impossible), a well-known advantage of the
    balanced representation over truncating binary shifts.
    """
    if amount < 0:
        raise ValueError(f"shift amount must be non-negative, got {amount}")
    if amount >= a.width:
        return TernaryWord.zero(a.width)
    trits = list(a.trits[amount:]) + [0] * amount
    return TernaryWord(trits, a.width)


def compare_words(a: TernaryWord, b: TernaryWord) -> int:
    """Three-way comparison: -1 if a < b, 0 if equal, +1 if a > b.

    This is the ``compare()`` function of the COMP instruction (Table I).
    The comparison is computed most-significant-trit first, the way a
    hardware ternary comparator cascades.
    """
    a_trits, b_trits = a.trits, b.trits
    if len(a_trits) != len(b_trits):
        raise ValueError("operands must have the same width")
    for ta, tb in zip(reversed(a_trits), reversed(b_trits)):
        if ta != tb:
            return 1 if ta > tb else -1
    return 0


def divmod_by_power_of_three(a: TernaryWord, power: int) -> Tuple[TernaryWord, TernaryWord]:
    """Return ``(a >> power, low trits)`` — quotient and dropped remainder part.

    The remainder word contains the ``power`` dropped trits (zero-extended),
    so ``quotient * 3**power + remainder_as_balanced == a`` holds in the
    nearest-rounding sense of balanced ternary shifts.
    """
    if power < 0:
        raise ValueError(f"power must be non-negative, got {power}")
    quotient = shift_right(a, power)
    if power == 0:
        remainder = TernaryWord.zero(a.width)
    else:
        low = list(a.trits[: min(power, a.width)])
        remainder = TernaryWord.from_trits(low, a.width)
    return quotient, remainder


def shift_amount_from_word(word: TernaryWord, field_width: int = 2) -> int:
    """Decode a shift amount from the low ``field_width`` trits of ``word``.

    The SR/SL instructions take their shift count from ``TRF[Tb][1:0]``
    (Table I).  The 2-trit field is interpreted modulo 9 so the full range of
    useful shift distances 0..8 on a 9-trit word is reachable; negative
    balanced field values simply wrap (e.g. the field value -4 encodes a
    shift by 5).
    """
    field = word.slice(field_width - 1, 0)
    return field.value % (3 ** field_width)
