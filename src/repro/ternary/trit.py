"""Single balanced trit values and the logic operations of Fig. 1.

A balanced trit takes one of the three values -1, 0 or +1.  Following the
paper we adopt the balanced representation (rather than the unbalanced
{0, 1, 2} set) because negation becomes a per-trit inversion and signed
arithmetic needs no separate sign handling.

The two-input logic operations AND, OR and XOR, and the three one-input
inverters STI (standard ternary inverter), NTI (negative ternary inverter)
and PTI (positive ternary inverter) implement exactly the truth tables shown
in Fig. 1 of the paper:

* ``AND`` is the minimum of the two trits.
* ``OR`` is the maximum of the two trits.
* ``XOR`` is the *negated product*-style exclusive function used by balanced
  ternary logic families: the sum of the two trits saturated to the balanced
  set when both inputs are non-zero with equal sign, i.e.
  ``xor(a, b) = clamp(a + b)`` when ``a*b <= 0`` and ``-sign(a)`` otherwise.
  Concretely this is the antisymmetric table
  ``xor(+,+) = -, xor(+,0) = +, xor(+,-) = 0`` (and symmetric cases), which
  equals addition modulo 3 mapped back onto the balanced set.  This is the
  standard balanced ternary "sum without carry" gate.
* ``STI(x) = -x``; ``NTI`` maps +1 to -1 and everything else to +1's
  complement extreme (-1 -> +1, 0 -> -1, +1 -> -1)... see the table below;
  ``PTI`` is the positive counterpart.

The NTI/PTI tables used here are the conventional ones from the ternary
logic literature (and from Fig. 1):

====== ===== ===== =====
input    -1     0    +1
====== ===== ===== =====
STI      +1     0    -1
NTI      +1    -1    -1
PTI      +1    +1    -1
====== ===== ===== =====
"""

from __future__ import annotations

from typing import Iterable

# Canonical trit values.  Plain integers are used (rather than an enum) so
# that arithmetic on trits stays cheap inside the simulators.
NEG = -1
ZERO = 0
POS = 1

VALID_TRITS = (NEG, ZERO, POS)


class Trit:
    """Namespace of trit constants and validation helpers.

    ``Trit`` is intentionally *not* instantiated; trits are plain ints in
    {-1, 0, +1} throughout the code base, which keeps the inner loops of the
    cycle-accurate simulator fast.  This class groups the validation and
    pretty-printing helpers.
    """

    NEG = NEG
    ZERO = ZERO
    POS = POS

    #: Symbols used when printing trit sequences: 'T' is the conventional
    #: glyph for -1 in balanced ternary literature.
    SYMBOLS = {NEG: "T", ZERO: "0", POS: "1"}

    @staticmethod
    def validate(value: int) -> int:
        """Return ``value`` if it is a legal balanced trit, else raise."""
        if value not in VALID_TRITS:
            raise ValueError(f"not a balanced trit: {value!r}")
        return value

    @staticmethod
    def validate_all(values: Iterable[int]) -> tuple:
        """Validate every element of ``values`` and return them as a tuple."""
        trits = tuple(values)
        for value in trits:
            if value not in VALID_TRITS:
                raise ValueError(f"not a balanced trit: {value!r}")
        return trits

    @staticmethod
    def to_symbol(value: int) -> str:
        """Render a single trit as one of ``T``, ``0``, ``1``."""
        return Trit.SYMBOLS[Trit.validate(value)]


def trit_and(a: int, b: int) -> int:
    """Ternary AND: the minimum of the two trits (Fig. 1)."""
    return a if a < b else b


def trit_or(a: int, b: int) -> int:
    """Ternary OR: the maximum of the two trits (Fig. 1)."""
    return a if a > b else b


def trit_xor(a: int, b: int) -> int:
    """Ternary XOR: the carry-free balanced sum of the two trits.

    This is addition modulo 3 remapped onto {-1, 0, +1}; it is the function a
    ternary half adder produces on its sum output and the conventional
    "exclusive" gate of balanced ternary logic families.
    """
    s = a + b
    if s == 2:
        return NEG
    if s == -2:
        return POS
    return s


def trit_sti(a: int) -> int:
    """Standard ternary inverter: simple negation."""
    return -a


def trit_nti(a: int) -> int:
    """Negative ternary inverter: -1 -> +1, 0 -> -1, +1 -> -1."""
    return POS if a == NEG else NEG


def trit_pti(a: int) -> int:
    """Positive ternary inverter: -1 -> +1, 0 -> +1, +1 -> -1."""
    return NEG if a == POS else POS


#: Mapping from mnemonic inverter names to their implementations, used by the
#: TALU and by the gate-level analyzer when enumerating logic resources.
INVERTERS = {
    "STI": trit_sti,
    "NTI": trit_nti,
    "PTI": trit_pti,
}

#: Two-input trit gates by mnemonic name.
DYADIC_GATES = {
    "AND": trit_and,
    "OR": trit_or,
    "XOR": trit_xor,
}
