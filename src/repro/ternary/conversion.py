"""Conversions between Python integers and balanced trit sequences.

Balanced ternary represents an integer as ``sum(t_k * 3**k)`` with each digit
``t_k`` in {-1, 0, +1}.  A width-``n`` word therefore covers the symmetric
range ``[-(3**n - 1) / 2, +(3**n - 1) / 2]``; for the 9-trit ART-9 datapath
that is -9841 .. +9841.

Values outside the representable range wrap around modulo ``3**n`` back into
the balanced window, which mirrors what a fixed-width ternary adder does when
its carry out of the most significant trit is dropped.
"""

from __future__ import annotations

from typing import List, Sequence


def balanced_range(width: int) -> tuple:
    """Return ``(lo, hi)``, the inclusive value range of a width-trit word."""
    if width < 1:
        raise ValueError(f"word width must be positive, got {width}")
    half = (3 ** width - 1) // 2
    return -half, half


def to_balanced_range(value: int, width: int) -> int:
    """Wrap ``value`` into the balanced range of a ``width``-trit word.

    The wrap is modulo ``3**width`` followed by a shift into the symmetric
    window, exactly the behaviour of discarding the carry out of the most
    significant trit of a fixed-width balanced adder.
    """
    modulus = 3 ** width
    half = (modulus - 1) // 2
    wrapped = value % modulus
    if wrapped > half:
        wrapped -= modulus
    return wrapped


def int_to_trits(value: int, width: int) -> List[int]:
    """Convert ``value`` to a little-endian list of ``width`` balanced trits.

    ``value`` is first wrapped into the representable range (see
    :func:`to_balanced_range`).  Index 0 of the returned list is the least
    significant trit, matching the ``X[k]`` notation of the paper where
    ``X[0]`` is the least significant trit (LST).
    """
    value = to_balanced_range(value, width)
    trits: List[int] = []
    remaining = value
    for _ in range(width):
        digit = remaining % 3
        if digit == 2:
            digit = -1
        remaining = (remaining - digit) // 3
        trits.append(digit)
    return trits


def trits_to_int(trits: Sequence[int]) -> int:
    """Convert a little-endian balanced trit sequence to a Python integer."""
    value = 0
    for k in range(len(trits) - 1, -1, -1):
        trit = trits[k]
        if trit not in (-1, 0, 1):
            raise ValueError(f"not a balanced trit at index {k}: {trit!r}")
        value = value * 3 + trit
    return value


def min_trits_for(value: int) -> int:
    """Return the minimum number of balanced trits able to represent ``value``.

    Useful for the operand-conversion pass of the software framework, which
    must decide whether an immediate fits a 3-, 4- or 5-trit field or has to
    be materialised through a LUI/LI pair.
    """
    width = 1
    while True:
        lo, hi = balanced_range(width)
        if lo <= value <= hi:
            return width
        width += 1
