"""Binary-encoded balanced ternary, as used by the FPGA emulation platform.

The paper's FPGA prototype (Table V) emulates every ternary building block
with binary modules by adopting the binary-encoded ternary number system of
Frieder & Luk (ref. [27]).  Each balanced trit is stored in two bits:

======  =========
trit    bit pair
======  =========
 0      ``00``
+1      ``01``
-1      ``10``
======  =========

The pair ``11`` is unused and treated as an encoding error.  A 9-trit word
therefore occupies 18 bits of FPGA memory / registers, which is where the
"9,216 bits" of block RAM and the register counts of Table V come from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.ternary.word import TernaryWord

#: Bits per binary-encoded trit.
BITS_PER_TRIT = 2

_TRIT_TO_BITS = {0: 0b00, 1: 0b01, -1: 0b10}
_BITS_TO_TRIT = {0b00: 0, 0b01: 1, 0b10: -1}


class EncodingError(ValueError):
    """Raised when a bit pattern is not a legal binary-encoded trit."""


def encode_trit(trit: int) -> int:
    """Encode one balanced trit into its 2-bit pattern."""
    try:
        return _TRIT_TO_BITS[trit]
    except KeyError:
        raise EncodingError(f"not a balanced trit: {trit!r}") from None


def decode_trit(bits: int) -> int:
    """Decode one 2-bit pattern back into a balanced trit."""
    try:
        return _BITS_TO_TRIT[bits]
    except KeyError:
        raise EncodingError(f"illegal binary-encoded trit pattern: {bits:#04b}") from None


@dataclass(frozen=True)
class BinaryEncodedWord:
    """A ternary word packed into an integer of ``2 * width`` bits.

    The least significant bit pair holds trit 0 (the LST), matching how the
    FPGA emulation packs words into block RAM.
    """

    bits: int
    width: int

    @property
    def bit_length(self) -> int:
        """Number of storage bits occupied by the encoded word."""
        return self.width * BITS_PER_TRIT


def encode_word(word: TernaryWord) -> BinaryEncodedWord:
    """Pack a ternary word into its binary-encoded form."""
    bits = 0
    for index, trit in enumerate(word.trits):
        bits |= encode_trit(trit) << (BITS_PER_TRIT * index)
    return BinaryEncodedWord(bits=bits, width=word.width)


def decode_word(encoded: BinaryEncodedWord) -> TernaryWord:
    """Unpack a binary-encoded word back into a :class:`TernaryWord`."""
    trits: List[int] = []
    for index in range(encoded.width):
        pair = (encoded.bits >> (BITS_PER_TRIT * index)) & 0b11
        trits.append(decode_trit(pair))
    return TernaryWord(trits, encoded.width)


def bits_for_word(width: int) -> int:
    """Storage bits needed to hold one ``width``-trit word on the FPGA."""
    return width * BITS_PER_TRIT
