"""Fixed-width balanced ternary words.

``TernaryWord`` is the value type flowing through every datapath model in
this repository: register file entries, memory words, pipeline latches and
ALU operands are all 9-trit ``TernaryWord`` instances.  The class is
immutable and hashable so words can be stored in sets/dicts (the redundancy
checker of the software framework relies on this).
"""

from __future__ import annotations

from typing import Iterator, Sequence, Union

from repro.ternary.conversion import (
    balanced_range,
    int_to_trits,
    to_balanced_range,
)
from repro.ternary.trit import VALID_TRITS, Trit

#: Native word width of the ART-9 datapath.
WORD_TRITS = 9

_TRIT_SET = frozenset(VALID_TRITS)


class TernaryWord:
    """An immutable balanced ternary word of fixed width.

    Parameters
    ----------
    value:
        Either a Python integer (wrapped into the representable range) or a
        little-endian sequence of balanced trits of exactly ``width``
        elements.
    width:
        Word width in trits; defaults to the ART-9 datapath width of 9.
    """

    __slots__ = ("_trits", "_width", "_value")

    def __init__(self, value: Union[int, Sequence[int]] = 0, width: int = WORD_TRITS):
        if width < 1:
            raise ValueError(f"word width must be positive, got {width}")
        self._width = width
        if isinstance(value, int):
            value = to_balanced_range(value, width)
            self._value = value
            self._trits = tuple(int_to_trits(value, width))
        else:
            # The integer value, summed from the trits on first read; the
            # word is immutable, so the cache never goes stale.
            self._value = None
            trits = tuple(value)
            if len(trits) != width:
                raise ValueError(
                    f"expected {width} trits, got {len(trits)}: {trits!r}"
                )
            if not _TRIT_SET.issuperset(trits):
                Trit.validate_all(trits)  # raises, naming the bad element
            self._trits = trits

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, width: int = WORD_TRITS) -> "TernaryWord":
        """The all-zero word."""
        return cls(0, width)

    @classmethod
    def from_trits(cls, trits: Sequence[int], width: int = WORD_TRITS) -> "TernaryWord":
        """Build a word from a little-endian trit sequence, zero-padding it."""
        trits = list(trits)
        if len(trits) > width:
            raise ValueError(f"{len(trits)} trits do not fit in a {width}-trit word")
        trits = trits + [0] * (width - len(trits))
        return cls(trits, width)

    # -- accessors ---------------------------------------------------------

    @property
    def width(self) -> int:
        """Word width in trits."""
        return self._width

    @property
    def trits(self) -> tuple:
        """The trits as a little-endian tuple (index 0 = least significant)."""
        return self._trits

    @property
    def value(self) -> int:
        """The signed integer value of the word."""
        value = self._value
        if value is None:
            # The trits were validated when the word was built.
            value = 0
            for trit in reversed(self._trits):
                value = value * 3 + trit
            self._value = value
        return value

    @property
    def unsigned(self) -> int:
        """The word reinterpreted as a non-negative memory address."""
        return self.value % (3 ** self._width)

    @property
    def lst(self) -> int:
        """The least significant trit (``X[0]`` in the paper's notation)."""
        return self._trits[0]

    def trit(self, index: int) -> int:
        """Return trit ``index`` (0 = least significant)."""
        return self._trits[index]

    def slice(self, hi: int, lo: int) -> "TernaryWord":
        """Return trits ``[hi:lo]`` inclusive as a new word of that width.

        Mirrors the paper's field notation, e.g. ``imm[4:0]`` is
        ``word.slice(4, 0)``.
        """
        if not 0 <= lo <= hi < self._width:
            raise ValueError(f"bad slice [{hi}:{lo}] of a {self._width}-trit word")
        return TernaryWord(self._trits[lo : hi + 1], hi - lo + 1)

    def replace_low(self, low: "TernaryWord") -> "TernaryWord":
        """Return a copy whose lowest ``low.width`` trits come from ``low``.

        This is the datapath operation behind the LI instruction:
        ``{TRF[Ta][8:5], imm[4:0]}``.
        """
        if low.width > self._width:
            raise ValueError("replacement is wider than the word")
        trits = low.trits + self._trits[low.width :]
        return TernaryWord(trits, self._width)

    # -- dunder protocol ---------------------------------------------------

    def __int__(self) -> int:
        return self.value

    def __iter__(self) -> Iterator[int]:
        return iter(self._trits)

    def __len__(self) -> int:
        return self._width

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TernaryWord):
            return self._trits == other._trits
        if isinstance(other, int):
            return self.value == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._trits, self._width))

    def __repr__(self) -> str:
        return f"TernaryWord({self.value}, width={self._width})"

    def __str__(self) -> str:
        return "".join(Trit.to_symbol(t) for t in reversed(self._trits))

    # -- range helpers -----------------------------------------------------

    @classmethod
    def value_range(cls, width: int = WORD_TRITS) -> tuple:
        """Inclusive (lo, hi) value range of a ``width``-trit word."""
        return balanced_range(width)
