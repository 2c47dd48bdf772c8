"""Ternary instruction/data memories (TIM and TDM).

Both memories are word addressed: each address holds one 9-trit word.  The
ART-9 core uses synchronous single-port memories (Sec. IV-B); the timing
consequences (one access per cycle, load results available at the end of
MEM) are modelled by the pipeline simulator, while this class provides the
storage semantics shared by both simulators.

Addresses are non-negative word indices.  Registers hold balanced values, so
address computation wraps the balanced value into the unsigned window
(``value mod 3**9``), the ternary analogue of interpreting a two's-complement
word as an unsigned address.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.ternary.word import WORD_TRITS, TernaryWord


class MemoryError_(RuntimeError):
    """Raised on out-of-range accesses (named with a trailing underscore to
    avoid shadowing the built-in ``MemoryError``)."""


class TernaryMemory:
    """A word-addressed ternary memory with sparse backing storage.

    Parameters
    ----------
    depth:
        Number of addressable words.  The default (3**9 = 19 683) is the
        full address space reachable from a 9-trit register.
    name:
        Used in error messages ("TIM", "TDM").
    width:
        Word width in trits (9 for ART-9).
    """

    def __init__(self, depth: int = 3 ** WORD_TRITS, name: str = "memory", width: int = WORD_TRITS):
        if depth <= 0:
            raise ValueError(f"memory depth must be positive, got {depth}")
        self.depth = depth
        self.name = name
        self.width = width
        self._cells: Dict[int, TernaryWord] = {}
        self._zero = TernaryWord.zero(width)

    # -- address handling ---------------------------------------------------

    def _check(self, address: int) -> int:
        if not isinstance(address, int):
            raise TypeError(f"{self.name}: address must be an int, got {type(address)!r}")
        if not 0 <= address < self.depth:
            raise MemoryError_(
                f"{self.name}: address {address} out of range 0..{self.depth - 1}"
            )
        return address

    @staticmethod
    def effective_address(base: TernaryWord, offset: int) -> int:
        """Compute the unsigned effective address ``base + offset``.

        Used by the LOAD/STORE datapath: the balanced sum wraps into the
        non-negative address window.
        """
        return (base.value + offset) % (3 ** base.width)

    # -- access ---------------------------------------------------------------

    def read(self, address: int) -> TernaryWord:
        """Read the word at ``address`` (uninitialised cells read as zero)."""
        address = self._check(address)
        word = self._cells.get(address)
        return self._zero if word is None else word

    def write(self, address: int, value: TernaryWord) -> None:
        """Write ``value`` at ``address``."""
        address = self._check(address)
        if value.width != self.width:
            raise ValueError(
                f"{self.name}: word width {value.width} does not match memory width {self.width}"
            )
        self._cells[address] = value

    def read_int(self, address: int) -> int:
        """Read the signed integer value stored at ``address``."""
        return self.read(address).value

    def write_int(self, address: int, value: int) -> None:
        """Write a Python integer (wrapped into the word range)."""
        self.write(address, TernaryWord(value, self.width))

    # -- bulk helpers -----------------------------------------------------------

    def load_words(self, values: Iterable[int], base: int = 0) -> None:
        """Initialise consecutive addresses starting at ``base``."""
        for offset, value in enumerate(values):
            self.write_int(base + offset, value)

    def dump(self, base: int, count: int) -> List[int]:
        """Return ``count`` integer values starting at ``base``."""
        return [self.read_int(base + offset) for offset in range(count)]

    def contents(self) -> Dict[int, int]:
        """Touched cells as an address → balanced-integer-value mapping."""
        return {address: word.value for address, word in self._cells.items()}

    def occupied_words(self) -> int:
        """Number of addresses that have been written at least once."""
        return len(self._cells)

    def highest_written(self) -> Optional[int]:
        """Highest written address, or None if the memory is untouched."""
        return max(self._cells) if self._cells else None

    def clear(self) -> None:
        """Erase all contents."""
        self._cells.clear()
