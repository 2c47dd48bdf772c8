"""The ternary register file (TRF).

Nine general-purposed 9-trit registers, two asynchronous read ports and one
synchronous write port (Sec. IV-B).  The port structure matters for the
pipeline model: a write in WB and reads in ID of the same register within
one cycle see the *old* value unless the forwarding network intervenes; the
pipeline simulator models that explicitly by performing WB before ID within
a cycle (internal write-through), matching the usual register-file bypass of
five-stage RISC designs.
"""

from __future__ import annotations

from typing import List

from repro.isa.registers import NUM_REGISTERS, register_name
from repro.ternary.word import WORD_TRITS, TernaryWord


def _index_error(index: int) -> ValueError:
    return ValueError(f"register index out of range 0..8: {index}")


class TernaryRegisterFile:
    """Storage for the nine ART-9 registers."""

    def __init__(self):
        #: The register words by index.  The pipeline's clock reads and
        #: writes it directly: its register fields were range-checked when
        #: TIM was encoded, and every word it writes is 9 trits wide.
        self.words: List[TernaryWord] = [TernaryWord.zero(WORD_TRITS) for _ in range(NUM_REGISTERS)]

    def read(self, index: int) -> TernaryWord:
        """Read register ``index`` (asynchronous read port)."""
        if not 0 <= index < NUM_REGISTERS:
            raise _index_error(index)
        return self.words[index]

    def write(self, index: int, value: TernaryWord) -> None:
        """Write register ``index`` (synchronous write port)."""
        if value.width != WORD_TRITS:
            raise ValueError(f"register words are {WORD_TRITS} trits, got {value.width}")
        if not 0 <= index < NUM_REGISTERS:
            raise _index_error(index)
        self.words[index] = value

    def read_int(self, index: int) -> int:
        """Read the signed integer value of register ``index``."""
        return self.read(index).value

    def write_int(self, index: int, value: int) -> None:
        """Write a Python integer (wrapped into the 9-trit range)."""
        self.write(index, TernaryWord(value, WORD_TRITS))

    def snapshot(self) -> dict:
        """Return a name → integer-value mapping of all registers."""
        return {register_name(i): reg.value for i, reg in enumerate(self.words)}

    def reset(self) -> None:
        """Zero every register."""
        self.words = [TernaryWord.zero(WORD_TRITS) for _ in range(NUM_REGISTERS)]

    def __repr__(self) -> str:
        values = ", ".join(f"T{i}={reg.value}" for i, reg in enumerate(self.words))
        return f"TernaryRegisterFile({values})"
