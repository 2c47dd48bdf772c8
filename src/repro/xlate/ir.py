"""Intermediate representation used between the translation passes.

The passes of the software-level framework operate on a
:class:`TranslationUnit`: a flat stream of items, where an item is either a
:class:`LabelMarker` or an ART-9 :class:`~repro.isa.instructions.Instruction`
whose register fields hold *virtual* register numbers.

Virtual register space
----------------------

====================  =========================================================
0 .. 31               the RV-32 architectural registers x0..x31
32 ..                 temporaries created by the mapping / operand passes
====================  =========================================================

The register-renaming pass (:mod:`repro.xlate.regalloc`) later maps every
virtual register either onto one of the nine physical ternary registers or
onto a TDM spill slot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Union

from repro.isa.instructions import Instruction

#: Virtual register numbers of the RV architectural registers.
V_ZERO = 0
V_RA = 1
V_SP = 2
V_A0 = 10

#: First virtual register number available for translator temporaries.
FIRST_TEMP_VREG = 32


@dataclass(frozen=True)
class LabelMarker:
    """A label definition sitting between instructions in the item stream."""

    name: str


Item = Union[LabelMarker, Instruction]


class VirtualRegisterFile:
    """Allocates fresh virtual registers for translator temporaries."""

    def __init__(self, first: int = FIRST_TEMP_VREG):
        self._next = first
        self.named: dict = {}

    def new_temp(self) -> int:
        """Return a fresh virtual register number."""
        register = self._next
        self._next += 1
        return register

    def named_temp(self, name: str) -> int:
        """Return a stable virtual register for ``name`` (created on demand).

        Used for the runtime-library argument/return/link registers, which
        must be the same virtual register at every call site and inside the
        helper bodies.
        """
        if name not in self.named:
            self.named[name] = self.new_temp()
        return self.named[name]


@dataclass
class TranslationUnit:
    """The item stream shared by all translation passes."""

    items: List[Item] = field(default_factory=list)
    name: str = "translated"
    #: Initial TDM words copied verbatim from the RV data section
    #: (word ``i`` of the RV data section lives at TDM address ``4 * i``,
    #: preserving the byte-address arithmetic of the original program).
    data_words: List[int] = field(default_factory=list)
    #: Set of runtime helpers (label names) the mapped code calls.
    required_helpers: set = field(default_factory=set)

    def append(self, item: Item) -> None:
        """Append one label or instruction."""
        self.items.append(item)

    def extend(self, items) -> None:
        """Append several items."""
        self.items.extend(items)

    def instructions(self) -> Iterator[Instruction]:
        """Iterate over the instructions, skipping label markers."""
        for item in self.items:
            if isinstance(item, Instruction):
                yield item

    def instruction_count(self) -> int:
        """Number of instructions currently in the stream."""
        return sum(1 for _ in self.instructions())

    def labels(self) -> List[str]:
        """Names of all labels defined in the stream."""
        return [item.name for item in self.items if isinstance(item, LabelMarker)]

    def listing(self) -> str:
        """Debug listing of the item stream (virtual register numbers)."""
        lines = []
        for item in self.items:
            if isinstance(item, LabelMarker):
                lines.append(f"{item.name}:")
            else:
                operands = []
                for kind in item.spec.operands:
                    if kind == "ta":
                        operands.append(f"v{item.ta}")
                    elif kind == "tb":
                        operands.append(f"v{item.tb}")
                    elif kind == "branch_trit":
                        operands.append(str(item.branch_trit))
                    elif kind == "imm":
                        operands.append(item.label if item.label else str(item.imm))
                lines.append(f"    {item.mnemonic} " + ", ".join(operands))
        return "\n".join(lines)
