"""Container for assembled RV-32 programs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List

from repro.riscv.isa import RVInstruction

#: RV-32I instruction width in bits (all base instructions are 32 bits).
RV_INSTRUCTION_BITS = 32


@dataclass
class RVDataSegment:
    """Initial data-memory contents (32-bit words at a byte base address)."""

    base_address: int = 0
    values: List[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.values)


@dataclass
class RVProgram:
    """An assembled RV-32 program.

    Instruction addresses are byte addresses: instruction ``i`` lives at
    ``4 * i``, matching the real ISA so that branch offsets and JAL targets
    have their architectural meaning.
    """

    instructions: List[RVInstruction] = field(default_factory=list)
    labels: Dict[str, int] = field(default_factory=dict)
    data: List[RVDataSegment] = field(default_factory=list)
    data_labels: Dict[str, int] = field(default_factory=dict)
    name: str = "rv_program"

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[RVInstruction]:
        return iter(self.instructions)

    def __getitem__(self, index: int) -> RVInstruction:
        return self.instructions[index]

    def instruction_memory_bits(self) -> int:
        """Bits of instruction memory needed for the program (Fig. 5 metric)."""
        return len(self.instructions) * RV_INSTRUCTION_BITS

    def listing(self) -> str:
        """Render an address-annotated listing."""
        address_to_labels: Dict[int, List[str]] = {}
        for name, address in self.labels.items():
            address_to_labels.setdefault(address, []).append(name)
        lines: List[str] = []
        for index, instruction in enumerate(self.instructions):
            for label in sorted(address_to_labels.get(4 * index, [])):
                lines.append(f"{label}:")
            lines.append(f"  {4 * index:6d}: {instruction.render()}")
        return "\n".join(lines)

    def copy(self) -> "RVProgram":
        """Copy the program (instructions are copied, labels/data shared-copied)."""
        return RVProgram(
            instructions=[instr.copy() for instr in self.instructions],
            labels=dict(self.labels),
            data=[RVDataSegment(seg.base_address, list(seg.values)) for seg in self.data],
            data_labels=dict(self.data_labels),
            name=self.name,
        )
