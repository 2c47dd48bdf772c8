"""Execution statistics produced by the cycle-accurate pipeline simulator."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict


@dataclass
class PipelineStats:
    """Cycle-level statistics of one pipelined execution.

    These are the numbers the hardware-level evaluation framework feeds into
    the performance estimator: total cycles (Table III), committed
    instructions, CPI, and the breakdown of hardware-inserted stall cycles
    (load-use stalls and taken-branch flush bubbles, the only two sources in
    the ART-9 design).
    """

    cycles: int = 0
    instructions_committed: int = 0
    load_use_stalls: int = 0
    control_flush_bubbles: int = 0
    taken_branches: int = 0
    not_taken_branches: int = 0
    jumps: int = 0
    ex_forwards: int = 0
    mem_forwards: int = 0
    id_forwards: int = 0
    instruction_mix: Dict[str, int] = field(default_factory=dict)

    @property
    def cpi(self) -> float:
        """Cycles per committed instruction."""
        if self.instructions_committed == 0:
            return float("nan")
        return self.cycles / self.instructions_committed

    @property
    def stall_cycles(self) -> int:
        """All cycles lost to hazards (stalls plus flush bubbles)."""
        return self.load_use_stalls + self.control_flush_bubbles

    def to_dict(self) -> Dict[str, object]:
        """Plain-data form for JSON stores and golden-trace fixtures."""
        data: Dict[str, object] = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            data[spec.name] = dict(value) if spec.name == "instruction_mix" else value
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "PipelineStats":
        """Rebuild a stats record written by :meth:`to_dict`."""
        known = {spec.name for spec in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown PipelineStats fields: {sorted(unknown)}")
        return cls(**data)  # type: ignore[arg-type]

    def summary(self) -> str:
        """Human-readable multi-line summary."""
        lines = [
            f"cycles                 : {self.cycles}",
            f"instructions committed : {self.instructions_committed}",
            f"CPI                    : {self.cpi:.3f}",
            f"load-use stalls        : {self.load_use_stalls}",
            f"control flush bubbles  : {self.control_flush_bubbles}",
            f"taken branches         : {self.taken_branches}",
            f"not-taken branches     : {self.not_taken_branches}",
            f"jumps                  : {self.jumps}",
            f"EX forwards            : {self.ex_forwards}",
            f"MEM forwards           : {self.mem_forwards}",
            f"ID forwards            : {self.id_forwards}",
        ]
        return "\n".join(lines)
