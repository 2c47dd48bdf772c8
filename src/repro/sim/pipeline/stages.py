"""Predecoded instructions and the pipeline latches of the 5-stage ART-9 core.

:class:`PredecodedInstruction` is one TIM word decoded once, before the
run: the fields and flags the stages would otherwise re-derive from the
:class:`~repro.isa.instructions.Instruction` and its spec on every cycle.
It rides the pipeline registers from IF to WB.

Each latch is the ternary pipeline register between two stages as it
stands between two calls of the simulator's clock, which keeps the
registers in local variables while it runs and writes them back into the
same four latch objects when it returns.  A latch whose ``valid`` flag is
False carries a bubble (the hardware would be holding the NOP selected by
the stall control signal of the main decoder), and its other fields are
stale, so every reader checks ``valid`` first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.isa.instructions import Instruction
from repro.sim.alu import TernaryALU
from repro.sim.machine import MachineConfig, resolve_machine
from repro.ternary.word import TernaryWord


class PredecodedInstruction:
    """The per-PC record that rides the latches in place of the instruction.

    It copies the operand fields, the dataflow of the spec (``reads_ta``,
    ``reads_tb``, ``destination``, ``sources``) and the class flags, and
    adds the TALU ``operation`` of an ALU instruction (its
    ``handler(operand_a, operand_b, imm)``) and the machine's static fetch
    steering:

    ``predicted_taken``
        IF steers fetch to ``PC + imm`` instead of ``PC + 1``.
    ``fixed_mispredict``
        Whether ID redirects fetch regardless of the outcome: always for
        JALR (indirect, so fetch never has its target), for JAL unless the
        machine folds it at fetch; None for conditional branches, which
        redirect when the outcome differs from ``predicted_taken``.
    """

    __slots__ = (
        "instruction", "mnemonic", "ta", "tb", "imm", "branch_trit",
        "reads_ta", "reads_tb", "destination", "sources",
        "is_load", "is_store", "is_control", "is_jump", "is_alu", "is_halt",
        "operation", "predicted_taken", "fixed_mispredict",
    )

    def __init__(self, instruction: Instruction,
                 machine: Optional[MachineConfig] = None):
        machine = resolve_machine(machine)
        spec = instruction.spec
        mnemonic = instruction.mnemonic
        self.instruction = instruction
        self.mnemonic = mnemonic
        self.ta = instruction.ta
        self.tb = instruction.tb
        self.imm = instruction.imm
        self.branch_trit = instruction.branch_trit
        self.reads_ta = spec.reads_ta
        self.reads_tb = spec.reads_tb
        self.destination = instruction.destination()
        self.sources = instruction.sources()
        self.is_load = spec.is_load
        self.is_store = spec.is_store
        self.is_control = spec.is_control
        self.is_jump = spec.is_jump
        self.is_alu = spec.category in ("R", "I")
        self.is_halt = mnemonic == "HALT"
        self.operation = TernaryALU.HANDLERS[mnemonic] if self.is_alu else None
        self.predicted_taken = machine.predicts_taken(
            mnemonic, instruction.imm or 0)
        if mnemonic == "JALR":
            self.fixed_mispredict = True
        elif mnemonic == "JAL":
            self.fixed_mispredict = not machine.folds_jal
        else:
            self.fixed_mispredict = None

    def __repr__(self) -> str:
        return f"PredecodedInstruction({self.instruction.render()!r})"


@dataclass(slots=True)
class FetchLatch:
    """IF/ID pipeline register: the fetched instruction and its PC."""

    valid: bool = False
    pc: int = 0
    decoded: Optional[PredecodedInstruction] = None


@dataclass(slots=True)
class DecodeLatch:
    """ID/EX pipeline register: decoded fields and register operands.

    ``operand_a`` / ``operand_b`` hold the values read from the TRF in ID;
    the forwarding multiplexers may override them at the TALU inputs in EX.
    """

    valid: bool = False
    pc: int = 0
    decoded: Optional[PredecodedInstruction] = None
    operand_a: Optional[TernaryWord] = None
    operand_b: Optional[TernaryWord] = None
    link_value: Optional[int] = None


@dataclass(slots=True)
class ExecuteLatch:
    """EX/MEM pipeline register: the TALU result or memory request."""

    valid: bool = False
    pc: int = 0
    decoded: Optional[PredecodedInstruction] = None
    alu_result: Optional[TernaryWord] = None
    store_value: Optional[TernaryWord] = None
    memory_address: Optional[int] = None


@dataclass(slots=True)
class MemoryLatch:
    """MEM/WB pipeline register: the value to commit to the TRF."""

    valid: bool = False
    pc: int = 0
    decoded: Optional[PredecodedInstruction] = None
    writeback_value: Optional[TernaryWord] = None

