"""Functional (architectural) simulator for ART-9 programs.

The functional simulator executes one instruction per step with pure ISA
semantics — no pipeline, no stalls.  It serves three roles:

* golden reference model for the cycle-accurate pipeline simulator (both
  must produce identical architectural state for every program);
* correctness oracle for the translation framework (an RV-32I program and
  its ART-9 translation must compute the same results);
* fast workload debugging while writing benchmark assembly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.isa.encoder import validate_instruction
from repro.isa.instructions import Instruction
from repro.isa.program import Program
from repro.sim.alu import TernaryALU
from repro.sim.memory import TernaryMemory
from repro.sim.regfile import TernaryRegisterFile
from repro.ternary.word import WORD_TRITS, TernaryWord


class SimulationError(RuntimeError):
    """Raised when a program misbehaves (bad PC, runaway execution, ...)."""


@dataclass
class ExecutionResult:
    """Summary of one functional simulation run."""

    instructions_executed: int
    halted: bool
    registers: Dict[str, int]
    pc: int
    instruction_mix: Dict[str, int] = field(default_factory=dict)
    memory: Dict[int, int] = field(default_factory=dict)

    def register(self, name: str) -> int:
        """Convenience accessor for a named register value."""
        return self.registers[name.upper()]


class FunctionalSimulator:
    """Instruction-accurate executor for :class:`~repro.isa.program.Program`.

    Like every executor, it refuses a program that does not encode
    (:func:`~repro.isa.encoder.validate_instruction`) at construction.
    """

    def __init__(self, program: Program, tdm_depth: int = 3 ** WORD_TRITS):
        for instruction in program.instructions:
            validate_instruction(instruction)
        self.program = program
        self.registers = TernaryRegisterFile()
        self.tdm = TernaryMemory(depth=tdm_depth, name="TDM")
        self.alu = TernaryALU()
        self.pc = 0
        self.halted = False
        self.instructions_executed = 0
        self.instruction_mix: Dict[str, int] = {}
        self._load_data_segments()

    def _load_data_segments(self) -> None:
        for segment in self.program.data:
            self.tdm.load_words(segment.values, base=segment.base_address)

    # -- single-step execution ---------------------------------------------------

    def step(self) -> Optional[Instruction]:
        """Execute one instruction; returns it, or None when already halted."""
        if self.halted:
            return None
        if not 0 <= self.pc < len(self.program.instructions):
            raise SimulationError(
                f"PC {self.pc} outside program of {len(self.program.instructions)} instructions"
            )
        instruction = self.program.instructions[self.pc]
        self._execute(instruction)
        self.instructions_executed += 1
        self.instruction_mix[instruction.mnemonic] = (
            self.instruction_mix.get(instruction.mnemonic, 0) + 1
        )
        return instruction

    def _execute(self, instruction: Instruction) -> None:
        mnemonic = instruction.mnemonic
        spec = instruction.spec
        next_pc = self.pc + 1

        if mnemonic == "HALT":
            self.halted = True
        elif spec.category in ("R", "I"):
            operand_a = self.registers.read(instruction.ta) if spec.reads_ta or mnemonic == "LI" else TernaryWord.zero()
            operand_b = self.registers.read(instruction.tb) if spec.reads_tb else None
            result = self.alu.compute(mnemonic, operand_a, operand_b, imm=instruction.imm)
            self.registers.write(instruction.ta, result)
        elif mnemonic in ("BEQ", "BNE"):
            lst = self.registers.read(instruction.tb).lst
            taken = (lst == instruction.branch_trit) if mnemonic == "BEQ" else (lst != instruction.branch_trit)
            if taken:
                next_pc = self.pc + instruction.imm
        elif mnemonic == "JAL":
            self.registers.write_int(instruction.ta, self.pc + 1)
            next_pc = self.pc + instruction.imm
        elif mnemonic == "JALR":
            base = self.registers.read(instruction.tb)
            self.registers.write_int(instruction.ta, self.pc + 1)
            next_pc = (base.value + instruction.imm) % (3 ** WORD_TRITS)
        elif mnemonic == "LOAD":
            address = TernaryMemory.effective_address(self.registers.read(instruction.tb), instruction.imm)
            self.registers.write(instruction.ta, self.tdm.read(address))
        elif mnemonic == "STORE":
            address = TernaryMemory.effective_address(self.registers.read(instruction.tb), instruction.imm)
            self.tdm.write(address, self.registers.read(instruction.ta))
        else:  # pragma: no cover - every mnemonic is covered above
            raise SimulationError(f"unimplemented mnemonic {mnemonic!r}")

        self.pc = next_pc

    # -- whole-program execution ---------------------------------------------------

    def run(self, max_instructions: int = 10_000_000) -> ExecutionResult:
        """Run until HALT (or until ``max_instructions`` is exceeded)."""
        while not self.halted:
            if self.instructions_executed >= max_instructions:
                raise SimulationError(
                    f"program did not halt within {max_instructions} instructions"
                )
            self.step()
        return ExecutionResult(
            instructions_executed=self.instructions_executed,
            halted=self.halted,
            registers=self.registers.snapshot(),
            pc=self.pc,
            instruction_mix=dict(self.instruction_mix),
            memory=self.tdm.contents(),
        )
