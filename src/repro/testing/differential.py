"""Differential runner: one program, four executors, zero tolerance.

``run_differential`` executes a program on the fast engine, the compiled
(superblock-codegen) engine, the functional simulator and the
cycle-accurate pipeline simulator and compares every piece of
architectural state the executors share:

* register file contents (all nine registers, by name);
* every touched TDM cell (including explicitly written zeros);
* final PC and halt flag (functional semantics; the pipeline's fetch-ahead
  PC is architecturally meaningless and therefore not compared);
* dynamic instruction count and per-mnemonic instruction mix;
* the full :class:`PipelineStats` record — cycles, stalls, flush bubbles,
  branch outcomes and all three forwarding counters — from *both* the fast
  engine's analytic timing model and the compiled engine's fused one,
  against the stage-by-stage pipeline simulator.

Each analytic engine is built and run once per program: every run is
timed, so the run whose result is compared with the functional simulator
is the run whose ``stats`` are compared with the pipeline.

``fuzz`` drives the generator/runner pair over a seed range, collecting
failures instead of raising so a fuzzing session reports every divergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.isa.program import Program
from repro.sim.compiled import CompiledEngine
from repro.sim.engine import FastEngine
from repro.sim.functional import ExecutionResult, FunctionalSimulator, SimulationError
from repro.sim.machine import MachineConfig, resolve_machine
from repro.sim.pipeline import PipelineSimulator
from repro.testing.generator import GeneratorConfig, generate_program

#: PipelineStats fields compared between the pipeline simulator and the fast
#: engine's analytic timing model.
STATS_FIELDS = (
    "cycles",
    "instructions_committed",
    "load_use_stalls",
    "control_flush_bubbles",
    "taken_branches",
    "not_taken_branches",
    "jumps",
    "ex_forwards",
    "mem_forwards",
    "id_forwards",
)


class DifferentialMismatch(AssertionError):
    """Raised by :func:`run_differential` when two executors disagree."""


@dataclass
class DifferentialOutcome:
    """Comparison record of one program across the executors."""

    program_name: str
    instructions_executed: int
    cycles: Optional[int] = None
    mismatches: List[str] = field(default_factory=list)
    #: Set when every executor agreed the program exceeded the instruction
    #: budget (architectural state is then not comparable).
    budget_exhausted: bool = False

    @property
    def ok(self) -> bool:
        return not self.mismatches


@dataclass
class FuzzReport:
    """Aggregate outcome of one fuzzing session."""

    programs_run: int = 0
    instructions_executed: int = 0
    budget_exhausted: int = 0
    failures: List[DifferentialOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.failures)} FAILURES"
        note = (
            f", {self.budget_exhausted} hit the instruction budget"
            if self.budget_exhausted else ""
        )
        return (
            f"differential fuzz: {self.programs_run} programs, "
            f"{self.instructions_executed} instructions executed{note}, {status}"
        )


def _compare_executions(actual: ExecutionResult, reference: ExecutionResult,
                        mismatches: List[str], label: str = "fast") -> None:
    if actual.registers != reference.registers:
        diffs = {
            name: (actual.registers[name], reference.registers[name])
            for name in actual.registers
            if actual.registers[name] != reference.registers.get(name)
        }
        mismatches.append(f"registers differ ({label}, functional): {diffs}")
    if actual.memory != reference.memory:
        keys = set(actual.memory) | set(reference.memory)
        diffs = {
            addr: (actual.memory.get(addr), reference.memory.get(addr))
            for addr in sorted(keys)
            if actual.memory.get(addr) != reference.memory.get(addr)
        }
        mismatches.append(f"memory differs ({label}, functional): {diffs}")
    if actual.pc != reference.pc:
        mismatches.append(
            f"final PC differs: {label}={actual.pc} functional={reference.pc}")
    if actual.halted != reference.halted:
        mismatches.append(
            f"halt flag differs: {label}={actual.halted} functional={reference.halted}"
        )
    if actual.instructions_executed != reference.instructions_executed:
        mismatches.append(
            "instruction count differs: "
            f"{label}={actual.instructions_executed} "
            f"functional={reference.instructions_executed}"
        )
    if actual.instruction_mix != reference.instruction_mix:
        mismatches.append(
            f"instruction mix differs: {label}={actual.instruction_mix} "
            f"functional={reference.instruction_mix}"
        )


def run_differential(
    program: Program,
    max_instructions: int = 200_000,
    raise_on_mismatch: bool = True,
    machine: Optional[MachineConfig] = None,
) -> DifferentialOutcome:
    """Execute ``program`` on every executor and compare the results.

    A :class:`SimulationError` (instruction budget exceeded, PC escape) is
    itself differential evidence: the fast engine, the compiled engine and
    the functional simulator must all fail in the same way, otherwise one of
    them terminated a program the others did not.  When they fail
    identically the outcome is flagged ``budget_exhausted`` and the pipeline
    cross-check is skipped.

    ``machine`` (a :class:`MachineConfig` or built-in config name) selects
    the microarchitecture every cycle-accurate executor is built with, so
    the same four-way agreement can be asserted at every design-space
    corner; architectural results are machine-independent by construction
    and stay pinned to the functional simulator.
    """
    machine = resolve_machine(machine)
    fast_error: Optional[str] = None
    compiled_error: Optional[str] = None
    reference_error: Optional[str] = None
    fast_engine = FastEngine(program, machine=machine)
    # cache=None: generated fuzz programs are one-shot, so persisting their
    # codegen artifacts would only pollute the shared cache.
    compiled_engine = CompiledEngine(program, cache=None, machine=machine)
    try:
        fast = fast_engine.run(max_instructions=max_instructions)
    except SimulationError as exc:
        fast_error = str(exc)
    try:
        compiled = compiled_engine.run(max_instructions=max_instructions)
    except SimulationError as exc:
        compiled_error = str(exc)
    functional = FunctionalSimulator(program)
    try:
        reference = functional.run(max_instructions=max_instructions)
    except SimulationError as exc:
        reference_error = str(exc)

    if (fast_error is not None or compiled_error is not None
            or reference_error is not None):
        outcome = DifferentialOutcome(
            program_name=program.name,
            instructions_executed=0,
            budget_exhausted=True,
        )
        if fast_error != reference_error or compiled_error != reference_error:
            outcome.mismatches.append(
                "executors disagree on termination: "
                f"fast={fast_error!r} compiled={compiled_error!r} "
                f"functional={reference_error!r}"
            )
        if raise_on_mismatch and not outcome.ok:
            raise DifferentialMismatch(
                f"{program.name}: " + "; ".join(outcome.mismatches)
            )
        return outcome

    outcome = DifferentialOutcome(
        program_name=program.name,
        instructions_executed=reference.instructions_executed,
    )
    _compare_executions(fast, reference, outcome.mismatches, label="fast")
    _compare_executions(compiled, reference, outcome.mismatches, label="compiled")

    pipeline = PipelineSimulator(program, machine=machine)
    # Worst case per instruction is one full redirect (plus a possible
    # load-use stall), so scale the budget with the machine's penalty.
    per_instruction = machine.redirect_penalty + machine.load_use_penalty + 1
    cycle_budget = (2 * per_instruction * max_instructions
                    + machine.fill_cycles + 16)
    pipeline_stats = pipeline.run(max_cycles=cycle_budget)
    outcome.cycles = pipeline_stats.cycles

    if pipeline.register_snapshot() != fast.registers:
        outcome.mismatches.append(
            f"pipeline registers differ from fast engine: "
            f"{pipeline.register_snapshot()} vs {fast.registers}"
        )
    if pipeline.tdm.contents() != fast.memory:
        outcome.mismatches.append("pipeline memory differs from fast engine")
    for label, engine in (("fast", fast_engine), ("compiled", compiled_engine)):
        stats = engine.stats
        for field_name in STATS_FIELDS:
            model_value = getattr(stats, field_name)
            pipe_value = getattr(pipeline_stats, field_name)
            if model_value != pipe_value:
                outcome.mismatches.append(
                    f"stats.{field_name} differs: {label}={model_value} "
                    f"pipeline={pipe_value}"
                )
        if stats.instruction_mix != pipeline_stats.instruction_mix:
            outcome.mismatches.append(
                f"committed instruction mix differs between the {label} "
                "timing model and the pipeline"
            )

    if raise_on_mismatch and not outcome.ok:
        raise DifferentialMismatch(
            f"{program.name}: " + "; ".join(outcome.mismatches)
        )
    return outcome


def fuzz(
    count: int = 100,
    seed: int = 0,
    config: Optional[GeneratorConfig] = None,
    max_instructions: int = 200_000,
    machine: Optional[MachineConfig] = None,
) -> FuzzReport:
    """Run ``count`` generated programs differentially, collecting failures.

    Seeds ``seed .. seed+count-1`` are used one per program, so any failure
    is reproducible with ``run_differential(generate_program(bad_seed))``.
    ``machine`` selects the microarchitecture config all cycle-accurate
    executors run under (default: the paper machine).
    """
    machine = resolve_machine(machine)
    report = FuzzReport()
    for offset in range(count):
        outcome = run_differential(
            generate_program(seed + offset, config),
            max_instructions=max_instructions,
            raise_on_mismatch=False,
            machine=machine,
        )
        report.programs_run += 1
        report.instructions_executed += outcome.instructions_executed
        if outcome.budget_exhausted:
            report.budget_exhausted += 1
        if not outcome.ok:
            report.failures.append(outcome)
    return report

