"""Differential runner: one program, five executors, zero tolerance.

``run_differential`` executes a program on the fast engine, the compiled
(superblock-codegen) engine, a single-lane batch engine and the functional
simulator (always) and on the cycle-accurate pipeline simulator
(optionally) and compares every piece of architectural state the executors
share:

* register file contents (all nine registers, by name);
* every touched TDM cell (including explicitly written zeros);
* final PC and halt flag (functional semantics; the pipeline's fetch-ahead
  PC is architecturally meaningless and therefore not compared);
* dynamic instruction count and per-mnemonic instruction mix;
* the full :class:`PipelineStats` record — cycles, stalls, flush bubbles,
  branch outcomes and all three forwarding counters — from *both* the fast
  engine's analytic timing model and the compiled engine's fused one,
  against the stage-by-stage pipeline simulator.

``fuzz`` drives the generator/runner pair over a seed range, collecting
failures instead of raising so a fuzzing session reports every divergence.
With ``lanes > 1`` it widens every seed into several data-variant lanes
and runs them through one multi-lane :class:`~repro.sim.batch.BatchEngine`
(:func:`run_batch_differential`), pinning each lane bit-identically to the
serial engines — this is what exercises the batch engine's
divergence/reconvergence machinery, which a single lane cannot reach.
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
from repro.testing.generator import (
    GeneratorConfig,
    generate_data_variants,
    generate_program,
)

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
    check_pipeline: bool = True,
    raise_on_mismatch: bool = True,
    machine: Optional[MachineConfig] = None,
) -> DifferentialOutcome:
    """Execute ``program`` on every executor and compare the results.

    A :class:`SimulationError` (instruction budget exceeded, PC escape) is
    itself differential evidence: the fast engine, the compiled engine, the
    single-lane batch engine and the functional simulator must all fail in
    the same way, otherwise one of them terminated a program the others did
    not.  When they fail identically the outcome is flagged
    ``budget_exhausted`` and the pipeline cross-check is skipped.

    ``machine`` (a :class:`MachineConfig` or built-in config name) selects
    the microarchitecture every cycle-accurate executor is built with, so
    the same five-way agreement can be asserted at every design-space
    corner; architectural results are machine-independent by construction
    and stay pinned to the functional simulator.
    """
    from repro.sim.batch import BatchEngine

    machine = resolve_machine(machine)
    fast_error: Optional[str] = None
    compiled_error: Optional[str] = None
    batch_error: Optional[str] = None
    reference_error: Optional[str] = None
    try:
        fast = FastEngine(program, machine=machine).run(
            max_instructions=max_instructions)
    except SimulationError as exc:
        fast_error = str(exc)
    try:
        # cache=None: generated fuzz programs are one-shot, so persisting
        # their codegen artifacts would only pollute the shared cache (the
        # in-process memo still de-duplicates the two engine builds below).
        compiled = CompiledEngine(program, cache=None, machine=machine).run(
            max_instructions=max_instructions)
    except SimulationError as exc:
        compiled_error = str(exc)
    batch_lane = BatchEngine([program], machine=machine).run(
        max_instructions=max_instructions)[0]
    batch = batch_lane.result
    batch_error = batch_lane.error
    functional = FunctionalSimulator(program)
    try:
        reference = functional.run(max_instructions=max_instructions)
    except SimulationError as exc:
        reference_error = str(exc)

    if (fast_error is not None or compiled_error is not None
            or batch_error is not None or reference_error is not None):
        outcome = DifferentialOutcome(
            program_name=program.name,
            instructions_executed=0,
            budget_exhausted=True,
        )
        if (fast_error != reference_error or compiled_error != reference_error
                or batch_error != reference_error):
            outcome.mismatches.append(
                "executors disagree on termination: "
                f"fast={fast_error!r} compiled={compiled_error!r} "
                f"batch={batch_error!r} functional={reference_error!r}"
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
    _compare_executions(batch, reference, outcome.mismatches, label="batch")

    if check_pipeline:
        pipeline = PipelineSimulator(program, machine=machine)
        # Worst case per instruction is one full redirect (plus a possible
        # load-use stall), so scale the budget with the machine's penalty.
        per_instruction = machine.redirect_penalty + machine.load_use_penalty + 1
        cycle_budget = (2 * per_instruction * max_instructions
                        + machine.fill_cycles + 16)
        pipeline_stats = pipeline.run(max_cycles=cycle_budget)
        fast_stats = FastEngine(program, machine=machine).run_with_stats(
            max_cycles=cycle_budget)
        compiled_stats = CompiledEngine(
            program, cache=None, machine=machine).run_with_stats(
                max_cycles=cycle_budget)
        batch_lane_stats = BatchEngine([program], machine=machine).run_with_stats(
            max_cycles=cycle_budget)[0]
        batch_stats = batch_lane_stats.stats
        if batch_stats is None:
            outcome.mismatches.append(
                "batch engine produced no stats within the cycle budget: "
                f"{batch_lane_stats.error!r}"
            )
        outcome.cycles = pipeline_stats.cycles

        if pipeline.register_snapshot() != fast.registers:
            outcome.mismatches.append(
                f"pipeline registers differ from fast engine: "
                f"{pipeline.register_snapshot()} vs {fast.registers}"
            )
        if pipeline.tdm.contents() != fast.memory:
            outcome.mismatches.append("pipeline memory differs from fast engine")
        stat_lanes = [("fast", fast_stats), ("compiled", compiled_stats)]
        if batch_stats is not None:
            stat_lanes.append(("batch", batch_stats))
        for label, stats in stat_lanes:
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
    check_pipeline: bool = True,
    machine: Optional[MachineConfig] = None,
    lanes: int = 1,
) -> FuzzReport:
    """Run ``count`` generated programs differentially, collecting failures.

    Seeds ``seed .. seed+count-1`` are used one per program, so any failure
    is reproducible with ``run_differential(generate_program(bad_seed))``.
    ``machine`` selects the microarchitecture config all cycle-accurate
    executors run under (default: the paper machine).

    ``lanes > 1`` widens each seed's program into that many data variants
    (:func:`generate_data_variants`) and pins every lane of one multi-lane
    :class:`~repro.sim.batch.BatchEngine` run to a serial
    :class:`FastEngine` run (:func:`run_batch_differential`), with
    ``check_pipeline`` selecting the per-lane stats comparison; otherwise
    each program gets the five-way :func:`run_differential` check.
    """
    machine = resolve_machine(machine)
    report = FuzzReport()
    for offset in range(count):
        program_seed = seed + offset
        program = generate_program(program_seed, config)
        if lanes > 1:
            outcome = run_batch_differential(
                generate_data_variants(program, lanes, program_seed),
                max_instructions=max_instructions,
                check_stats=check_pipeline,
                raise_on_mismatch=False,
                machine=machine,
            )
        else:
            outcome = run_differential(
                program,
                max_instructions=max_instructions,
                check_pipeline=check_pipeline,
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


def run_batch_differential(
    programs: "List[Program]",
    max_instructions: int = 200_000,
    check_stats: bool = True,
    raise_on_mismatch: bool = True,
    machine: Optional[MachineConfig] = None,
) -> DifferentialOutcome:
    """Pin every lane of one multi-lane batch to the serial fast engine.

    ``programs`` must share one instruction stream (the
    :class:`~repro.sim.batch.BatchEngine` contract); the lanes typically
    differ in initial data memory, which is exactly what drives the batch
    engine through its divergence/reconvergence machinery.  Each lane's
    architectural result, pipeline statistics and error disposition must
    match a fresh serial :class:`FastEngine` run of that lane's program
    bit-for-bit.  The fast engine is itself pinned to the functional
    simulator and the pipeline by :func:`run_differential`, so agreement
    here closes the five-way loop for multi-lane execution.
    """
    from repro.sim.batch import BatchEngine

    machine = resolve_machine(machine)
    engine = BatchEngine(programs, machine=machine)
    if check_stats:
        per_instruction = machine.redirect_penalty + machine.load_use_penalty + 1
        cycle_budget = (2 * per_instruction * max_instructions
                        + machine.fill_cycles + 16)
        lanes = engine.run_with_stats(max_cycles=cycle_budget)
    else:
        lanes = engine.run(max_instructions=max_instructions)

    outcome = DifferentialOutcome(
        program_name=programs[0].name,
        instructions_executed=0,
    )
    exhausted_lanes = 0
    for lane, program in enumerate(programs):
        lane_outcome = lanes[lane]
        serial_error: Optional[str] = None
        serial_result: Optional[ExecutionResult] = None
        try:
            serial_result = FastEngine(program, machine=machine).run(
                max_instructions=max_instructions)
        except SimulationError as exc:
            serial_error = str(exc)

        if serial_error is not None or lane_outcome.error is not None:
            if lane_outcome.error != serial_error:
                outcome.mismatches.append(
                    f"lane {lane}: termination disagrees: "
                    f"batch={lane_outcome.error!r} fast={serial_error!r}"
                )
            else:
                exhausted_lanes += 1
            continue

        _compare_executions(
            lane_outcome.result, serial_result, outcome.mismatches,
            label=f"batch-lane-{lane}")
        outcome.instructions_executed += serial_result.instructions_executed

        if check_stats:
            serial_stats = FastEngine(program, machine=machine).run_with_stats(
                max_cycles=cycle_budget)
            if outcome.cycles is None:
                outcome.cycles = serial_stats.cycles
            for field_name in STATS_FIELDS:
                batch_value = getattr(lane_outcome.stats, field_name)
                serial_value = getattr(serial_stats, field_name)
                if batch_value != serial_value:
                    outcome.mismatches.append(
                        f"lane {lane}: stats.{field_name} differs: "
                        f"batch={batch_value} fast={serial_value}"
                    )
            if lane_outcome.stats.instruction_mix != serial_stats.instruction_mix:
                outcome.mismatches.append(
                    f"lane {lane}: committed instruction mix differs between "
                    "the batch and fast timing models"
                )

    outcome.budget_exhausted = exhausted_lanes == len(programs)
    if raise_on_mismatch and not outcome.ok:
        raise DifferentialMismatch(
            f"{programs[0].name}: " + "; ".join(outcome.mismatches)
        )
    return outcome
