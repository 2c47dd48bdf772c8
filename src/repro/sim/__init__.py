"""ART-9 simulators and datapath component models.

Two simulators are provided:

``FunctionalSimulator``
    Executes one instruction per step with architectural (ISA-level)
    semantics.  It is the golden reference model used to validate the
    pipeline and the translation framework.
``PipelineSimulator`` (in :mod:`repro.sim.pipeline`)
    The cycle-accurate model of the 5-stage ART-9 core of Fig. 4, including
    the hazard detection unit, forwarding multiplexers and the early branch
    resolution in ID.  This is the "cycle-accurate simulator" component of
    the paper's hardware-level evaluation framework.

Two further executors trade the object-model fidelity of the reference
simulators for speed while reproducing both the functional simulator's
``ExecutionResult`` and the pipeline simulator's ``PipelineStats``
bit-identically (asserted continuously by the 5-way differential suite).
Their ``PipelineStats`` come from one analytic timing model,
:mod:`repro.sim.timing`, which the structural ``PipelineSimulator`` checks:

``FastEngine`` (in :mod:`repro.sim.engine`)
    Pre-decodes the program into flat integer dispatch records and
    interprets them on plain Python ints, stepping the timing model once
    per committed instruction.
``CompiledEngine`` (in :mod:`repro.sim.compiled`)
    Goes one step further: partitions the program into superblocks and
    ``compile()``s one specialized Python function per block (registers in
    locals, immediates folded to constants, the timing model stepped at
    run time only for the first two instructions and folded to constants
    for the rest), dispatching block-to-block through a PC → function
    table.  Several times faster again than ``FastEngine`` on loop-heavy
    workloads, and its generated code is shareable across worker processes
    through the artifact cache (:mod:`repro.cache`).

Use them (directly, through :func:`execute_program` /
:func:`compile_and_run`, or via ``HardwareFramework.simulate(engine="fast")``
/ ``engine="compiled"``) whenever throughput matters more than per-trit
observability.

``BatchEngine`` (in :mod:`repro.sim.batch`)
    The throughput tier: executes *many* lanes of one shared instruction
    stream concurrently, with registers and data memory as numpy arrays
    over a batch dimension.  Lanes that diverge (data-dependent branches,
    indirect jumps, halts, faults) are tracked as path groups and
    reconverge automatically; per-lane ``PipelineStats`` stay bit-identical
    to ``FastEngine`` because the timing model depends only on the
    committed instruction stream, so each path group steps one timing
    state.  It is the differential fuzzer's fifth executor (one lane per
    program) and runs ``art9 fuzz --batch-lanes N``'s data variants.  It
    is the one numpy user, so ``BatchEngine``, ``BatchError`` and
    ``LaneOutcome`` load on first access: a process that never fuzzes
    never imports numpy.

Shared component models (ternary register file, TIM/TDM memories, the TALU)
live in their own modules so that both simulators — and the gate-level
analyzer, which counts their hardware resources — agree on the semantics.
"""

from repro.sim.machine import (
    BRANCH_POLICIES,
    DEFAULT_MACHINE_NAME,
    MACHINES,
    MachineConfig,
    MachineError,
    get_machine,
    machine_names,
    resolve_machine,
)
from repro.sim.memory import MemoryError_, TernaryMemory
from repro.sim.regfile import TernaryRegisterFile
from repro.sim.alu import ALUResult, TernaryALU
from repro.sim.functional import ExecutionResult, FunctionalSimulator, SimulationError
from repro.sim.pipeline import PipelineSimulator, PipelineStats
from repro.sim.engine import FastEngine, execute_program
from repro.sim.compiled import CompiledEngine, compile_and_run
from repro.sim.trace import capture_golden_trace, memory_digest, state_digest, trace_mismatches

__all__ = [
    "MachineConfig",
    "MachineError",
    "BRANCH_POLICIES",
    "DEFAULT_MACHINE_NAME",
    "MACHINES",
    "get_machine",
    "machine_names",
    "resolve_machine",
    "TernaryMemory",
    "MemoryError_",
    "TernaryRegisterFile",
    "TernaryALU",
    "ALUResult",
    "FunctionalSimulator",
    "ExecutionResult",
    "SimulationError",
    "PipelineSimulator",
    "PipelineStats",
    "FastEngine",
    "execute_program",
    "CompiledEngine",
    "compile_and_run",
    "BatchEngine",
    "BatchError",
    "LaneOutcome",
    "capture_golden_trace",
    "memory_digest",
    "state_digest",
    "trace_mismatches",
]

_BATCH_EXPORTS = ("BatchEngine", "BatchError", "LaneOutcome")


def __getattr__(name):
    # The batch engine is the only numpy user; resolving its exports
    # lazily (PEP 562) keeps numpy out of every process that never
    # fuzzes.
    if name in _BATCH_EXPORTS:
        from repro.sim import batch
        return getattr(batch, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
