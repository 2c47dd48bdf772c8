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
bit-identically (asserted continuously by the differential suite).
Their ``PipelineStats`` come from one analytic timing model,
:mod:`repro.sim.timing`, which the structural ``PipelineSimulator`` checks:

``FastEngine`` (in :mod:`repro.sim.engine`)
    Pre-decodes the program into flat integer dispatch records and
    interprets them on plain Python ints, applying the timing model once
    per straight-line run: a run that repeats steps only its first two
    instructions and adds folded counters for the rest.
``CompiledEngine`` (in :mod:`repro.sim.compiled`)
    Goes one step further: partitions the program into superblocks and
    ``compile()``s one specialized Python function per block (registers in
    locals, immediates folded to constants, the timing model stepped at
    run time only for the first two instructions and folded to constants
    for the rest), dispatching block-to-block through a PC → function
    table.  About twice as fast again as ``FastEngine`` on loop-heavy
    workloads, and its generated code is shareable across worker processes
    through the artifact cache (:mod:`repro.cache`).

Both stand on one shell in :mod:`repro.sim.engine` and time every run.
Use them (directly, or via ``HardwareFramework.simulate(engine="fast")``
/ ``engine="compiled"``) whenever throughput matters more than per-trit
observability.

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
from repro.sim.alu import TernaryALU
from repro.sim.functional import ExecutionResult, FunctionalSimulator, SimulationError
from repro.sim.pipeline import PipelineSimulator, PipelineStats
from repro.sim.engine import FastEngine
from repro.sim.compiled import CompiledEngine
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
    "FunctionalSimulator",
    "ExecutionResult",
    "SimulationError",
    "PipelineSimulator",
    "PipelineStats",
    "FastEngine",
    "CompiledEngine",
    "capture_golden_trace",
    "memory_digest",
    "state_digest",
    "trace_mismatches",
]
