"""Persistent sweep workers: pure job specs in, plain-dict records out.

:func:`execute_job` is the one path every sweep job takes, however it
runs: inline, on a local process pool, or on an ``art9 work`` client.  It is
importable at module scope so it can cross a ``multiprocessing``
boundary under any start method.  Worker processes are
*persistent*: the module-level caches keep one :class:`SoftwareFramework`
per optimize setting (which itself memoises assembled/translated programs)
and one :class:`HardwareFramework` per engine, so a worker that executes
both the fast-engine and pipeline jobs of a workload pays for assembly and
translation exactly once.  Across *processes*, translation and
compiled-engine codegen additionally flow through the shared on-disk
artifact cache (:mod:`repro.cache`): the first worker anywhere on the
machine to reach a grid point builds the artifact, every later worker —
including ones in entirely separate sweep invocations — deserialises it.

The same property makes the inline (``jobs=1``) path cheap: the
orchestrator calls :func:`execute_job` directly in-process and hits the
identical caches.
"""

from __future__ import annotations

import os
import time
from typing import Dict, Optional, Tuple

from repro.baselines import ARMv6MCodeSizeModel, PicoRV32Model, VexRiscvModel
from repro.framework.hwflow import HardwareFramework
from repro.framework.swflow import SoftwareFramework, WorkloadKey, workload_key
from repro.obs import trace
from repro.riscv.simulator import RVSimulator
from repro.runner.spec import BASELINE_ENGINES, SweepJob
from repro.sim.machine import DEFAULT_MACHINE_NAME
from repro.sim.trace import state_digest
from repro.workloads import get_workload
from repro.workloads.base import Workload

# Spawned worker processes inherit ART9_TRACE/ART9_TRACE_FILE from the
# parent (the CLI sets them before the jobs start), so picking the
# tracing decision up at import time covers every start method.
trace.configure_from_env()

#: Per-process framework caches (populated lazily; survive across jobs).
_SOFTWARE: Dict[bool, SoftwareFramework] = {}
_HARDWARE: Dict[Tuple[str, str], HardwareFramework] = {}
_WORKLOADS: Dict[WorkloadKey, Workload] = {}


def _software(optimize: bool) -> SoftwareFramework:
    framework = _SOFTWARE.get(optimize)
    if framework is None:
        framework = _SOFTWARE[optimize] = SoftwareFramework(optimize=optimize)
    return framework


def _hardware(engine: str, machine: str = DEFAULT_MACHINE_NAME) -> HardwareFramework:
    key = (engine, machine)
    framework = _HARDWARE.get(key)
    if framework is None:
        framework = _HARDWARE[key] = HardwareFramework(
            engine=engine, machine=machine)
    return framework


def _workload(name: str, params: Optional[dict] = None) -> Workload:
    """Cached workload instances (the RV program is cached on the object)."""
    key = workload_key(name, params)
    workload = _WORKLOADS.get(key)
    if workload is None:
        workload = _WORKLOADS[key] = get_workload(name, **dict(params or {}))
    return workload


def reset_caches() -> None:
    """Drop the per-process framework caches.

    A test fixture: tests call it to act as a fresh worker process; the
    program itself never does.
    """
    _SOFTWARE.clear()
    _HARDWARE.clear()
    _WORKLOADS.clear()


def execute_job(job: SweepJob) -> dict:
    """Run one sweep job and return its structured result record.

    Never raises: failures come back as ``status="error"`` records so one
    broken grid cell cannot take down a whole sweep (or its worker pool).
    """
    started = time.perf_counter()
    record = {
        "job_id": job.job_id,
        "label": job.label,
        "workload": job.workload,
        "engine": job.engine,
        "optimize": job.optimize,
        "params": job.params_dict,
        "max_cycles": job.max_cycles,
        "machine": job.machine,
        "status": "ok",
        "worker_pid": os.getpid(),
    }
    try:
        with trace.span("job", job_id=job.job_id, label=job.label):
            if job.engine in BASELINE_ENGINES:
                record.update(_execute_baseline(job))
            else:
                record.update(_execute_art9(job))
    except Exception as exc:  # pragma: no cover - exercised via error-path test
        record["status"] = "error"
        record["error"] = f"{type(exc).__name__}: {exc}"
    record["elapsed_s"] = round(time.perf_counter() - started, 6)
    return record


def _execute_art9(job: SweepJob) -> dict:
    """Translate and simulate one workload on an ART-9 engine.

    Translation goes through the cross-process artifact cache
    (:meth:`~repro.framework.swflow.SoftwareFramework.
    compile_named_workload_cached`), so across a whole worker fleet each
    grid point is translated once, no matter how many processes — local
    pool workers or ``art9 work`` clients — touch it.
    """
    software = _software(job.optimize)
    xlate_started = time.perf_counter()
    program, report, workload = software.compile_named_workload_cached(
        job.workload, job.params_dict)
    xlate_s = time.perf_counter() - xlate_started
    cache_hit = software.last_compile_source in ("memo", "cache")
    phase: Dict[str, float] = {}
    with trace.span("simulate", engine=job.engine, workload=job.workload):
        stats, registers, memory = _hardware(job.engine, job.machine).simulate_with_state(
            program, max_cycles=job.max_cycles, engine=job.engine, timings=phase)
    actual = [
        memory.get(workload.result_base + 4 * index, 0)
        for index in range(workload.result_count)
    ]
    return {
        "timings": {
            "xlate_s": round(xlate_s, 6),
            "codegen_s": round(phase.get("codegen_s", 0.0), 6),
            "execute_s": round(phase.get("execute_s", 0.0), 6),
        },
        "cache_hit": cache_hit,
        "cycles": stats.cycles,
        "instructions": stats.instructions_committed,
        "cpi": round(stats.cpi, 6),
        "stall_cycles": stats.stall_cycles,
        "stats": stats.to_dict(),
        "state_digest": state_digest(registers, memory),
        "verified": actual == workload.expected_results,
        "iterations": workload.iterations,
        "translated_instructions": report.final_instructions,
        "instruction_expansion": round(report.instruction_expansion, 6),
        "memory_cells": report.ternary_memory_trits,
        "memory_cell_ratio": round(report.memory_cell_ratio, 6),
    }


def _execute_baseline(job: SweepJob) -> dict:
    """Run one workload's RV-32 side through a baseline-core model.

    The baseline models consume the untranslated RV-32 program, so the
    ``optimize`` axis has no effect on them beyond the job identity;
    ``memory_cells`` holds the binary instruction-memory footprint
    (RV-32I bits, or estimated Thumb-1 bits for ``armv6m``) that the
    Fig. 5 comparison divides the ternary trit counts by.
    """
    started = time.perf_counter()
    workload = _workload(job.workload, job.params_dict)
    rv_program = workload.rv_program()
    if job.engine == "armv6m":
        size = ARMv6MCodeSizeModel().estimate(rv_program)
        return {
            "timings": {"xlate_s": 0.0, "codegen_s": 0.0,
                        "execute_s": round(time.perf_counter() - started, 6)},
            "cache_hit": False,
            "cycles": 0,
            "instructions": 0,
            "cpi": 0.0,
            "stall_cycles": 0,
            "verified": True,
            "iterations": workload.iterations,
            "memory_cells": size.total_bits,
            "thumb_instructions": size.thumb_instructions,
            "literal_pool_words": size.literal_pool_words,
        }
    model = PicoRV32Model() if job.engine == "picorv32" else VexRiscvModel()
    simulator = RVSimulator(rv_program)
    result = model.run(rv_program, simulator=simulator,
                       max_cycles=job.max_cycles)
    actual = simulator.memory_words(workload.result_base, workload.result_count)
    return {
        "timings": {"xlate_s": 0.0, "codegen_s": 0.0,
                    "execute_s": round(time.perf_counter() - started, 6)},
        "cache_hit": False,
        "cycles": result.cycles,
        "instructions": result.instructions,
        "cpi": round(result.cpi, 6),
        "stall_cycles": result.detail.get("load_use_stalls", 0),
        "verified": actual == workload.expected_results,
        "iterations": workload.iterations,
        "memory_cells": rv_program.instruction_memory_bits(),
        "baseline_detail": dict(result.detail),
    }
