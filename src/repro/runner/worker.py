"""Persistent sweep workers: pure job specs in, plain-dict records out.

Every function here is importable at module scope so it can cross a
``multiprocessing`` boundary under any start method.  Worker processes are
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
from repro.testing import FuzzReport, GeneratorConfig
from repro.testing import fuzz as run_fuzz
from repro.testing import fuzz_batched as run_fuzz_batched
from repro.workloads import get_workload
from repro.workloads.base import Workload

# Spawned worker processes inherit ART9_TRACE/ART9_TRACE_FILE from the
# parent (the CLI sets them before the backend starts), so picking the
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
    """Drop the per-process framework caches (test isolation helper)."""
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
    pool workers, queue-backend spawn workers or remote ``art9 work``
    clients — touch it.
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


#: The workload-builder parameter treated as the per-lane variation axis
#: when batching same-grid-point jobs: jobs that differ *only* in it are
#: candidates for one multi-lane batch execution.
SEED_PARAM = "seed"


def batch_group_key(job: SweepJob) -> tuple:
    """Grid-point identity of a job with the seed-style axis removed."""
    varying = tuple(sorted(
        (key, value) for key, value in job.params if key != SEED_PARAM))
    return (job.workload, job.engine, job.optimize, job.machine,
            job.max_cycles, varying)


def batchable_groups(jobs: "list[SweepJob]") -> "list[list[SweepJob]]":
    """Partition a job list into batch-candidate groups.

    Jobs sharing a grid point (same workload/engine/optimize/machine/
    max_cycles and identical params apart from ``seed``) group together;
    baseline-core jobs always stay singletons (their models are not ART-9
    engines).  Group order follows first appearance and jobs keep their
    relative order inside a group, so flattening the groups in order and
    sorting records by job id reproduces the serial store layout.
    """
    groups: "list[list[SweepJob]]" = []
    index_of: Dict[tuple, int] = {}
    for job in jobs:
        if job.engine in BASELINE_ENGINES:
            groups.append([job])
            continue
        key = batch_group_key(job)
        position = index_of.get(key)
        if position is None:
            index_of[key] = len(groups)
            groups.append([job])
        else:
            groups[position].append(job)
    return groups


def execute_job_batch(jobs: "list[SweepJob]") -> "list[dict]":
    """Run one same-grid-point job group, batched when the programs allow.

    Every record is identical to what :func:`execute_job` produces for the
    same job (modulo the volatile ``elapsed_s``/``worker_pid`` fields, as
    for any backend) — the batch engine is bit-identical to the serial
    engines, so batching is purely an execution-throughput optimization.
    Any obstacle — divergent instruction streams, compile failures, a
    construction-time fault — falls back to the serial path, which also
    owns per-job error reporting.
    """
    if len(jobs) == 1:
        return [execute_job(jobs[0])]
    from repro.sim.batch import BatchEngine, batchable_programs

    started = time.perf_counter()
    try:
        compiled = []
        cache_hits = []
        for job in jobs:
            software = _software(job.optimize)
            compiled.append(software.compile_named_workload_cached(
                job.workload, job.params_dict))
            cache_hits.append(
                software.last_compile_source in ("memo", "cache"))
        xlate_elapsed = time.perf_counter() - started
        programs = [program for program, _, _ in compiled]
        if not batchable_programs(programs):
            return [execute_job(job) for job in jobs]
        with trace.span("batch", lanes=len(jobs), workload=jobs[0].workload):
            outcomes = BatchEngine(programs, machine=jobs[0].machine).run_with_stats(
                max_cycles=jobs[0].max_cycles)
    except Exception:
        return [execute_job(job) for job in jobs]
    elapsed = round((time.perf_counter() - started) / len(jobs), 6)
    xlate_share = round(xlate_elapsed / len(jobs), 6)
    execute_share = round(
        (time.perf_counter() - started - xlate_elapsed) / len(jobs), 6)
    records = []
    for job, (program, report, workload), outcome, cache_hit in zip(
            jobs, compiled, outcomes, cache_hits):
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
        if not outcome.ok:
            record["status"] = "error"
            record["error"] = f"{outcome.error_kind}: {outcome.error}"
        else:
            stats = outcome.stats
            result = outcome.result
            actual = [
                result.memory.get(workload.result_base + 4 * index, 0)
                for index in range(workload.result_count)
            ]
            record.update({
                "cycles": stats.cycles,
                "instructions": stats.instructions_committed,
                "cpi": round(stats.cpi, 6),
                "stall_cycles": stats.stall_cycles,
                "stats": stats.to_dict(),
                "state_digest": state_digest(result.registers, result.memory),
                "verified": actual == workload.expected_results,
                "iterations": workload.iterations,
                "translated_instructions": report.final_instructions,
                "instruction_expansion": round(report.instruction_expansion, 6),
                "memory_cells": report.ternary_memory_trits,
                "memory_cell_ratio": round(report.memory_cell_ratio, 6),
            })
        record["timings"] = {"xlate_s": xlate_share, "codegen_s": 0.0,
                             "execute_s": execute_share}
        record["cache_hit"] = cache_hit
        record["elapsed_s"] = elapsed
        records.append(record)
    return records


def execute_fuzz_chunk(chunk: dict) -> FuzzReport:
    """Run one contiguous seed range of a differential fuzzing session.

    ``chunk`` is a plain dict (``seed``, ``count``, ``max_instructions``,
    ``check_pipeline``, optional ``machine``, optional ``batch_lanes``) so
    the parallel fuzz front end can ship work to the same process pool the
    sweeps use.  ``batch_lanes > 1`` switches the chunk to the batched
    harness: each seed widens into that many data-variant lanes executed by
    one multi-lane :class:`~repro.sim.batch.BatchEngine` and pinned to the
    serial engines.
    """
    batch_lanes = int(chunk.get("batch_lanes", 0))
    if batch_lanes > 1:
        return run_fuzz_batched(
            count=int(chunk["count"]),
            seed=int(chunk["seed"]),
            config=GeneratorConfig(),
            lanes=batch_lanes,
            max_instructions=int(chunk.get("max_instructions", 200_000)),
            check_stats=bool(chunk.get("check_pipeline", True)),
            machine=chunk.get("machine"),
        )
    return run_fuzz(
        count=int(chunk["count"]),
        seed=int(chunk["seed"]),
        config=GeneratorConfig(),
        max_instructions=int(chunk.get("max_instructions", 200_000)),
        check_pipeline=bool(chunk.get("check_pipeline", True)),
        machine=chunk.get("machine"),
    )


def workload_probe(name: str, params: Optional[dict] = None) -> dict:
    """Cheap worker-side sanity probe (used by tests and diagnostics)."""
    program, report, workload = _software(True).compile_named_workload(name, params)
    return {
        "workload": workload.name,
        "instructions": len(program.instructions),
        "translated_instructions": report.final_instructions,
        "worker_pid": os.getpid(),
    }
