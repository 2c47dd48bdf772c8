"""Parallel backend for the differential fuzzing harness.

Splits a seed range into contiguous chunks, runs one
:func:`repro.testing.fuzz` call per chunk in a ``multiprocessing`` pool
(with the chunk's lane count, so batched fuzzing shards the same way), and
merges the per-chunk :class:`FuzzReport` objects.  Chunking by seed keeps
every failure reproducible exactly as in the serial harness (the report
names the generator seed), and merging in seed order makes the combined
report independent of worker scheduling.
"""

from __future__ import annotations

import multiprocessing
from typing import List, Optional

from repro.testing import FuzzReport, fuzz

#: Chunks handed out per worker; small enough to balance, large enough to
#: amortise the per-chunk generator warm-up.
CHUNKS_PER_WORKER = 4


def _chunks(count: int, seed: int, jobs: int, max_instructions: int,
            check_pipeline: bool, machine: Optional[str] = None,
            batch_lanes: int = 0) -> List[dict]:
    target = max(1, min(count, jobs * CHUNKS_PER_WORKER))
    base, extra = divmod(count, target)
    chunks = []
    next_seed = seed
    for index in range(target):
        size = base + (1 if index < extra else 0)
        if size == 0:
            continue
        chunk = {
            "seed": next_seed,
            "count": size,
            "max_instructions": max_instructions,
            "check_pipeline": check_pipeline,
        }
        if machine is not None:
            chunk["machine"] = machine
        if batch_lanes > 1:
            chunk["batch_lanes"] = batch_lanes
        chunks.append(chunk)
        next_seed += size
    return chunks


def _fuzz_chunk(chunk: dict) -> FuzzReport:
    """Fuzz one chunk from :func:`_chunks` (module level, so it pickles)."""
    return fuzz(count=chunk["count"], seed=chunk["seed"],
                max_instructions=chunk["max_instructions"],
                check_pipeline=chunk["check_pipeline"],
                machine=chunk.get("machine"),
                lanes=chunk.get("batch_lanes", 1))


def _merge(reports: List[FuzzReport]) -> FuzzReport:
    # ``pool.map`` returns chunk reports in submission order and chunks are
    # built in ascending seed order, so plain concatenation reproduces the
    # serial harness's failure order exactly.
    merged = FuzzReport()
    for report in reports:
        merged.programs_run += report.programs_run
        merged.instructions_executed += report.instructions_executed
        merged.budget_exhausted += report.budget_exhausted
        merged.failures.extend(report.failures)
    return merged


def run_parallel_fuzz(
    count: int = 100,
    seed: int = 0,
    jobs: int = 1,
    max_instructions: int = 200_000,
    check_pipeline: bool = True,
    machine: Optional[str] = None,
    batch_lanes: int = 0,
) -> FuzzReport:
    """Fuzz ``count`` seeds starting at ``seed`` across ``jobs`` processes.

    ``jobs <= 1`` runs one :func:`repro.testing.fuzz` call over the whole
    range; the merged parallel report covers the identical seed set
    ``seed .. seed+count-1``.  ``machine`` selects the microarchitecture
    config every engine in the differential harness is built with
    (default: the paper machine), and ``batch_lanes`` is ``fuzz``'s
    ``lanes``: above 1, each seed runs as that many data-variant lanes of
    one multi-lane ``BatchEngine``.
    """
    if jobs <= 1 or count <= 1:
        return fuzz(count=count, seed=seed,
                    max_instructions=max_instructions,
                    check_pipeline=check_pipeline,
                    machine=machine, lanes=batch_lanes)
    chunks = _chunks(count, seed, jobs, max_instructions, check_pipeline,
                     machine, batch_lanes)
    with multiprocessing.Pool(processes=jobs) as pool:
        reports = pool.map(_fuzz_chunk, chunks)
    return _merge(reports)
