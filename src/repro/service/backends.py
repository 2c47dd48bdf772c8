"""Pluggable execution backends for the sweep orchestrator.

``run_sweep`` used to hard-code one execution strategy (inline loop or a
``multiprocessing`` pool); this module extracts that choice behind the
:class:`ExecutionBackend` interface so the same expansion/resume/store
machinery can run jobs in-process, across a local worker pool, or across a
TCP coordinator with remote workers (:class:`~repro.service.queue_backend.
AsyncQueueBackend`).

A backend's contract is deliberately minimal: ``execute(jobs, emit)`` runs
every job exactly once (or emits an error record for it) and calls ``emit``
with each finished record as it arrives, from the calling thread.  Record
*content* must be backend-independent — the conformance suite asserts that
every backend produces the same result set for the same jobs, modulo the
volatile wall-clock/PID fields listed in
:data:`repro.runner.store.VOLATILE_RECORD_FIELDS`.
"""

from __future__ import annotations

import abc
import multiprocessing
from typing import Callable, Sequence

from repro.runner.spec import SweepJob
from repro.runner.worker import execute_job

#: Callback receiving each finished record.
EmitFn = Callable[[dict], None]


class ExecutionBackend(abc.ABC):
    """Strategy for executing a batch of sweep jobs."""

    @abc.abstractmethod
    def execute(self, jobs: Sequence[SweepJob], emit: EmitFn) -> None:
        """Run every job, calling ``emit(record)`` as each one finishes."""


class SerialBackend(ExecutionBackend):
    """Run jobs inline in the calling process.

    Shares the module-level framework caches of
    :mod:`repro.runner.worker`, so a serial sweep still translates each
    distinct workload instance exactly once.
    """

    def execute(self, jobs: Sequence[SweepJob], emit: EmitFn) -> None:
        for job in jobs:
            emit(execute_job(job))


class MultiprocessingBackend(ExecutionBackend):
    """Shard jobs across a pool of persistent local worker processes."""

    def __init__(self, processes: int = 2):
        if processes < 1:
            raise ValueError(f"processes must be >= 1, got {processes}")
        self.processes = processes

    def execute(self, jobs: Sequence[SweepJob], emit: EmitFn) -> None:
        if not jobs:
            return
        if self.processes == 1 or len(jobs) == 1:
            SerialBackend().execute(jobs, emit)
            return
        # Workers stay warm across all the jobs of this run, which is where
        # the per-process translation cache pays off.  chunksize=1 keeps the
        # shards balanced — job costs vary by orders of magnitude across the
        # grid (fast vs pipeline engine, small vs grown workload variants).
        with multiprocessing.Pool(processes=self.processes) as pool:
            for record in pool.imap_unordered(execute_job, list(jobs),
                                              chunksize=1):
                emit(record)


def default_backend(jobs: int) -> ExecutionBackend:
    """The orchestrator's historical behaviour as a backend choice."""
    if jobs > 1:
        return MultiprocessingBackend(processes=jobs)
    return SerialBackend()
