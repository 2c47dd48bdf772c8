"""Sweep orchestrator: expand the grid, run the pending jobs, stream the results.

``run_sweep`` is the one entry point: it expands a :class:`SweepSpec` into
content-addressed jobs, drops every job the run directory already holds an
``ok`` record for (resume), and runs the remainder through
:func:`repro.runner.worker.execute_job`:

* inline when ``jobs <= 1`` or only one job is pending;
* otherwise on :func:`run_pool`, a ``multiprocessing`` pool of ``jobs``
  persistent workers (:mod:`repro.runner.worker` caches translated
  programs per process);
* or through the caller's ``execute(jobs, emit)``: ``art9 serve`` passes
  one that hands the jobs to the ``art9 work`` clients dialling its
  coordinator (:mod:`repro.service`).

Finished records are appended to the JSONL store as they arrive, however
the jobs run, so interrupting a sweep at any point loses at most the
in-flight jobs.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.runner import worker
from repro.runner.spec import SweepJob, SweepSpec
from repro.runner.store import RunStore

#: Callback invoked with each finished record (CLI progress, tests).
ProgressFn = Callable[[dict], None]

#: Runs a batch of jobs, calling the second argument with each record.
ExecuteFn = Callable[[Sequence[SweepJob], ProgressFn], None]


@dataclass
class SweepOutcome:
    """What one ``run_sweep`` call did."""

    run_dir: str
    total_jobs: int
    executed: int
    skipped: int
    records: List[dict] = field(default_factory=list)

    @property
    def failures(self) -> List[dict]:
        """Records that errored or failed result verification."""
        return [
            record for record in self.records
            if record.get("status") != "ok" or not record.get("verified", False)
        ]

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.failures)} FAILURES"
        return (
            f"sweep: {self.total_jobs} jobs ({self.executed} executed, "
            f"{self.skipped} resumed from {self.run_dir}), {status}"
        )


def run_pool(jobs: Sequence[SweepJob], emit: ProgressFn,
             processes: int) -> None:
    """Run ``jobs`` on ``processes`` local worker processes.

    ``emit`` receives each record in the calling process as it arrives.
    """
    # Workers stay warm across all the jobs of this run, which is where
    # the per-process translation cache pays off.  chunksize=1 keeps the
    # shards balanced — job costs vary by orders of magnitude across the
    # grid (fast vs pipeline engine, small vs grown workload variants).
    with multiprocessing.Pool(processes=processes) as pool:
        for record in pool.imap_unordered(worker.execute_job, list(jobs),
                                          chunksize=1):
            emit(record)


def run_sweep(
    spec: SweepSpec,
    out_dir: str,
    jobs: int = 1,
    resume: bool = True,
    progress: Optional[ProgressFn] = None,
    execute: Optional[ExecuteFn] = None,
) -> SweepOutcome:
    """Execute (or resume) the sweep described by ``spec`` into ``out_dir``.

    The pending jobs run inline when ``jobs <= 1`` or only one is pending,
    and on :func:`run_pool` with ``jobs`` workers otherwise; ``execute``,
    when given, runs them instead.  With ``resume`` (the default) jobs
    whose IDs already have successful records in ``out_dir`` are skipped;
    ``resume=False`` wipes the store first.
    """
    store = RunStore(out_dir)
    if not resume:
        store.reset()
    store.initialize(spec)

    all_jobs = spec.expand()
    done = store.completed_ids()
    pending = [job for job in all_jobs if job.job_id not in done]

    executed: List[dict] = []

    def finish(record: dict) -> None:
        store.append(record)
        executed.append(record)
        if progress is not None:
            progress(record)

    if execute is not None:
        if pending:
            execute(pending, finish)
    elif jobs > 1 and len(pending) > 1:
        run_pool(pending, finish, jobs)
    else:
        for job in pending:
            finish(worker.execute_job(job))

    store.write_summary()
    return SweepOutcome(
        run_dir=out_dir,
        total_jobs=len(all_jobs),
        executed=len(executed),
        skipped=len(all_jobs) - len(pending),
        records=store.records(),
    )


def list_jobs(spec: SweepSpec, out_dir: Optional[str] = None) -> List[dict]:
    """Expanded jobs of ``spec`` with their store status (for ``--list``)."""
    done = RunStore(out_dir).completed_ids() if out_dir else set()
    rows = []
    for job in spec.expand():
        rows.append({
            "job_id": job.job_id,
            "label": job.label,
            "status": "done" if job.job_id in done else "pending",
            **job.to_dict(),
        })
    return rows
