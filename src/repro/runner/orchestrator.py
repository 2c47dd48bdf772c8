"""Sweep orchestrator: expand the grid, pick a backend, stream the results.

``run_sweep`` is the one entry point: it expands a :class:`SweepSpec` into
content-addressed jobs, drops every job the run directory already holds an
``ok`` record for (resume), then hands the remainder to an execution
backend (:mod:`repro.service.backends`):

* the default backend reproduces the historical behaviour — inline when
  ``jobs <= 1``, a ``multiprocessing`` pool of persistent workers
  otherwise (:mod:`repro.runner.worker` caches translated programs per
  process);
* any other :class:`~repro.service.backends.ExecutionBackend` — notably
  :class:`~repro.service.queue_backend.AsyncQueueBackend`, the coordinator
  behind ``art9 serve`` — can be passed explicitly and sees exactly the
  same jobs.

Finished records are appended to the JSONL store as they arrive no matter
which backend runs them, so interrupting a sweep at any point loses at
most the in-flight jobs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, List, Optional

from repro.runner.spec import SweepSpec
from repro.runner.store import RunStore

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package cycle
    from repro.service.backends import ExecutionBackend

#: Callback invoked with each finished record (CLI progress, tests).
ProgressFn = Callable[[dict], None]


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


def run_sweep(
    spec: SweepSpec,
    out_dir: str,
    jobs: int = 1,
    resume: bool = True,
    progress: Optional[ProgressFn] = None,
    backend: Optional["ExecutionBackend"] = None,
) -> SweepOutcome:
    """Execute (or resume) the sweep described by ``spec`` into ``out_dir``.

    ``backend`` selects the execution strategy; ``None`` keeps the
    historical default (inline for ``jobs <= 1``, else a
    ``multiprocessing`` pool of ``jobs`` workers).  With ``resume`` (the
    default) jobs whose IDs already have successful records in ``out_dir``
    are skipped; ``resume=False`` wipes the store first.
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

    if pending:
        if backend is None:
            from repro.service.backends import default_backend
            backend = default_backend(jobs)
        backend.execute(pending, finish)

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
