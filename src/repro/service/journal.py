"""Write-ahead lifecycle journal for the sweep coordinator.

``results.jsonl`` records *outcomes*; it says nothing about jobs that were
handed to a worker and never came back.  The journal fills that gap: the
coordinator appends one fsync'd whole-line JSON event per queue-lifecycle
transition, so after a ``kill -9`` the exact scheduling state can be
rebuilt from disk.  A healthy job produces one event::

    {"event": "leased",   "job_id": ..., "worker": ..., "attempt": n}

and the unhappy paths add::

    {"event": "requeued", "job_id": ..., "reason": ..., "worker": ...}
    {"event": "lost",     "job_id": ..., "reason": ..., "attempts": n}

A healthy job's lease is settled by its record in ``results.jsonl``: the
coordinator stores a record (fsync'd) before it counts the job done, so a
journal event for the acceptance would only repeat it.  Nor does the
journal list the jobs a run starts with: ``spec.json`` and
``results.jsonl`` already say which are pending.

``art9 serve --resume RUN_DIR`` replays the journal together with
``results.jsonl``:

* the **pending set** is every expanded job without an ``ok`` record —
  exactly the orchestrator's normal resume rule, so a journal-less run
  directory still resumes;
* **formerly-leased jobs** (a ``leased`` with no later ``requeued`` /
  ``lost`` and no stored record) were in a dead worker's hands when the
  coordinator died; recovery writes an explicit
  ``requeued (coordinator restart)`` event for each, so the journal reads
  as a complete history across the crash.  A job leased again after an
  earlier run stored an ``error`` record for it also counts as settled;
  it is still pending, so it runs again all the same;
* **dispatch counts** (number of ``leased`` events per job) survive the
  restart, so the ``max_requeues`` poison-job budget cannot be reset by
  crashing the coordinator;
* the **workers** named by ``leased`` events may still be backing off
  from the outage when the resumed run completes, so the resumed
  coordinator waits a while for each of them to hear ``done``.

Torn tails are expected — the coordinator may die mid-append — so both
writing and replay go through :mod:`repro.durable`: an append seals a
torn final line first, and replay skips it, so one interrupted write can
never eat the next event.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Set

from repro import durable

#: Journal file name inside a run directory (next to ``results.jsonl``).
JOURNAL_FILENAME = "journal.jsonl"


def journal_path(run_dir: str) -> str:
    """Location of the coordinator journal for one run directory."""
    return os.path.join(run_dir, JOURNAL_FILENAME)


class RunJournal:
    """Append-only, fsync'd JSONL journal of coordinator lifecycle events.

    Every append goes through :func:`repro.durable.append`, so an event the
    coordinator acted on is on disk before the action's consequences can
    be observed elsewhere.
    """

    def __init__(self, path: str):
        self.path = path
        self.events_written = 0

    def append(self, event: str, **fields) -> None:
        """Durably append one lifecycle event (whole line, fsync'd)."""
        self.append_many([{"event": event, **fields}])

    def append_many(self, events: Iterable[dict]) -> None:
        """Append a batch of events under a single fsync.

        Every append, single events included, goes through here, so the
        ``events_written`` count covers the whole journal.
        """
        self.events_written += durable.append(self.path, events)


def replay_journal(path: str) -> List[dict]:
    """All parseable events of a journal file, in append order.

    Torn, non-object and event-less lines (the coordinator died
    mid-append) are skipped with a warning rather than raised — recovery
    must work precisely when the previous run ended badly.
    """
    return durable.read(path, "event")


@dataclass
class JournalRecovery:
    """Scheduling state rebuilt from a journal replay."""

    #: ``leased`` events per job — restores the poison-job budget.
    dispatch_counts: Dict[str, int] = field(default_factory=dict)
    #: Jobs a worker was holding when the coordinator died (job_id ->
    #: worker name), minus anything ``results.jsonl`` holds a record for.
    leased: Dict[str, str] = field(default_factory=dict)
    #: Names of the workers that leased a job from an earlier incarnation.
    workers: Set[str] = field(default_factory=set)
    #: Events the replay parsed (for logs and tests).
    events_replayed: int = 0

    def summary(self) -> str:
        return (f"journal: {self.events_replayed} events replayed, "
                f"{len(self.leased)} leased jobs requeued, "
                f"{len(self.dispatch_counts)} jobs with dispatch history")


def recover_from_events(events: Iterable[dict],
                        stored_ids: Iterable[str] = ()) -> JournalRecovery:
    """Fold a journal replay into restart state.

    ``stored_ids`` — job IDs with a record (``ok`` or ``error``) in
    ``results.jsonl`` — settle those jobs' leases: the coordinator stores
    a record before it counts the job done.  Otherwise only ``requeued``
    and ``lost`` events settle a lease.
    """
    recovery = JournalRecovery()
    for event in events:
        recovery.events_replayed += 1
        kind = event.get("event")
        job_id = event.get("job_id")
        if not isinstance(job_id, str):
            continue
        if kind == "leased":
            recovery.dispatch_counts[job_id] = \
                recovery.dispatch_counts.get(job_id, 0) + 1
            worker = event.get("worker")
            recovery.leased[job_id] = str(worker or "?")
            if isinstance(worker, str):
                recovery.workers.add(worker)
        elif kind in ("requeued", "lost"):
            recovery.leased.pop(job_id, None)
    for job_id in stored_ids:
        recovery.leased.pop(job_id, None)
    return recovery


def recover_run(run_dir: str,
                stored_ids: Iterable[str] = ()) -> JournalRecovery:
    """Replay ``run_dir``'s journal and return the restart state.

    Pure read — writing the explicit ``requeued (coordinator restart)``
    events for the recovered leases is the caller's job.
    """
    return recover_from_events(replay_journal(journal_path(run_dir)),
                               stored_ids=stored_ids)
