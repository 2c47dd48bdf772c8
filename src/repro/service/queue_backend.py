"""The execution backend behind ``art9 serve``: a coordinator workers dial.

:class:`AsyncQueueBackend` runs a :class:`~repro.service.coordinator.
Coordinator` over the pending jobs in the calling process, announces the
bound address through ``on_started``, and returns once every job has a
record.  The jobs run on ``art9 work --connect host:port`` clients, on this
machine or any other; each is a fresh interpreter that imports
:mod:`repro` on its own.  A local parallel sweep does not need the service:
``art9 sweep --jobs N`` runs the same jobs on a local worker pool.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Iterable, List, Mapping, Optional, Sequence

from repro.runner.spec import SweepJob
from repro.service.backends import EmitFn, ExecutionBackend
from repro.service.coordinator import (
    DEFAULT_HEARTBEAT_TIMEOUT,
    DEFAULT_MAX_REQUEUES,
    Coordinator,
    CoordinatorStats,
)
from repro.service.journal import RunJournal

#: Callback announcing the bound (host, port) once the coordinator listens.
StartedFn = Callable[[str, int], None]


class AsyncQueueBackend(ExecutionBackend):
    """Execute jobs on the workers that dial an asyncio TCP coordinator."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
        max_requeues: int = DEFAULT_MAX_REQUEUES,
        on_started: Optional[StartedFn] = None,
        journal: Optional[RunJournal] = None,
        auth_token: Optional[str] = None,
        dispatch_counts: Optional[Mapping[str, int]] = None,
        recovered_jobs: int = 0,
        returning_workers: Iterable[str] = (),
    ):
        self.host = host
        self.port = port
        self.heartbeat_timeout = heartbeat_timeout
        self.max_requeues = max_requeues
        self.on_started = on_started
        #: Write-ahead journal handle (``art9 serve`` wires one per run
        #: dir); coordinator lifecycle events land here, fsync'd.
        self.journal = journal
        #: Shared worker-auth token every connection must present.
        self.auth_token = auth_token
        #: Dispatch counts recovered from a journal replay (``--resume``),
        #: so the poison-job budget keeps counting across restarts.
        self.dispatch_counts = dict(dispatch_counts or {})
        #: Number of formerly-leased jobs a journal replay requeued (shown
        #: in the final stats line of a resumed run).
        self.recovered_jobs = recovered_jobs
        #: Workers that leased jobs before a ``--resume`` restart; the
        #: coordinator waits for them to hear ``done`` once the run ends.
        self.returning_workers = frozenset(returning_workers)
        #: Stats of the most recent run (None before the first execute()).
        self.stats: Optional[CoordinatorStats] = None

    def execute(self, jobs: Sequence[SweepJob], emit: EmitFn) -> None:
        if not jobs:
            return
        asyncio.run(self._run(list(jobs), emit))

    async def _run(self, jobs: List[SweepJob], emit: EmitFn) -> None:
        coordinator = Coordinator(
            jobs,
            on_result=emit,
            host=self.host,
            port=self.port,
            heartbeat_timeout=self.heartbeat_timeout,
            max_requeues=self.max_requeues,
            journal=self.journal,
            auth_token=self.auth_token,
            dispatch_counts=self.dispatch_counts,
            recovered_jobs=self.recovered_jobs,
            returning_workers=self.returning_workers,
        )
        serve_task = asyncio.create_task(coordinator.serve())
        if await coordinator.wait_started() is not None \
                and self.on_started is not None:
            self.on_started(self.host, coordinator.port)
        await serve_task  # raises the bind error if the listener failed
        self.stats = coordinator.stats
