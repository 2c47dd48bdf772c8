"""The distributed execution backend: a coordinator plus worker clients.

:class:`AsyncQueueBackend` runs a :class:`~repro.service.coordinator.
Coordinator` in the calling process and executes jobs on worker clients
connected over TCP.  Two deployment shapes share the one implementation:

* ``workers=N`` (N >= 1) spawns N local worker processes against the
  coordinator's ephemeral port — a single-machine distributed run, which is
  what the CI regression job and the backend conformance suite use;
* ``workers=0`` binds the requested host/port and waits for external
  ``art9 work --connect host:port`` clients — the multi-machine shape
  behind ``art9 serve``.

Worker processes are started with the ``spawn`` method: each one is a fresh
interpreter that imports :mod:`repro` on its own, exactly like a remote
worker on another machine would, so the local convenience mode cannot hide
fork-only behaviour.
"""

from __future__ import annotations

import asyncio
import contextlib
import multiprocessing
from typing import Callable, List, Mapping, Optional, Sequence

from repro.runner.spec import SweepJob
from repro.service.backends import EmitFn, ExecutionBackend
from repro.service.coordinator import (
    DEFAULT_HEARTBEAT_TIMEOUT,
    DEFAULT_MAX_REQUEUES,
    Coordinator,
    CoordinatorStats,
)
from repro.service.journal import RunJournal
from repro.service.workerclient import (
    DEFAULT_HEARTBEAT_INTERVAL,
    run_worker_process,
)

#: Callback announcing the bound (host, port) once the coordinator listens.
StartedFn = Callable[[str, int], None]


class AsyncQueueBackend(ExecutionBackend):
    """Execute jobs through the asyncio TCP coordinator."""

    def __init__(
        self,
        workers: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        max_requeues: int = DEFAULT_MAX_REQUEUES,
        on_started: Optional[StartedFn] = None,
        journal: Optional[RunJournal] = None,
        auth_token: Optional[str] = None,
        job_timeout: Optional[float] = None,
        dispatch_counts: Optional[Mapping[str, int]] = None,
        recovered_jobs: int = 0,
    ):
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self.workers = workers
        self.host = host
        self.port = port
        self.heartbeat_timeout = heartbeat_timeout
        self.heartbeat_interval = heartbeat_interval
        self.max_requeues = max_requeues
        self.on_started = on_started
        #: Write-ahead journal handle (``art9 serve`` wires one per run
        #: dir); coordinator lifecycle events land here, fsync'd.
        self.journal = journal
        #: Shared worker-auth token; local spawned workers receive it too.
        self.auth_token = auth_token
        #: Per-job wall-clock execution budget for local spawned workers.
        self.job_timeout = job_timeout
        #: Dispatch counts recovered from a journal replay (``--resume``),
        #: so the poison-job budget keeps counting across restarts.
        self.dispatch_counts = dict(dispatch_counts or {})
        #: Number of formerly-leased jobs a journal replay requeued (shown
        #: in the final stats line of a resumed run).
        self.recovered_jobs = recovered_jobs
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
            expected_workers=self.workers,
        )
        serve_task = asyncio.create_task(coordinator.serve())
        await coordinator.wait_started()
        if coordinator.port is None:
            await serve_task  # propagates the bind error (port in use, ...)
            return
        if self.on_started is not None:
            self.on_started(self.host, coordinator.port)
        processes = self._spawn_workers(coordinator.port)
        monitor = (asyncio.create_task(self._monitor(processes, coordinator))
                   if processes else None)
        try:
            await serve_task
        finally:
            if monitor is not None:
                monitor.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await monitor
            for process in processes:
                process.join(timeout=10)
                if process.is_alive():  # pragma: no cover - cleanup backstop
                    process.terminate()
                    process.join(timeout=5)
        self.stats = coordinator.stats

    @staticmethod
    async def _monitor(processes: List, coordinator: Coordinator) -> None:
        """Abort the run instead of hanging if every worker is gone.

        The coordinator holds dispatch until every spawned worker has said
        hello; once any of them has exited, that hold is lifted so a worker
        that died at start cannot stall the run.  External workers may
        coexist with the spawned local ones (``art9 serve --local-workers
        N``), so dead local processes only abort the run when no worker
        connection is open either.
        """
        while True:
            await asyncio.sleep(0.5)
            if coordinator.outstanding <= 0:
                return
            alive = [process.is_alive() for process in processes]
            if not all(alive):
                coordinator.lift_worker_hold()
            if not any(alive) and coordinator.connected_workers == 0:
                coordinator.abort("all local worker processes exited and "
                                  "no external workers are connected")
                return

    def _spawn_workers(self, port: Optional[int]) -> List:
        if not self.workers or port is None:
            return []
        # A wildcard bind is not a connectable address; local workers dial
        # loopback in that case.
        connect_host = "127.0.0.1" if self.host in ("0.0.0.0", "::") else self.host
        context = multiprocessing.get_context("spawn")
        processes = []
        for _ in range(self.workers):
            process = context.Process(
                target=run_worker_process,
                args=(connect_host, port),
                kwargs={"heartbeat_interval": self.heartbeat_interval,
                        "auth_token": self.auth_token,
                        "job_timeout": self.job_timeout},
                daemon=True,
            )
            process.start()
            processes.append(process)
        return processes
