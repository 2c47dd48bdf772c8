"""Asyncio TCP coordinator: hands sweep jobs to pulling workers.

The coordinator owns the job queue of one sweep run.  Workers connect over
TCP, pull a job whenever they are idle (so a fast worker naturally steals
the load a slow one would otherwise sit on), execute it on their side and
stream the result record back; the coordinator forwards every accepted
record to its ``on_result`` callback — in practice the orchestrator's
store-append — so a run killed at any point loses at most the jobs that
were in flight.

Crash tolerance is entirely the coordinator's job:

* a **dropped connection** requeues whatever job that worker was holding;
* a **missed heartbeat** (no message about the job for ``heartbeat_timeout``
  seconds) requeues the job even though the connection still looks open —
  the watchdog assumes the worker process wedged or died without closing
  its socket;
* a **late result** from a worker whose job was already requeued and
  finished elsewhere is counted and dropped — the first accepted record
  wins, so duplicated execution can never duplicate records;
* a job requeued more than ``max_requeues`` times is declared **lost** and
  completed with a synthetic ``status="error"`` record (resume retries it,
  and one poison job cannot wedge the whole run);
* a **result for a job the coordinator never enqueued** is refused and
  counted — after a ``--resume`` restart a reconnecting worker may re-send
  a record whose job already completed in the previous incarnation, and a
  stray client can fabricate records; neither may disturb accounting;
* the **coordinator's own death** is covered by the write-ahead journal
  (:mod:`repro.service.journal`, wired in by the caller): every enqueue /
  lease / requeue / loss is an fsync'd event, and an accepted job is
  settled by its fsync'd record in ``results.jsonl``, so ``art9 serve
  --resume`` rebuilds the pending set, requeues formerly leased jobs, and
  keeps the poison budget counting across the crash;
* a **worker still backing off** from that crash when the resumed run
  completes is not connected to hear ``done``: the resumed coordinator
  keeps its listener open, answering ``done``, until every worker the
  journal names has heard it or :data:`DONE_GRACE_SECONDS` have passed.

When constructed with an ``auth_token``, every connection must present it
in its first message (constant-time compare) or it is refused with a
deterministic ``error`` reply — stray or malicious clients can neither
receive jobs nor inject results.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import logging
import time
from collections import deque
from dataclasses import dataclass
from typing import (Callable, Deque, Dict, Iterable, Mapping, Optional,
                    Sequence)

from repro.runner.spec import SweepJob
from repro.service.journal import RunJournal
from repro.service.protocol import (
    BACKOFF_LONGEST_SECONDS,
    MAX_MESSAGE_BYTES,
    PROTOCOL_VERSION,
    read_message,
    send_and_drain,
    send_message,
    token_matches,
)

logger = logging.getLogger(__name__)

#: Default seconds without any message about a job before it is requeued.
DEFAULT_HEARTBEAT_TIMEOUT = 15.0

#: Default number of requeues before a job is declared lost.
DEFAULT_MAX_REQUEUES = 3

#: How long a completed run waits for its returning workers to hear
#: ``done``: a worker backing off dials again within its longest backoff
#: step, and one more second covers its hello.
DONE_GRACE_SECONDS = BACKOFF_LONGEST_SECONDS + 1.0


@dataclass
class _InFlight:
    """One job currently assigned to one worker connection."""

    job: SweepJob
    connection_id: int
    worker: str
    last_seen: float


@dataclass
class CoordinatorStats:
    """Counters describing what one coordinator run did."""

    jobs_total: int = 0
    results_accepted: int = 0
    duplicate_results: int = 0
    malformed_results: int = 0
    unknown_results: int = 0
    requeues: int = 0
    lost_jobs: int = 0
    workers_seen: int = 0
    reconnects: int = 0
    auth_failures: int = 0
    recovered_jobs: int = 0

    def summary(self) -> str:
        extras = []
        if self.malformed_results:
            extras.append(f"{self.malformed_results} malformed results")
        if self.unknown_results:
            extras.append(f"{self.unknown_results} unknown results")
        if self.reconnects:
            extras.append(f"{self.reconnects} reconnects")
        if self.auth_failures:
            extras.append(f"{self.auth_failures} auth failures")
        if self.recovered_jobs:
            extras.append(f"{self.recovered_jobs} recovered jobs")
        suffix = (", " + ", ".join(extras)) if extras else ""
        return (
            f"coordinator: {self.results_accepted}/{self.jobs_total} jobs from "
            f"{self.workers_seen} workers ({self.requeues} requeued, "
            f"{self.lost_jobs} lost, {self.duplicate_results} duplicate "
            f"results{suffix})"
        )


class CoordinatorBindError(OSError):
    """The coordinator could not listen on the requested address."""


def lost_job_record(job: SweepJob, attempts: int, reason: str) -> dict:
    """Synthetic error record for a job no worker managed to finish."""
    return {
        "job_id": job.job_id,
        "label": job.label,
        **job.to_dict(),
        "status": "error",
        "error": f"lost after {attempts} dispatch attempts ({reason})",
    }


class Coordinator:
    """TCP job server for one batch of sweep jobs.

    ``serve()`` runs until every job has exactly one accepted record (real
    or synthetic-lost), tells the workers (:meth:`_announce_done`), then
    closes the listener.  The bound port is available as :attr:`port` once
    :meth:`wait_started` returns, which is what lets callers bind port 0
    and announce the real port to the workers.

    ``journal`` (a :class:`~repro.service.journal.RunJournal`) makes the
    scheduler's state machine durable; ``dispatch_counts`` seeds the
    poison-job budget from a journal replay so a ``--resume`` restart does
    not hand a crashing job a fresh set of attempts; ``auth_token``
    requires every connection to authenticate its first message.
    ``returning_workers`` names the workers that leased jobs from an
    earlier incarnation of the run (a journal replay); once the run
    completes, ``serve()`` waits up to :data:`DONE_GRACE_SECONDS` for each
    of them to hear ``done``.
    """

    def __init__(
        self,
        jobs: Sequence[SweepJob],
        on_result: Optional[Callable[[dict], None]] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
        max_requeues: int = DEFAULT_MAX_REQUEUES,
        journal: Optional[RunJournal] = None,
        auth_token: Optional[str] = None,
        dispatch_counts: Optional[Mapping[str, int]] = None,
        recovered_jobs: int = 0,
        returning_workers: Iterable[str] = (),
    ):
        self._pending: Deque[SweepJob] = deque(jobs)
        self._on_result = on_result
        self._host = host
        self._requested_port = port
        self._heartbeat_timeout = heartbeat_timeout
        self._max_requeues = max_requeues
        self._journal = journal
        self._auth_token = auth_token

        self._in_flight: Dict[str, _InFlight] = {}
        self._done: Dict[str, dict] = {}
        self._dispatch_counts: Dict[str, int] = dict(dispatch_counts or {})
        # Results are only accepted for jobs this run actually owns; a
        # reconnecting worker re-sending a record its previous coordinator
        # already persisted (and this --resume run therefore never
        # enqueued) must not inflate the done count past jobs_total.
        self._known_jobs = {job.job_id for job in self._pending}
        # worker name -> {"jobs_done", "requeues", "requeue_reasons",
        # "last_seen"} for the live status snapshot; purely observational.
        self._worker_stats: Dict[str, dict] = {}
        self._seen_worker_names: set = set()
        self._connection_ids = itertools.count(1)
        self._handler_tasks: set = set()
        # Open connections -> the worker name each one said hello with.
        self._writers: Dict[asyncio.StreamWriter, str] = {}
        # Workers of an earlier incarnation that have not heard ``done``
        # from this one; serve() waits for them once the run completes.
        self._owed_done = set(returning_workers)
        self._owed_heard = asyncio.Event()

        self.stats = CoordinatorStats(jobs_total=len(self._pending),
                                      recovered_jobs=recovered_jobs)
        self.port: Optional[int] = None
        self._started = asyncio.Event()
        self._all_done = asyncio.Event()
        self._fatal: Optional[BaseException] = None

    # -- lifecycle ----------------------------------------------------------

    async def wait_started(self) -> Optional[int]:
        """Block until the listener is up (or failed to bind).

        Returns the bound port, or ``None`` when :meth:`serve` could not
        listen — in that case awaiting the serve task yields the bind
        error.
        """
        await self._started.wait()
        return self.port

    @property
    def connected_workers(self) -> int:
        """Worker connections currently open."""
        return len(self._handler_tasks)

    def _journal_event(self, event: str, **fields) -> None:
        if self._journal is None:
            return
        try:
            self._journal.append(event, **fields)
        except OSError as exc:
            # Journal writes are advisory durability, results.jsonl is the
            # source of truth; a full disk here should surface as the
            # store-append failure it is about to become, not kill the
            # handler mid-protocol.
            logger.error("journal append failed (%s); continuing without "
                         "durability for this event", exc)

    async def serve(self) -> CoordinatorStats:
        """Listen, dispatch, and return once every job has a record."""
        if not self._pending:
            self._all_done.set()
            self._started.set()
            return self.stats
        if self._journal is not None:
            try:
                self._journal.append_many(
                    {"event": "enqueued", "job_id": job.job_id}
                    for job in self._pending)
            except OSError as exc:
                logger.error("journal enqueue batch failed (%s)", exc)
        try:
            server = await asyncio.start_server(
                self._handle_connection, self._host, self._requested_port,
                limit=MAX_MESSAGE_BYTES)
        except OSError as exc:
            # Port in use / unbindable address: unblock wait_started()
            # (port stays None) so callers see the error instead of
            # waiting forever.
            self._started.set()
            raise CoordinatorBindError(
                f"cannot listen on {self._host}:{self._requested_port}: {exc}"
            ) from exc
        self.port = server.sockets[0].getsockname()[1]
        self._started.set()
        watchdog = asyncio.create_task(self._watchdog())
        try:
            await self._all_done.wait()
            if self._fatal is None and self.outstanding <= 0:
                await self._announce_done()
        finally:
            cancelled = await self._shut_down(server, watchdog)
        if cancelled:
            # serve() itself was cancelled while it shut down; the
            # listener and the connections are closed, so pass it on.
            raise asyncio.CancelledError
        if self._fatal is not None:
            # A result callback (store append, progress print) failed; the
            # records it would have persisted are NOT in the store, so the
            # run must fail loudly instead of reporting success.
            raise self._fatal
        return self.stats

    async def _shut_down(self, server: asyncio.AbstractServer,
                         watchdog: asyncio.Task) -> bool:
        """Stop the watchdog, the listener and every connection handler.

        Returns whether :meth:`serve` was itself cancelled meanwhile.
        ``asyncio.wait`` raises ``CancelledError`` only for a cancellation
        of the waiting task, never for the children it cancelled, so unlike
        a suppressed ``await watchdog`` it cannot swallow the serve task's
        own; the shutdown finishes either way and the caller re-raises.
        """
        watchdog.cancel()
        server.close()
        # Workers that were waiting for more work may still hold open
        # connections; cancel their handlers so shutdown is quiet.
        tasks = {watchdog, *self._handler_tasks}
        for task in tasks:
            task.cancel()
        cancelled = False
        while True:
            try:
                await asyncio.wait(tasks)
                await server.wait_closed()
                return cancelled
            except asyncio.CancelledError:
                cancelled = True

    async def _announce_done(self) -> None:
        """Tell the workers that the run is complete.

        Every connected worker hears ``done`` at once, so idle ones exit
        cleanly instead of mistaking the closed socket for a crash and
        burning their reconnect budget.  A returning worker that is still
        backing off is not connected: the listener stays open, and the
        handler answers its reconnect with ``done``, until each of them
        has heard it or :data:`DONE_GRACE_SECONDS` have passed.
        """
        for writer, worker in list(self._writers.items()):
            try:
                send_message(writer, {"type": "done"})
                await asyncio.wait_for(writer.drain(), timeout=1.0)
            except Exception:
                continue
            self._heard_done(worker)
        if self._owed_done:
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(self._owed_heard.wait(),
                                       DONE_GRACE_SECONDS)

    def _heard_done(self, worker: str) -> None:
        self._owed_done.discard(worker)
        if not self._owed_done:
            self._owed_heard.set()

    # -- queue bookkeeping --------------------------------------------------

    @property
    def outstanding(self) -> int:
        """Jobs that do not have an accepted record yet."""
        return self.stats.jobs_total - len(self._done)

    def _worker_entry(self, worker: str) -> dict:
        entry = self._worker_stats.get(worker)
        if entry is None:
            entry = self._worker_stats[worker] = {
                "jobs_done": 0, "requeues": 0, "requeue_reasons": {},
                "last_seen": time.monotonic(),
            }
        return entry

    def status_snapshot(self) -> dict:
        """Point-in-time view of the queue and the worker fleet.

        Served over the wire for ``status`` requests (``art9 status
        --connect``); reads coordinator state only — no scheduling
        decision is taken or deferred on its behalf.
        """
        now = time.monotonic()
        return {
            "jobs_total": self.stats.jobs_total,
            "queue_depth": len(self._pending),
            "in_flight": len(self._in_flight),
            "done": len(self._done),
            "outstanding": self.outstanding,
            "requeues": self.stats.requeues,
            "lost_jobs": self.stats.lost_jobs,
            "duplicate_results": self.stats.duplicate_results,
            "unknown_results": self.stats.unknown_results,
            "reconnects": self.stats.reconnects,
            "auth_failures": self.stats.auth_failures,
            "recovered_jobs": self.stats.recovered_jobs,
            "connected_workers": self.connected_workers,
            "workers": {
                name: {
                    "jobs_done": entry["jobs_done"],
                    "requeues": entry["requeues"],
                    # Requeue cause histogram ({"disconnect": 2, ...}) so a
                    # status probe can tell a flaky link (disconnects) from
                    # a slow or wedged worker (heartbeat timeouts) — a bare
                    # requeue count blames the worker either way.
                    "requeue_reasons": dict(entry["requeue_reasons"]),
                    "heartbeat_age_s": round(now - entry["last_seen"], 3),
                }
                for name, entry in sorted(self._worker_stats.items())
            },
        }

    def _accept(self, record: dict) -> bool:
        """Take one result record; returns False for duplicates."""
        job_id = record.get("job_id")
        if self._fatal is not None:
            return False
        if not isinstance(job_id, str):
            # A record without a job identity cannot complete anything; the
            # job it was meant for stays in flight until the watchdog
            # requeues it, so leave a trace of what actually happened.
            self.stats.malformed_results += 1
            logger.warning("dropping result record without a job_id "
                           "(keys: %s)", sorted(record))
            return False
        if job_id not in self._known_jobs:
            self.stats.unknown_results += 1
            logger.warning("dropping result for job this run never enqueued: "
                           "job_id=%s", job_id,
                           extra={"job_id": job_id})
            return False
        if job_id in self._done:
            self.stats.duplicate_results += 1
            return False
        if self._on_result is not None:
            try:
                self._on_result(record)
            except BaseException as exc:
                # The callback persists records (store append, progress
                # print); if it fails the record is lost, so abort the run
                # with the real error rather than completing "OK" with
                # results silently missing.
                self._fatal = exc
                self._all_done.set()
                return False
        self._done[job_id] = record
        if self._in_flight.pop(job_id, None) is None:
            # Requeued (timeout, disconnect or restart), yet its earlier
            # worker reported after all: drop the queued duplicate.
            self._pending = deque(
                job for job in self._pending if job.job_id != job_id)
        self.stats.results_accepted += 1
        if self.outstanding <= 0:
            self._all_done.set()
        return True

    def _requeue(self, entry: _InFlight, reason: str,
                 kind: str = "disconnect") -> None:
        attempts = self._dispatch_counts.get(entry.job.job_id, 1)
        worker_entry = self._worker_entry(entry.worker)
        worker_entry["requeues"] += 1
        reasons = worker_entry["requeue_reasons"]
        reasons[kind] = reasons.get(kind, 0) + 1
        if attempts > self._max_requeues:
            self.stats.lost_jobs += 1
            logger.info(
                "poison job declared lost: worker=%s job_id=%s attempts=%d "
                "reason=%s", entry.worker, entry.job.job_id, attempts, reason,
                extra={"worker_id": entry.worker,
                       "job_id": entry.job.job_id,
                       "reason": reason})
            self._journal_event("lost", job_id=entry.job.job_id,
                                reason=reason, attempts=attempts)
            self._accept(lost_job_record(entry.job, attempts, reason))
            return
        self.stats.requeues += 1
        logger.info(
            "job requeued: worker=%s job_id=%s attempt=%d reason=%s",
            entry.worker, entry.job.job_id, attempts, reason,
            extra={"worker_id": entry.worker,
                   "job_id": entry.job.job_id,
                   "reason": reason})
        self._journal_event("requeued", job_id=entry.job.job_id,
                            reason=reason, worker=entry.worker, kind=kind)
        self._pending.append(entry.job)

    def _assign(self, connection_id: int, worker: str) -> dict:
        """Next reply for an idle worker: a job, a wait, or done."""
        if self._pending:
            job = self._pending.popleft()
            now = time.monotonic()
            self._in_flight[job.job_id] = _InFlight(
                job=job, connection_id=connection_id, worker=worker,
                last_seen=now)
            attempt = self._dispatch_counts.get(job.job_id, 0) + 1
            self._dispatch_counts[job.job_id] = attempt
            self._journal_event("leased", job_id=job.job_id, worker=worker,
                                attempt=attempt)
            return {
                "type": "job", "job_id": job.job_id, "job": job.to_dict(),
                # Workers beat at this cadence, four times per timeout, so
                # a healthy long-running job is never declared dead.
                "heartbeat_every": max(0.05, self._heartbeat_timeout / 4),
            }
        if self.outstanding <= 0:
            return {"type": "done"}
        # Jobs are in flight on other connections: poll back soon in case
        # one of them is requeued.
        return {"type": "wait",
                "delay": max(0.05, min(0.5, self._heartbeat_timeout / 8))}

    # -- connection handling ------------------------------------------------

    async def _refuse(self, writer: asyncio.StreamWriter,
                      error: str) -> None:
        """Send a deterministic rejection; the client must not retry."""
        self.stats.auth_failures += 1
        with contextlib.suppress(ConnectionError, OSError):
            await send_and_drain(writer, {"type": "error", "error": error})

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handler_tasks.add(task)
        connection_id = next(self._connection_ids)
        worker = f"conn-{connection_id}"
        self._writers[writer] = worker
        assigned: Optional[str] = None
        authenticated = self._auth_token is None
        try:
            while True:
                message = await read_message(reader)
                if message is None:
                    break
                mtype = message.get("type")
                if mtype == "hello":
                    protocol = message.get("protocol", 1)
                    if not isinstance(protocol, int) or \
                            protocol > PROTOCOL_VERSION:
                        await self._refuse(
                            writer,
                            f"unsupported protocol {protocol!r} "
                            f"(coordinator speaks {PROTOCOL_VERSION})")
                        break
                    if not token_matches(self._auth_token,
                                         message.get("token")):
                        logger.warning("refusing worker with bad auth "
                                       "token: %s",
                                       message.get("worker") or worker)
                        await self._refuse(writer, "auth token mismatch")
                        break
                    authenticated = True
                    worker = str(message.get("worker") or worker)
                    self._writers[writer] = worker
                    self.stats.workers_seen += 1
                    if worker in self._seen_worker_names:
                        # Same name, new connection: the worker survived a
                        # socket loss (or the coordinator a restart) and
                        # rejoined.
                        self.stats.reconnects += 1
                        logger.info("worker reconnected: worker=%s", worker,
                                    extra={"worker_id": worker})
                    self._seen_worker_names.add(worker)
                    self._worker_entry(worker)["last_seen"] = time.monotonic()
                    continue
                if mtype == "status":
                    # Observational request (art9 status --connect):
                    # answered inline from coordinator state, never routed
                    # through _assign, so probing a live run can neither
                    # receive a job nor perturb scheduling.  It carries its
                    # own token — a probe never sends a hello.
                    if not authenticated and not token_matches(
                            self._auth_token, message.get("token")):
                        await self._refuse(writer, "auth token mismatch")
                        break
                    await send_and_drain(writer, {
                        "type": "status", "status": self.status_snapshot()})
                    continue
                if not authenticated:
                    # No valid hello yet on a token-guarded coordinator:
                    # nothing else is allowed — a stray client can neither
                    # pull jobs nor inject results.
                    await self._refuse(writer, "authentication required")
                    break
                if mtype == "heartbeat":
                    entry = self._in_flight.get(str(message.get("job_id")))
                    if entry is not None and entry.connection_id == connection_id:
                        entry.last_seen = time.monotonic()
                        self._worker_entry(entry.worker)["last_seen"] = \
                            entry.last_seen
                    continue
                if mtype == "result":
                    record = message.get("record")
                    if isinstance(record, dict) and self._accept(record):
                        stats = self._worker_entry(worker)
                        stats["jobs_done"] += 1
                        stats["last_seen"] = time.monotonic()
                    assigned = None
                elif mtype != "next":
                    continue  # unknown message types are ignored, not fatal
                reply = self._assign(connection_id, worker)
                if reply["type"] == "job":
                    assigned = reply["job_id"]
                await send_and_drain(writer, reply)
                if reply["type"] == "done":
                    self._heard_done(worker)
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass  # shutdown or a vanished worker; cleanup happens below
        finally:
            if task is not None:
                self._handler_tasks.discard(task)
            self._writers.pop(writer, None)
            if assigned is not None:
                entry = self._in_flight.get(assigned)
                if entry is not None and entry.connection_id == connection_id:
                    del self._in_flight[assigned]
                    logger.info(
                        "worker disconnected with a job in flight: worker=%s "
                        "job_id=%s reason=connection closed", worker, assigned,
                        extra={"worker_id": worker, "job_id": assigned,
                               "reason": "connection closed"})
                    self._requeue(entry, f"worker {worker} disconnected",
                                  kind="disconnect")
                    if self.outstanding <= 0:
                        self._all_done.set()
            writer.close()
            with contextlib.suppress(ConnectionError, OSError):
                await writer.wait_closed()

    # -- liveness -----------------------------------------------------------

    async def _watchdog(self) -> None:
        """Requeue in-flight jobs whose workers stopped heartbeating."""
        interval = max(0.05, self._heartbeat_timeout / 4)
        while True:
            await asyncio.sleep(interval)
            now = time.monotonic()
            for job_id, entry in list(self._in_flight.items()):
                if now - entry.last_seen > self._heartbeat_timeout:
                    del self._in_flight[job_id]
                    self._requeue(
                        entry,
                        f"worker {entry.worker} missed heartbeats for "
                        f"{self._heartbeat_timeout:.1f}s",
                        kind="heartbeat-timeout")
            if self.outstanding <= 0:
                self._all_done.set()
                return
