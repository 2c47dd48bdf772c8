"""Worker side of the distributed sweep service (``art9 work``).

A worker is a loop: connect, say hello, pull a job, execute it, stream the
record back (which doubles as the pull for the next job), repeat until the
coordinator says ``done``.  Execution happens in a thread-pool executor so
the asyncio side stays responsive; while a job runs, a side task sends
``heartbeat`` messages at the ``heartbeat_every`` cadence the coordinator
names in each ``job`` message, so it can tell a long simulation from a
dead worker.

The job executor is the exact same :func:`repro.runner.worker.execute_job`
the in-process backends use — including its per-process translation caches
— so a worker that receives both the fast-engine and pipeline jobs of a
workload still assembles and translates it only once, and a distributed
run produces records identical (modulo wall-clock and PIDs) to a serial
one.

Resilience (all of it lives on this side of the wire):

* **Reconnect with backoff.**  A lost connection no longer ends the
  worker: it reconnects with exponential backoff plus jitter, bounded by a
  ``max_retries`` attempt budget *and* a ``retry_window`` wall-clock
  budget (whichever trips first), both of which reset as soon as a
  connection makes progress.  This is what lets a worker fleet ride out a
  coordinator ``kill -9`` + ``art9 serve --resume`` restart.
* **At-least-once result delivery.**  The last result record is kept until
  the coordinator replies to it (the protocol is request-reply, so any
  reply acknowledges the preceding send); if the connection dies in
  between, the record is re-sent after reconnect with ``"resumed": true``.
  The coordinator deduplicates, so a crash between "job finished" and
  "record persisted" costs re-sending one line, never re-running the job.
* **Job wall-clock timeouts.**  With ``job_timeout`` set, a simulation
  that hangs past the budget yields a structured ``status="error"``
  timeout record and the worker moves on — the executor thread cannot be
  killed, so its eventual result is discarded, but the worker (and the
  run) no longer wedges with it.
* **Auth.**  The hello carries the shared token (``--auth-token`` /
  ``ART9_AUTH_TOKEN``) and the protocol version; a deterministic ``error``
  reply (bad token, too-new protocol) ends the worker immediately — no
  retry, the rejection will not change.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import logging
import os
import random
import socket
from dataclasses import dataclass
from typing import Callable, Optional

from repro.runner.spec import SweepJob
from repro.runner.worker import execute_job
from repro.service.protocol import (
    BACKOFF_BASE_SECONDS,
    BACKOFF_CAP_SECONDS,
    MAX_MESSAGE_BYTES,
    PROTOCOL_VERSION,
    read_message,
    send_and_drain,
)

logger = logging.getLogger(__name__)

#: Seconds to wait for a coordinator reply before giving the connection up.
#: The protocol is request-reply from the worker's side — every read
#: follows a write and the coordinator answers immediately — so a long
#: silence means the coordinator host died without closing the socket
#: (power loss, network partition); the connection is abandoned and the
#: reconnect budget takes over.
DEFAULT_REPLY_TIMEOUT = 60.0

#: Default consecutive reconnect attempts before the worker gives up.
DEFAULT_MAX_RETRIES = 8

#: Default wall-clock seconds of consecutive failed reconnecting before
#: the worker gives up (whichever budget trips first wins).
DEFAULT_RETRY_WINDOW = 120.0


@dataclass
class WorkerSummary:
    """What one worker session did."""

    worker: str
    jobs_completed: int = 0
    reconnects: int = 0
    timeouts: int = 0
    #: "done" (coordinator finished the run), "gave-up" (reconnect budget
    #: exhausted), or "rejected" (deterministic refusal: bad token or
    #: protocol).
    outcome: str = "done"
    detail: str = ""

    def summary(self) -> str:
        extras = []
        if self.reconnects:
            extras.append(f"{self.reconnects} reconnects")
        if self.timeouts:
            extras.append(f"{self.timeouts} job timeouts")
        if self.outcome != "done":
            extras.append(self.outcome if not self.detail
                          else f"{self.outcome}: {self.detail}")
        suffix = f" ({', '.join(extras)})" if extras else ""
        return (f"worker {self.worker}: {self.jobs_completed} jobs "
                f"completed{suffix}")


def default_worker_name() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


def timeout_job_record(job: SweepJob, seconds: float) -> dict:
    """Structured record for a job whose execution blew its time budget.

    ``status="error"`` like a lost-job record, so ``--resume`` retries the
    job and a summary table shows the failure instead of a silent gap.
    """
    return {
        "job_id": job.job_id,
        "label": job.label,
        **job.to_dict(),
        "status": "error",
        "error": f"job exceeded {seconds:g}s wall-clock execution timeout",
    }


def request_status(host: str, port: int, timeout: float = 5.0,
                   token: Optional[str] = None) -> dict:
    """Fetch a live coordinator status snapshot (``art9 status --connect``).

    Speaks the observer side of the protocol: one ``status`` request, one
    reply, disconnect.  Synchronous on purpose — a probe has no business
    inside the worker event loop — and safe against a running sweep: the
    coordinator answers from its own state without touching the queue.
    ``token`` authenticates the probe against a token-guarded coordinator.
    """
    request: dict = {"type": "status"}
    if token is not None:
        request["token"] = token
    payload = json.dumps(request, sort_keys=True,
                         separators=(",", ":")).encode("utf-8") + b"\n"
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(payload)
        with sock.makefile("r", encoding="utf-8") as stream:
            line = stream.readline()
    if not line:
        raise ConnectionError(
            f"coordinator at {host}:{port} closed the connection "
            "without answering the status request")
    reply = json.loads(line)
    if isinstance(reply, dict) and reply.get("type") == "error":
        raise ConnectionError(
            f"coordinator at {host}:{port} refused the status request: "
            f"{reply.get('error')}")
    if not isinstance(reply, dict) or reply.get("type") != "status" \
            or not isinstance(reply.get("status"), dict):
        raise ConnectionError(
            f"unexpected status reply from {host}:{port}: {reply!r}")
    return reply["status"]


async def _heartbeat_loop(writer: asyncio.StreamWriter, job_id: str,
                          interval: float) -> None:
    while True:
        await asyncio.sleep(interval)
        await send_and_drain(writer, {"type": "heartbeat", "job_id": job_id})


async def _connect(host: str, port: int, retry_seconds: float):
    """Open the coordinator connection, retrying while it boots."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + retry_seconds
    while True:
        try:
            return await asyncio.open_connection(host, port,
                                                 limit=MAX_MESSAGE_BYTES)
        except OSError:
            if loop.time() >= deadline:
                raise
            await asyncio.sleep(0.25)


async def _execute_with_timeout(loop, executor, job: SweepJob,
                                job_timeout: Optional[float],
                                summary: WorkerSummary) -> dict:
    """Run one job in the thread pool, bounded by the wall-clock budget."""
    future = loop.run_in_executor(None, executor, job)
    if not job_timeout or job_timeout <= 0:
        return await future
    # asyncio.wait leaves the executor future running past the timeout —
    # the thread cannot be interrupted, so let it finish in the background
    # and discard whatever it produces — and, unlike wait_for, never drops
    # a cancellation of this worker that lands as the job completes.
    done, _ = await asyncio.wait((future,), timeout=job_timeout)
    if done:
        return future.result()
    summary.timeouts += 1
    logger.warning(
        "job execution timed out after %.1fs: job_id=%s (abandoning "
        "the executor thread, reporting a timeout record)",
        job_timeout, job.job_id,
        extra={"job_id": job.job_id})
    future.add_done_callback(lambda f: f.exception())
    return timeout_job_record(job, job_timeout)


class _Session:
    """Mutable state a worker carries across reconnects."""

    __slots__ = ("pending_record", "made_progress")

    def __init__(self):
        #: The last result sent but not yet acknowledged by any reply.
        self.pending_record: Optional[dict] = None
        #: Whether the current connection read at least one message
        #: (resets the reconnect budget).
        self.made_progress = False


async def _serve_connection(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    name: str,
    session: _Session,
    summary: WorkerSummary,
    executor: Callable[[SweepJob], dict],
    reply_timeout: float,
    auth_token: Optional[str],
    job_timeout: Optional[float],
) -> str:
    """One connection's lifetime; returns "done", "rejected", or "lost"."""
    loop = asyncio.get_running_loop()
    session.made_progress = False
    hello: dict = {"type": "hello", "worker": name, "pid": os.getpid(),
                   "protocol": PROTOCOL_VERSION}
    if auth_token is not None:
        hello["token"] = auth_token
    await send_and_drain(writer, hello)
    if session.pending_record is not None:
        # Re-deliver the record the previous connection died on; the
        # coordinator drops it as a duplicate if the original arrived.
        await send_and_drain(writer, {"type": "result",
                                      "record": session.pending_record,
                                      "resumed": True})
    else:
        await send_and_drain(writer, {"type": "next"})
    while True:
        # asyncio.wait on a read task, not wait_for: on CPython < 3.12
        # wait_for returns a read that completes as this worker is
        # cancelled and drops the cancellation (bpo-42130), so the worker
        # would back off and reconnect instead of stopping.
        read = asyncio.create_task(read_message(reader))
        try:
            done, _ = await asyncio.wait((read,), timeout=reply_timeout)
        except asyncio.CancelledError:
            read.cancel()
            raise
        if not done:
            read.cancel()
            return "lost"  # coordinator vanished without closing the socket
        message = read.result()
        if message is None:
            return "lost"
        session.made_progress = True
        mtype = message.get("type")
        if mtype == "error":
            summary.detail = str(message.get("error") or "refused")
            return "rejected"
        # Any reply acknowledges whatever we sent last — including a
        # pending re-sent record — because the coordinator processes one
        # message at a time per connection.
        session.pending_record = None
        if mtype == "done":
            return "done"
        if mtype == "wait":
            await asyncio.sleep(float(message.get("delay", 0.2)))
            await send_and_drain(writer, {"type": "next"})
            continue
        if mtype != "job":
            await send_and_drain(writer, {"type": "next"})
            continue
        job = SweepJob.from_dict(message["job"])
        # The coordinator names the cadence its heartbeat timeout needs.
        heartbeat = asyncio.create_task(_heartbeat_loop(
            writer, job.job_id, float(message["heartbeat_every"])))
        try:
            record = await _execute_with_timeout(loop, executor, job,
                                                 job_timeout, summary)
        finally:
            heartbeat.cancel()
            # Not ``await heartbeat``: suppressing the CancelledError that
            # raises would also swallow a cancellation of this worker.
            await asyncio.wait((heartbeat,))
        if not heartbeat.cancelled() and heartbeat.exception() is not None:
            raise heartbeat.exception()  # the connection died mid-job
        summary.jobs_completed += 1
        session.pending_record = record
        await send_and_drain(writer, {"type": "result", "record": record})


async def work_async(
    host: str,
    port: int,
    name: Optional[str] = None,
    executor: Callable[[SweepJob], dict] = execute_job,
    retry_seconds: float = 0.0,
    reply_timeout: float = DEFAULT_REPLY_TIMEOUT,
    auth_token: Optional[str] = None,
    job_timeout: Optional[float] = None,
    max_retries: int = DEFAULT_MAX_RETRIES,
    retry_window: float = DEFAULT_RETRY_WINDOW,
) -> WorkerSummary:
    """Serve one coordinator until it reports the run complete.

    ``executor`` is injectable for tests (fault-injection workers execute a
    stub instead of a real simulation); production callers leave it alone.
    ``retry_seconds`` bounds the *initial* connection (the coordinator may
    still be booting; failure raises as before); once connected, lost
    connections are retried with exponential backoff + jitter under the
    ``max_retries`` / ``retry_window`` budget, which resets whenever a
    connection reads at least one reply.
    """
    name = name or default_worker_name()
    summary = WorkerSummary(worker=name)
    session = _Session()
    # Deterministic per-worker jitter: workers desynchronize their
    # reconnect stampede without the test suite losing reproducibility.
    rng = random.Random(name)
    loop = asyncio.get_running_loop()
    reader, writer = await _connect(host, port, retry_seconds)
    consecutive_failures = 0
    window_start: Optional[float] = None
    while True:
        reason = "lost"
        if writer is not None:
            try:
                reason = await _serve_connection(
                    reader, writer, name, session, summary,
                    executor, reply_timeout, auth_token, job_timeout)
            except ConnectionError:
                reason = "lost"
            finally:
                writer.close()
                with contextlib.suppress(ConnectionError, OSError):
                    await writer.wait_closed()
                reader = writer = None
            if reason in ("done", "rejected"):
                summary.outcome = reason
                return summary
            if session.made_progress:
                consecutive_failures = 0
                window_start = None
        # The connection died (or the reconnect attempt below failed):
        # spend one unit of the retry budget and back off.
        now = loop.time()
        if window_start is None:
            window_start = now
        consecutive_failures += 1
        if consecutive_failures > max_retries:
            summary.outcome = "gave-up"
            summary.detail = (f"no coordinator after {max_retries} "
                              "reconnect attempts")
            return summary
        if now - window_start > retry_window:
            summary.outcome = "gave-up"
            summary.detail = (f"no coordinator for {retry_window:g}s")
            return summary
        delay = min(BACKOFF_CAP_SECONDS,
                    BACKOFF_BASE_SECONDS * (2 ** (consecutive_failures - 1)))
        await asyncio.sleep(delay * (0.5 + rng.random()))
        try:
            reader, writer = await asyncio.open_connection(
                host, port, limit=MAX_MESSAGE_BYTES)
        except OSError:
            continue  # next lap spends another unit of the budget
        summary.reconnects += 1
        logger.info("worker reconnected to %s:%d (attempt %d)",
                    host, port, consecutive_failures,
                    extra={"worker_id": name})


def work(host: str, port: int, name: Optional[str] = None,
         retry_seconds: float = 0.0,
         reply_timeout: float = DEFAULT_REPLY_TIMEOUT,
         auth_token: Optional[str] = None,
         job_timeout: Optional[float] = None,
         max_retries: int = DEFAULT_MAX_RETRIES,
         retry_window: float = DEFAULT_RETRY_WINDOW) -> WorkerSummary:
    """Synchronous front end of :func:`work_async` (the ``art9 work`` body)."""
    return asyncio.run(work_async(host, port, name=name,
                                  retry_seconds=retry_seconds,
                                  reply_timeout=reply_timeout,
                                  auth_token=auth_token,
                                  job_timeout=job_timeout,
                                  max_retries=max_retries,
                                  retry_window=retry_window))
