"""Wire protocol between the sweep coordinator and its workers.

Messages are newline-delimited JSON objects over a plain TCP stream — one
object per line, UTF-8, no framing beyond the newline.  The vocabulary is
deliberately tiny:

worker → coordinator
    ``{"type": "hello", "worker": <name>, "pid": <int>, "protocol": <int>,
    "token": <str, optional>}``
        sent once after (re)connecting, names the worker for logs and
        stats.  ``protocol`` is the worker's :data:`PROTOCOL_VERSION`
        (absent means version 1); the coordinator rejects versions newer
        than its own with an ``error`` reply.  When the coordinator was
        started with an auth token (``art9 serve --auth-token`` /
        ``ART9_AUTH_TOKEN``), ``token`` must match it — the comparison is
        constant-time, and every non-``hello`` message on an
        unauthenticated connection is refused, so a stray or malicious
        client can neither receive jobs nor inject results;
    ``{"type": "next"}``
        the worker is idle and wants a job (the pull is what makes the
        dispatch work-stealing: fast workers come back sooner and drain
        the shared queue);
    ``{"type": "result", "record": {...}, "resumed": <bool, optional>}``
        a finished job record; doubles as a request for the next job.
        ``resumed`` marks a re-send after a reconnect: the worker holds on
        to an unacknowledged record across connection loss and delivers it
        to whichever coordinator (the original, or a ``--resume``
        restart) it reaches next, so a crash between "job finished" and
        "record persisted" costs nothing — the first accepted copy wins
        and duplicates are counted and dropped;
    ``{"type": "heartbeat", "job_id": <id>}``
        liveness while executing a job (sent from a side task so a long
        simulation does not look like a dead worker).

observer → coordinator
    ``{"type": "status", "token": <str, optional>}``
        a live telemetry probe (``art9 status --connect``): answered with
        a ``status`` reply built from coordinator state and nothing else —
        the probe never receives a job and never disturbs scheduling, so
        connecting one to a running sweep is always safe.  When the
        coordinator requires a token, the probe must carry it too.

coordinator → worker
    ``{"type": "job", "job_id": <id>, "job": {...}}``
        one :class:`~repro.runner.spec.SweepJob` as pure data;
    ``{"type": "wait", "delay": <seconds>}``
        nothing to hand out right now but the run is not finished (jobs
        are in flight elsewhere and may yet be requeued);
    ``{"type": "done"}``
        every job has an accepted result — disconnect and exit.  Also
        broadcast to every still-connected worker when the coordinator
        shuts down after a completed run, so idle workers exit instead of
        mistaking the shutdown for a crash and burning their reconnect
        budget.  A resumed coordinator also keeps listening for a while
        after its run completes, so the workers of the crashed one that
        are still backing off reconnect and hear it;
    ``{"type": "error", "error": <reason>}``
        the connection was refused (bad token, too-new protocol).  The
        coordinator closes the connection after sending it; the worker
        must not retry — the rejection is deterministic;
    ``{"type": "status", "status": {...}}``
        reply to a ``status`` request: queue depth, in-flight/done counts,
        and per-worker jobs-done/heartbeat-age/requeue stats.

A malformed line or a closed connection reads as ``None``, which both ends
treat as a disconnect; the coordinator requeues whatever the lost worker
was holding.  Workers reconnect with exponential backoff (see
:mod:`repro.service.workerclient`) instead of exiting, which is what lets
a killed-and-``--resume``-restarted coordinator pick its fleet back up.
"""

from __future__ import annotations

import hmac
import json
from typing import Optional

#: Default TCP port of ``art9 serve`` (any free port when 0).
DEFAULT_PORT = 7929

#: Per-line read limit: a record is a few KB, so this is generous headroom.
MAX_MESSAGE_BYTES = 8 * 1024 * 1024

#: Version of the vocabulary above.  Version 2 added the auth token, the
#: ``error`` reply, the ``resumed`` result flag and the shutdown ``done``
#: broadcast.  A version-1 worker (no ``protocol`` field) still works
#: against a token-less coordinator; the coordinator refuses only versions
#: *newer* than its own.
PROTOCOL_VERSION = 2

#: Worker reconnect backoff: the first delay, doubled per consecutive
#: failure up to the cap, each scaled by a jitter factor drawn from
#: [0.5, 1.5).
BACKOFF_BASE_SECONDS = 0.25
BACKOFF_CAP_SECONDS = 10.0

#: Longest pause between two reconnect attempts of one worker.
BACKOFF_LONGEST_SECONDS = 1.5 * BACKOFF_CAP_SECONDS

#: Environment variable carrying the shared worker-auth token; the
#: ``--auth-token`` flags of ``art9 serve`` / ``art9 work`` / ``art9
#: status --connect`` override it.
AUTH_TOKEN_ENV = "ART9_AUTH_TOKEN"


def token_matches(expected: Optional[str], presented: object) -> bool:
    """Constant-time comparison of a presented auth token.

    ``expected is None`` means the coordinator requires no token and every
    client passes.  Anything non-string presented (absent field, JSON
    null, a number) fails closed.
    """
    if expected is None:
        return True
    if not isinstance(presented, str):
        return False
    return hmac.compare_digest(expected.encode("utf-8"),
                               presented.encode("utf-8"))


async def read_message(reader: asyncio.StreamReader) -> Optional[dict]:
    """Read one message; ``None`` means disconnect (EOF or a garbled line)."""
    # Imported here: the constants above are read by the CLI parser,
    # which must not pay for asyncio.
    import asyncio

    try:
        line = await reader.readline()
    except (ConnectionError, asyncio.IncompleteReadError, ValueError):
        return None
    if not line:
        return None
    try:
        message = json.loads(line)
    except json.JSONDecodeError:
        return None
    if not isinstance(message, dict):
        return None
    return message


def send_message(writer: asyncio.StreamWriter, message: dict) -> None:
    """Queue one message on ``writer`` (callers drain when they need order)."""
    payload = json.dumps(message, sort_keys=True, separators=(",", ":"))
    writer.write(payload.encode("utf-8") + b"\n")


async def send_and_drain(writer: asyncio.StreamWriter, message: dict) -> None:
    """Send one message and wait for the transport buffer to flush."""
    send_message(writer, message)
    await writer.drain()
