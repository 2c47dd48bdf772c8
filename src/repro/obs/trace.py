"""Span-based tracing: where did the wall-clock time of a run actually go?

A *span* is one named interval (``sweep``, ``job``, ``xlate``, ``codegen``,
``execute``) with a start/end from :func:`time.perf_counter`, an id, a
parent id (spans nest via a per-thread stack), and optional attributes.
Finished spans append to a JSONL file — conventionally ``spans.jsonl``
inside the run directory — one object per line, so files from many worker
processes can simply be concatenated.

Tracing is **off by default** and costs one module-level boolean check
when off.  It is enabled per-run:

* ``art9 sweep --trace`` sets the environment variables below before
  the pool's workers spawn, so every worker inherits them;
* ``ART9_TRACE=1`` (with ``ART9_TRACE_FILE=<path>``) does the same by
  hand, for ad-hoc runs and for ``art9 work`` clients.

Each span is appended through :func:`repro.durable.append` (no fsync):
whole lines under an exclusive lock, with a torn final line sealed first,
so concurrent workers can share one span file and a worker killed
mid-span costs only its own line.

Non-perturbation is a hard requirement (see the conformance tests):
spans observe timing only — no simulation state, no record fields, no
scheduling decisions flow through this module.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from typing import Iterator, List, Optional

from repro import durable

#: Environment variable switching tracing on ("1"/"true"/anything non-0).
TRACE_ENV = "ART9_TRACE"
#: Environment variable naming the span JSONL file.
TRACE_FILE_ENV = "ART9_TRACE_FILE"

#: Module-level fast-path flag: the no-trace cost is this one boolean.
enabled = False

_path: Optional[str] = None
_lock = threading.Lock()
_local = threading.local()
_next_id_lock = threading.Lock()
_next_id = 0


def _new_span_id() -> str:
    global _next_id
    with _next_id_lock:
        _next_id += 1
        serial = _next_id
    return f"{os.getpid():x}-{serial:x}"


def configure(path: Optional[str]) -> None:
    """Enable tracing into ``path`` (or disable when ``path`` is None)."""
    global enabled, _path
    with _lock:
        _path = path
        enabled = path is not None


def configure_from_env() -> bool:
    """Apply ``ART9_TRACE`` / ``ART9_TRACE_FILE``; returns the enabled state.

    Called once at worker startup (and lazily on first span) so spawned
    processes pick up the run's tracing decision from their environment.
    """
    flag = os.environ.get(TRACE_ENV, "")
    if flag in ("", "0"):
        configure(None)
        return False
    path = os.environ.get(TRACE_FILE_ENV)
    if not path:
        path = os.path.join(os.getcwd(), "spans.jsonl")
    configure(path)
    return True


def _stack() -> List[str]:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def _emit(record: dict) -> None:
    path = _path
    if path is None:
        return
    try:
        durable.append(path, [record], sync=False)
    except OSError:
        # Telemetry must never take down the run it is observing.
        pass


@contextmanager
def span(name: str, **attributes) -> Iterator[Optional[dict]]:
    """Record one named interval; nests under the enclosing span.

    Yields the in-progress span record (or ``None`` when tracing is off)
    so callers may attach late attributes::

        with trace.span("xlate", workload="dhrystone") as sp:
            ...
            if sp is not None:
                sp["attrs"]["instructions"] = summary.final_instructions
    """
    if not enabled:
        yield None
        return
    stack = _stack()
    record = {
        "name": name,
        "span_id": _new_span_id(),
        "parent_id": stack[-1] if stack else None,
        "pid": os.getpid(),
        "start_s": time.perf_counter(),
        "attrs": {key: value for key, value in attributes.items()},
    }
    stack.append(record["span_id"])
    try:
        yield record
    finally:
        stack.pop()
        record["end_s"] = time.perf_counter()
        record["duration_s"] = record["end_s"] - record["start_s"]
        _emit(record)


def read_spans(path: str) -> List[dict]:
    """Load a span JSONL file (``[]`` when missing), skipping torn lines: a
    worker may have died mid-write, and the surviving spans are still
    useful."""
    return durable.read(path, "span_id")
