"""Crash-safe files: sealed JSONL appends and atomic whole-file replaces.

A run directory must survive a ``kill -9`` at any byte, and so must the
artifact cache.  The files they keep updating are written one of two
ways, and this module owns both (the patterns Pillai et al. catalogue in
"All File Systems Are Not Created Equal", OSDI 2014):

* **append-only JSONL logs** (``results.jsonl``, ``journal.jsonl``,
  ``spans.jsonl``): :func:`append` writes whole lines under an exclusive
  ``flock`` after sealing a torn final line, and :func:`read` skips what a
  killed writer leaves behind, so one interrupted write costs exactly its
  own line;
* **whole files** (``summary.txt``, cache entries): :func:`replace`
  renames a same-directory temp file over the target, so a reader sees
  the old content or the new, never a torn half.

``sync`` says whether the bytes reach the disk before the call returns.
Results, journal and summary writes are fsync'd; spans and cache entries
are not, since losing one costs only time.
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import tempfile
from typing import Iterable, List

try:
    import fcntl
except ImportError:  # non-POSIX hosts: appends are not serialised
    fcntl = None

logger = logging.getLogger(__name__)


def _parent_dir(path: str) -> str:
    """The directory ``path`` lives in, created if missing."""
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    return directory


def append(path: str, records: Iterable[dict], sync: bool = True) -> int:
    """Append ``records`` as whole JSON lines; returns how many were written.

    A writer killed mid-append leaves a final line with no newline; it is
    sealed off first so the new lines do not concatenate onto it (the torn
    line is then skipped by :func:`read` instead of eating both).  An empty
    batch touches nothing.
    """
    lines = [json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
             for record in records]
    if not lines:
        return 0
    data = "".join(lines).encode("utf-8")
    _parent_dir(path)
    with open(path, "a+b") as handle:
        if fcntl is not None:
            # Another process's append can be caught half-visible, and the
            # check below would then seal a line that is not torn (leaving
            # an empty line); appenders take turns instead.
            fcntl.flock(handle, fcntl.LOCK_EX)
        if handle.seek(0, os.SEEK_END) > 0:
            handle.seek(-1, os.SEEK_END)
            if handle.read(1) != b"\n":
                data = b"\n" + data
        handle.write(data)
        handle.flush()
        if sync:
            os.fsync(handle.fileno())
    return len(lines)


def read(path: str, key: str) -> List[dict]:
    """The JSON-object lines of ``path`` with a non-empty ``key``, in order.

    A missing file reads as ``[]``.  Blank lines are skipped silently;
    torn, non-object and key-less lines are skipped with a warning rather
    than raised, since recovery must work precisely when the previous
    writer ended badly.
    """
    if not os.path.exists(path):
        return []
    records: List[dict] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                logger.warning(
                    "skipping torn record on line %d of %s "
                    "(partial write from an interrupted run)", lineno, path)
                continue
            if not isinstance(record, dict):
                logger.warning("skipping non-record JSON on line %d of %s",
                               lineno, path)
                continue
            if not record.get(key):
                logger.warning("skipping record without a %s on line %d of %s",
                               key, lineno, path)
                continue
            records.append(record)
    return records


def replace(path: str, data: bytes, sync: bool) -> None:
    """Atomically make ``data`` the whole content of ``path``.

    The bytes go to a temp file in the same directory (so the rename never
    crosses a filesystem), are fsync'd when ``sync`` is true, and
    :func:`os.replace` moves them into place.  On failure the temp file is
    removed and the previous content stays.
    """
    fd, temp_path = tempfile.mkstemp(dir=_parent_dir(path),
                                     prefix=os.path.basename(path) + ".",
                                     suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            if sync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(temp_path, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(temp_path)
        raise
