"""Content-addressed on-disk artifact cache shared across worker processes.

Sweep workers used to re-translate and re-predecode the same workloads from
scratch once *per process*: a 16-worker fleet sweeping the ``paper`` grid
paid for every translation sixteen times, and the compiled execution engine
(:mod:`repro.sim.compiled`) would have regenerated its block sources just
as often.  This module gives every expensive, deterministic build product a
durable home on disk so it is produced once per grid point across the
whole fleet:

* **translation artifacts** (``kind="xlate"``) — the serialised ART-9
  :class:`~repro.isa.program.Program` plus the numeric translation-report
  summary, keyed by workload name + builder params + the translator's
  optimize flag + :data:`~repro.xlate.translator.TRANSLATOR_VERSION`;
* **codegen artifacts** (``kind="codegen"``) — the marshalled code
  objects of the compiled engine's superblocks, keyed by program content
  digest + :data:`~repro.sim.compiled.CODEGEN_VERSION` + interpreter
  bytecode tag + TDM depth + machine-config digest.  A sweep job and
  ``art9 profile`` run the same build, so they share the entry.

Layout and invalidation
-----------------------

Entries live under ``<root>/<kind>/<key[:2]>/<key>.json`` where ``key`` is
the SHA-256 of the canonical JSON *key material*.  Because the key hashes
every input that can change the artifact (including the producer's version
constant), invalidation is automatic: bump ``TRANSLATOR_VERSION`` or
``CODEGEN_VERSION`` and every stale entry simply stops being addressed —
no deletion pass is needed (``clear()`` exists for reclaiming disk).

Writes are atomic replaces (:func:`repro.durable.replace`, no fsync), so
concurrent writers are safe: for a given key, any worker's payload is
behaviourally equivalent (each block's content is deterministic), so the
last atomic rename winning is always correct.  Translation entries are in
fact byte-identical across writers; codegen entries can differ in *which
lazily discovered suffix blocks* they carry, so suffix publishers merge
the current entry before replacing it (a lost race only costs a later
re-compile, never correctness).  A corrupted or torn entry is treated as
a miss and overwritten.

The default root is ``$ART9_CACHE_DIR`` (or ``~/.cache/art9``); setting
``ART9_CACHE_DISABLE=1`` turns the shared default off, e.g. for tests that
must observe cold-path behaviour.

**Trust:** codegen artifacts contain (marshalled) executable code that the
compiled engine will run, so the cache directory must be as trusted as the
installed package itself.  The default under ``~/.cache`` is private to
the user; if you point ``ART9_CACHE_DIR`` elsewhere, never use a location
other users can write to (e.g. a fixed path in a shared ``/tmp``).
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from typing import Dict, Optional

from repro import durable

#: Environment variable overriding the default cache root.
CACHE_DIR_ENV = "ART9_CACHE_DIR"
#: Environment variable disabling the shared default cache entirely.
CACHE_DISABLE_ENV = "ART9_CACHE_DISABLE"


def cache_key(material: dict) -> str:
    """SHA-256 over the canonical JSON form of the key material."""
    blob = json.dumps(material, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


class ArtifactCache:
    """A directory of content-addressed JSON artifacts."""

    def __init__(self, root: str):
        self.root = root

    # -- addressing ---------------------------------------------------------

    def path_for(self, kind: str, key: str) -> str:
        """Filesystem location of one artifact (whether or not it exists)."""
        return os.path.join(self.root, kind, key[:2], f"{key}.json")

    # -- access -------------------------------------------------------------

    def get_json(self, kind: str, key_material: dict) -> Optional[dict]:
        """The stored payload for this key, or ``None`` on a miss.

        Unreadable entries (torn writes, foreign junk, nesting too deep for
        the decoder) are misses — the producer regenerates and overwrites
        them.
        """
        path = self.path_for(kind, cache_key(key_material))
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except OSError:
            return None
        try:
            payload = json.loads(blob.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError):
            payload = None
        return payload if isinstance(payload, dict) else None

    def put_json(self, kind: str, key_material: dict, payload: dict) -> str:
        """Atomically store ``payload`` under this key; returns the path.

        A cache must never take down the work it is accelerating, so
        filesystem errors (read-only media, quota) are swallowed and the
        caller simply keeps its freshly built artifact.
        """
        path = self.path_for(kind, cache_key(key_material))
        blob = json.dumps(payload, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
        try:
            durable.replace(path, blob, sync=False)
        except OSError:
            pass
        return path

    # -- maintenance --------------------------------------------------------

    def kinds(self) -> list:
        """Artifact kinds present under the cache root."""
        try:
            return sorted(
                name for name in os.listdir(self.root)
                if os.path.isdir(os.path.join(self.root, name)))
        except OSError:
            return []

    def clear(self) -> int:
        """Delete every stored artifact; returns how many were removed."""
        removed = 0
        for kind in self.kinds():
            base = os.path.join(self.root, kind)
            for dirpath, _dirnames, filenames in os.walk(base, topdown=False):
                for name in filenames:
                    try:
                        os.remove(os.path.join(dirpath, name))
                        removed += 1
                    except OSError:
                        pass
                try:
                    os.rmdir(dirpath)
                except OSError:
                    pass
        return removed

    def disk_stats(self) -> dict:
        """On-disk footprint: entry counts and byte totals, per kind.

        Unreadable files are skipped (a concurrent prune or writer may
        remove entries mid-walk); the numbers are a point-in-time snapshot,
        not a transaction.
        """
        kinds: Dict[str, dict] = {}
        total_entries = 0
        total_bytes = 0
        for kind in self.kinds():
            entries = 0
            size = 0
            base = os.path.join(self.root, kind)
            for dirpath, _dirnames, filenames in os.walk(base):
                for name in filenames:
                    if not name.endswith(".json"):
                        continue
                    try:
                        size += os.stat(os.path.join(dirpath, name)).st_size
                    except OSError:
                        continue
                    entries += 1
            kinds[kind] = {"entries": entries, "bytes": size}
            total_entries += entries
            total_bytes += size
        return {"root": self.root, "entries": total_entries,
                "bytes": total_bytes, "kinds": kinds}

    def prune(self, max_bytes: int) -> dict:
        """Evict least-recently-used artifacts until ≤ ``max_bytes`` remain.

        Recency is the entry's mtime — readers do not bump it, so this is
        LRU by *write/refresh* time: regenerated (or suffix-merged) entries
        survive, artifacts nothing has rebuilt lately go first.  Removal is
        corruption-safe by construction: entries are only ever whole files,
        so deleting one can at worst cost a later cache miss.  Filesystem
        errors are swallowed (a concurrently removed file is simply not
        ours to count) and emptied shard directories are cleaned up.
        Returns ``{"removed", "removed_bytes", "kept", "kept_bytes"}``.
        """
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        entries = []  # (mtime, path, size)
        for kind in self.kinds():
            base = os.path.join(self.root, kind)
            for dirpath, _dirnames, filenames in os.walk(base):
                for name in filenames:
                    # .tmp files from in-flight writers are not entries;
                    # leave them for their owner's durable.replace().
                    if not name.endswith(".json"):
                        continue
                    path = os.path.join(dirpath, name)
                    try:
                        info = os.stat(path)
                    except OSError:
                        continue
                    entries.append((info.st_mtime, path, info.st_size))
        entries.sort()  # oldest first
        total = sum(size for _mtime, _path, size in entries)
        removed = removed_bytes = 0
        index = 0
        while total > max_bytes and index < len(entries):
            _mtime, path, size = entries[index]
            index += 1
            try:
                os.remove(path)
            except OSError:
                continue
            removed += 1
            removed_bytes += size
            total -= size
            parent = os.path.dirname(path)
            try:
                os.rmdir(parent)  # shard dir, only if now empty
            except OSError:
                pass
        return {"removed": removed, "removed_bytes": removed_bytes,
                "kept": len(entries) - removed,
                "kept_bytes": total}


_DEFAULT_LOCK = threading.Lock()
_DEFAULT: Dict[str, Optional[ArtifactCache]] = {}


def default_cache_root() -> str:
    """The shared cache directory honoured by every worker process."""
    configured = os.environ.get(CACHE_DIR_ENV)
    if configured:
        return configured
    return os.path.join(os.path.expanduser("~"), ".cache", "art9")


def default_cache() -> Optional[ArtifactCache]:
    """The process-wide shared cache, or ``None`` when disabled.

    Workers on one machine resolve to the same root (the environment
    variables are inherited across ``spawn``), which is what makes the
    cache *cross-process*: the first worker to reach a grid point writes
    the artifact, every other worker reads it.
    """
    if os.environ.get(CACHE_DISABLE_ENV, "") not in ("", "0"):
        return None
    root = default_cache_root()
    with _DEFAULT_LOCK:
        cache = _DEFAULT.get(root)
        if cache is None:
            cache = _DEFAULT[root] = ArtifactCache(root)
        return cache


def reset_default_cache() -> None:
    """Forget memoised default-cache instances.

    A test fixture: tests call it to point ``ART9_CACHE_DIR`` somewhere
    else mid-process; the program itself never does.
    """
    with _DEFAULT_LOCK:
        _DEFAULT.clear()
