"""Structured result store for sweep runs: spec.json + results.jsonl.

One run lives in one directory::

    <run>/spec.json       the expanded-from SweepSpec (resume identity)
    <run>/results.jsonl   one JSON record per finished job, append-only
    <run>/summary.txt     human-readable table, rewritten after each run

Records are flushed line-by-line as jobs finish, so a killed run loses at
most the job that was in flight; :meth:`RunStore.records` tolerates a
truncated final line for exactly that reason.  Resume semantics fall out of
the content-addressed job IDs: a rerun skips every ``job_id`` that already
has an ``ok`` record.
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import tempfile
from typing import Dict, List, Optional, Set

from repro.runner.spec import SweepSpec

try:
    import fcntl
except ImportError:  # non-POSIX hosts: appends are not serialised
    fcntl = None

logger = logging.getLogger(__name__)

SPEC_FILENAME = "spec.json"
RESULTS_FILENAME = "results.jsonl"
SUMMARY_FILENAME = "summary.txt"

#: Record fields that legitimately differ between two executions of the
#: same job (wall clock, scheduling, cache temperature): excluded from run
#: comparison and from the canonical form used by cross-backend
#: conformance and DB dedup.  ``timings`` (the per-phase breakdown) and
#: ``cache_hit`` are observations about *how* a job ran, never about what
#: it computed, so they are volatile by construction.
VOLATILE_RECORD_FIELDS = ("elapsed_s", "worker_pid", "timings", "cache_hit")


def canonical_record(record: dict) -> str:
    """Deterministic JSON form of a record with volatile fields stripped.

    Two executions of the same job on any backend (serial, pool, or the
    distributed queue) must canonicalise identically; the conformance suite
    and the :class:`~repro.service.resultsdb.ResultsDB` duplicate counter
    are both built on that invariant.
    """
    stable = {key: value for key, value in record.items()
              if key not in VOLATILE_RECORD_FIELDS}
    return json.dumps(stable, sort_keys=True, separators=(",", ":"))


class StoreError(RuntimeError):
    """Raised for inconsistent run directories (e.g. spec mismatch on resume)."""


class RunStore:
    """Filesystem-backed store of one sweep run."""

    def __init__(self, root: str):
        self.root = root

    # -- paths --------------------------------------------------------------

    @property
    def spec_path(self) -> str:
        return os.path.join(self.root, SPEC_FILENAME)

    @property
    def results_path(self) -> str:
        return os.path.join(self.root, RESULTS_FILENAME)

    @property
    def summary_path(self) -> str:
        return os.path.join(self.root, SUMMARY_FILENAME)

    def exists(self) -> bool:
        """True when the directory already holds a run."""
        return os.path.exists(self.spec_path)

    # -- lifecycle ----------------------------------------------------------

    def initialize(self, spec: SweepSpec) -> None:
        """Create the run directory, or check ``spec`` against an existing run.

        Resuming with a *different* spec would silently mix two grids in one
        results file, so that is an error; delete the directory (or pass a
        fresh ``--out``) to start over.
        """
        os.makedirs(self.root, exist_ok=True)
        if self.exists():
            existing = self.load_spec()
            if existing.to_dict() != spec.to_dict():
                raise StoreError(
                    f"run directory {self.root!r} holds a different sweep spec; "
                    "use a fresh --out directory (or delete this one) to change the grid"
                )
            return
        with open(self.spec_path, "w", encoding="utf-8") as handle:
            json.dump(spec.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    def load_spec(self) -> SweepSpec:
        """Read back the spec this run was expanded from."""
        with open(self.spec_path, "r", encoding="utf-8") as handle:
            return SweepSpec.from_dict(json.load(handle))

    def reset(self) -> None:
        """Drop all results (keeps the directory; used by ``--no-resume``)."""
        for path in (self.spec_path, self.results_path, self.summary_path):
            if os.path.exists(path):
                os.remove(path)

    # -- records ------------------------------------------------------------

    def append(self, record: dict) -> None:
        """Append one job record and flush it to disk immediately."""
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        with open(self.results_path, "a+b") as handle:
            if fcntl is not None:
                # Another process's append can be caught half-visible, and
                # the check below would then seal a line that is not torn
                # (leaving an empty line); appenders take turns instead.
                fcntl.flock(handle, fcntl.LOCK_EX)
            # A killed run can leave a truncated final line with no newline;
            # seal it off first so the new record does not concatenate onto
            # it (the torn line is then skipped by ``records`` instead of
            # eating both).
            handle.seek(0, os.SEEK_END)
            if handle.tell() > 0:
                handle.seek(-1, os.SEEK_END)
                if handle.read(1) != b"\n":
                    line = "\n" + line
            handle.write((line + "\n").encode("utf-8"))
            handle.flush()
            os.fsync(handle.fileno())

    def records(self) -> List[dict]:
        """All parseable records, newest occurrence of each job winning.

        A truncated trailing line (from a killed run) is skipped rather than
        raised, so an interrupted sweep stays resumable.
        """
        if not os.path.exists(self.results_path):
            return []
        by_job: Dict[str, dict] = {}
        order: List[str] = []
        with open(self.results_path, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    logger.warning(
                        "skipping torn record on line %d of %s "
                        "(partial write from an interrupted run)",
                        lineno, self.results_path)
                    continue
                if not isinstance(record, dict):
                    logger.warning(
                        "skipping non-record JSON on line %d of %s",
                        lineno, self.results_path)
                    continue
                job_id = record.get("job_id")
                if not job_id:
                    logger.warning(
                        "skipping record without a job_id on line %d of %s",
                        lineno, self.results_path)
                    continue
                if job_id not in by_job:
                    order.append(job_id)
                by_job[job_id] = record
        return [by_job[job_id] for job_id in order]

    def completed_ids(self) -> Set[str]:
        """Job IDs that finished successfully (errors are retried on resume)."""
        return {
            record["job_id"] for record in self.records()
            if record.get("status") == "ok"
        }

    # -- reporting ----------------------------------------------------------

    def summary_table(self, records: Optional[List[dict]] = None) -> str:
        """Fixed-width results table, one row per job."""
        records = self.records() if records is None else records
        header = (
            f"{'workload':24s} {'engine':8s} {'opt':3s} {'cycles':>12s} "
            f"{'CPI':>7s} {'stalls':>8s} {'ok':>3s}"
        )
        lines = [header, "-" * len(header)]
        def sort_key(record):
            return (record.get("workload", ""), str(record.get("params", {})),
                    record.get("engine", ""), not record.get("optimize", False))
        for record in sorted(records, key=sort_key):
            params = record.get("params") or {}
            name = record.get("workload", "?")
            if params:
                name += "[" + ",".join(f"{k}={v}" for k, v in sorted(params.items())) + "]"
            if record.get("status") != "ok":
                lines.append(
                    f"{name:24s} {record.get('engine', '?'):8s} "
                    f"{'on' if record.get('optimize') else 'off':3s} "
                    f"ERROR: {record.get('error', 'unknown')}"
                )
                continue
            lines.append(
                f"{name:24s} {record.get('engine', '?'):8s} "
                f"{'on' if record.get('optimize') else 'off':3s} "
                f"{record.get('cycles', 0):>12d} {record.get('cpi', 0.0):>7.3f} "
                f"{record.get('stall_cycles', 0):>8d} "
                f"{'yes' if record.get('verified') else 'NO':>3s}"
            )
        return "\n".join(lines)

    def write_summary(self) -> str:
        """Rewrite ``summary.txt`` from the current records; returns the table.

        The rewrite is atomic (same-directory tempfile + ``os.replace``,
        the :class:`~repro.cache.ArtifactCache` pattern): a crash mid-write
        leaves either the previous summary or the new one, never a torn
        half-table shadowing a complete ``results.jsonl``.
        """
        table = self.summary_table()
        fd, tmp_path = tempfile.mkstemp(
            dir=self.root, prefix=SUMMARY_FILENAME + ".", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(table)
                handle.write("\n")
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, self.summary_path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.remove(tmp_path)
            raise
        return table
