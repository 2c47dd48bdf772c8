"""Structured result store for sweep runs: spec.json + results.jsonl.

One run lives in one directory::

    <run>/spec.json       the expanded-from SweepSpec (resume identity)
    <run>/results.jsonl   one JSON record per finished job, append-only
    <run>/summary.txt     human-readable table, rewritten after each run

Records are fsync'd line by line as jobs finish, so a killed run loses at
most the job that was in flight.  Both files go through
:mod:`repro.durable`: an append seals a torn final line,
:meth:`RunStore.records` skips it, and the summary is replaced atomically.
Resume semantics fall out of the content-addressed job IDs: a rerun skips
every ``job_id`` that already has an ``ok`` record.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Set

from repro import durable
from repro.runner.spec import SweepSpec

SPEC_FILENAME = "spec.json"
RESULTS_FILENAME = "results.jsonl"
SUMMARY_FILENAME = "summary.txt"

#: Record fields that legitimately differ between two executions of the
#: same job (wall clock, scheduling, cache temperature): excluded from run
#: comparison and from the canonical form used by cross-backend
#: conformance and the report's duplicate count.  ``timings`` (the
#: per-phase breakdown) and ``cache_hit`` are observations about *how* a
#: job ran, never about what it computed, so they are volatile by
#: construction.
VOLATILE_RECORD_FIELDS = ("elapsed_s", "worker_pid", "timings", "cache_hit")


def canonical_record(record: dict) -> str:
    """Deterministic JSON form of a record with volatile fields stripped.

    Two executions of the same job on any backend (serial, pool, or the
    distributed queue) must canonicalise identically; the conformance suite
    and the duplicate count of :func:`repro.service.report.load_runs` are
    both built on that invariant.
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
        """Append one job record and fsync it (:func:`repro.durable.append`)."""
        durable.append(self.results_path, [record])

    def records(self) -> List[dict]:
        """All parseable records, newest occurrence of each job winning.

        A truncated trailing line (from a killed run) is skipped rather than
        raised, so an interrupted sweep stays resumable.
        """
        by_job: Dict[str, dict] = {}  # a dict keeps first-seen job order
        for record in durable.read(self.results_path, "job_id"):
            by_job[record["job_id"]] = record
        return list(by_job.values())

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

        The rewrite is atomic (:func:`repro.durable.replace`): a crash
        mid-write leaves either the previous summary or the new one, never
        a torn half-table shadowing a complete ``results.jsonl``.
        """
        table = self.summary_table()
        durable.replace(self.summary_path, (table + "\n").encode("utf-8"),
                        sync=True)
        return table
