"""Diff two sweep runs for regression hunting.

``compare_runs`` matches the records of two run directories by their
content-addressed job IDs and reports every architecturally meaningful
difference: cycle counts, CPI, the stall/flush breakdown (every
:class:`PipelineStats` counter, in fact), the digest of the final machine
state (register file + data memory — *divergences*), result verification
and job status.  Timing noise (wall-clock, worker PIDs) is deliberately
outside the comparison, so two runs of the same code over the same spec
always compare clean, and any diff is a real behaviour change.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.runner.store import RunStore, StoreError

#: Scalar record fields compared between runs.
SCALAR_FIELDS = (
    "status",
    "cycles",
    "cpi",
    "stall_cycles",
    "state_digest",
    "verified",
    "translated_instructions",
    # Report inputs: a change in the memory footprint or the iteration
    # count shifts the Fig. 5 ratios and DMIPS numbers, so the regression
    # gate must see it even when cycle counts are untouched.
    "iterations",
    "memory_cells",
    "memory_cell_ratio",
)


@dataclass
class JobDiff:
    """One field of one job differing between the two runs."""

    job_id: str
    label: str
    field: str
    value_a: object
    value_b: object

    def render(self) -> str:
        return (
            f"{self.label} ({self.job_id}): {self.field} "
            f"{self.value_a!r} -> {self.value_b!r}"
        )


@dataclass
class CompareReport:
    """Outcome of comparing two sweep runs."""

    run_a: str
    run_b: str
    jobs_compared: int = 0
    only_in_a: List[str] = field(default_factory=list)
    only_in_b: List[str] = field(default_factory=list)
    diffs: List[JobDiff] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.diffs and not self.only_in_a and not self.only_in_b

    @property
    def diff_count(self) -> int:
        return len(self.diffs) + len(self.only_in_a) + len(self.only_in_b)

    def summary(self) -> str:
        lines = [
            f"compare {self.run_a} vs {self.run_b}: "
            f"{self.jobs_compared} jobs compared, {self.diff_count} diffs"
        ]
        for job_id in self.only_in_a:
            lines.append(f"  only in {self.run_a}: {job_id}")
        for job_id in self.only_in_b:
            lines.append(f"  only in {self.run_b}: {job_id}")
        for diff in self.diffs:
            lines.append(f"  {diff.render()}")
        return "\n".join(lines)


def diff_records(record_a: dict, record_b: dict) -> List[JobDiff]:
    """Architecturally meaningful field diffs between two job records."""
    job_id = record_a["job_id"]
    label = record_a.get("label", job_id)
    diffs: List[JobDiff] = []
    for name in SCALAR_FIELDS:
        if record_a.get(name) != record_b.get(name):
            diffs.append(JobDiff(
                job_id=job_id, label=label, field=name,
                value_a=record_a.get(name), value_b=record_b.get(name),
            ))
    stats_a = record_a.get("stats") or {}
    stats_b = record_b.get("stats") or {}
    for name in sorted(set(stats_a) | set(stats_b)):
        if name == "cycles":
            continue  # already reported as a scalar field
        if stats_a.get(name) != stats_b.get(name):
            diffs.append(JobDiff(
                job_id=job_id, label=label, field=f"stats.{name}",
                value_a=stats_a.get(name), value_b=stats_b.get(name),
            ))
    return diffs


def compare_runs(run_a: str, run_b: str) -> CompareReport:
    """Compare the result stores of two run directories.

    A path that holds no run at all is an error, not an empty comparison —
    otherwise a typo'd baseline path would make a regression gate
    permanently green.
    """
    store_a, store_b = RunStore(run_a), RunStore(run_b)
    for store in (store_a, store_b):
        if not store.exists():
            raise StoreError(f"{store.root!r} is not a sweep run directory "
                             f"(no {store.spec_path})")
    records_a = {record["job_id"]: record for record in store_a.records()}
    records_b = {record["job_id"]: record for record in store_b.records()}
    report = CompareReport(run_a=run_a, run_b=run_b)
    report.only_in_a = sorted(set(records_a) - set(records_b))
    report.only_in_b = sorted(set(records_b) - set(records_a))
    for job_id in sorted(set(records_a) & set(records_b)):
        report.jobs_compared += 1
        report.diffs.extend(diff_records(records_a[job_id], records_b[job_id]))
    return report
