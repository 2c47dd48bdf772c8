"""Per-layer metrics of one traced repetition, reconciled to its wall clock.

Every process of a traced repetition leaves a marks file (see
``bench_entry.py``): its entry, import and ``cli.main`` timestamps plus one
span per wrapped layer call.  ``attribute`` lays all of them on one
timeline and gives every instant of the repetition's wall clock to exactly
one layer, the one on the blocking path:

* tier 2 — calls inside a sweep job (the worker is computing);
* tier 1 — every other wrapped layer call, interpreter start and the
  ``repro.cli`` import (a process is doing set-up or durable I/O);
* tier 0 — ``cli.main`` itself and the waits the harness derives: a
  worker's gap between two jobs (``service.dispatch``) and the time from
  the coordinator's announce line to the worker's first job
  (``service.worker_ready``).

Among the active spans the highest tier wins, then the deepest nesting,
then the latest start.  A layer's time is therefore its self time along
the blocking path, and the layer times plus ``unattributed_s`` (time in
``cli.main`` itself or in no span at all) add up to the traced ``wall_s``
by construction.
"""

from __future__ import annotations

import heapq
import statistics
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: (name, unit, better) of every per-layer metric, in print order.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("interp.start_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.import_numpy_s", "s", "lower"),
    ("sim.engine.first_init_s", "s", "lower"),
    ("runner.spec.expand_s", "s", "lower"),
    ("runner.store.append_s", "s", "lower"),
    ("runner.store.appends", "count", "lower"),
    ("runner.store.summary_s", "s", "lower"),
    ("service.journal.append_s", "s", "lower"),
    ("service.journal.events", "count", "lower"),
    ("os.fsyncs", "count", "lower"),
    ("os.fsync_s", "s", "lower"),
    ("service.worker_ready_s", "s", "lower"),
    ("service.dispatch_s", "s", "lower"),
    ("service.dispatch_p50_ms", "ms", "lower"),
    ("service.dispatch_p95_ms", "ms", "lower"),
    ("service.requeues", "count", "lower"),
    ("runner.worker.job_self_s", "s", "lower"),
    ("runner.worker.jobs", "count", "higher"),
    ("xlate.compile_s", "s", "lower"),
    ("xlate.built", "count", "lower"),
    ("xlate.hit_ratio", "ratio", "higher"),
    ("cache.get_s", "s", "lower"),
    ("cache.put_s", "s", "lower"),
    ("cache.hits", "count", "higher"),
    ("cache.misses", "count", "lower"),
    ("cache.puts", "count", "lower"),
    ("cache.xlate.hits", "count", "higher"),
    ("cache.xlate.misses", "count", "lower"),
    ("cache.xlate.puts", "count", "lower"),
    ("cache.codegen.hits", "count", "higher"),
    ("cache.codegen.misses", "count", "lower"),
    ("cache.codegen.puts", "count", "lower"),
    ("cache.chainplan.hits", "count", "higher"),
    ("cache.chainplan.misses", "count", "lower"),
    ("cache.chainplan.puts", "count", "lower"),
    ("sim.pipeline.busy_s", "s", "lower"),
    ("sim.pipeline.execute_s", "s", "lower"),
    ("sim.pipeline.kips", "kinstr/s", "higher"),
    ("sim.compiled.busy_s", "s", "lower"),
    ("sim.compiled.prepare_s", "s", "lower"),
    ("sim.compiled.execute_s", "s", "lower"),
    ("sim.compiled.kips", "kinstr/s", "higher"),
    ("sim.fast.busy_s", "s", "lower"),
    ("sim.fast.execute_s", "s", "lower"),
    ("sim.fast.kips", "kinstr/s", "higher"),
    ("sim.batch.busy_s", "s", "lower"),
    ("sim.functional.busy_s", "s", "lower"),
    ("testing.generate_s", "s", "lower"),
    ("testing.programs", "count", "higher"),
    ("unattributed_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

#: The self-time metrics that partition the traced wall clock; together
#: with ``unattributed_s`` they sum to ``trace.wall_s``.
PARTITION = (
    "interp.start_s", "cli.import_s", "cli.import_numpy_s",
    "sim.engine.first_init_s", "runner.spec.expand_s",
    "runner.store.append_s", "runner.store.summary_s",
    "service.journal.append_s", "os.fsync_s", "service.worker_ready_s",
    "service.dispatch_s", "runner.worker.job_self_s", "xlate.compile_s",
    "cache.get_s", "cache.put_s", "sim.pipeline.busy_s",
    "sim.compiled.busy_s", "sim.fast.busy_s", "sim.batch.busy_s",
    "sim.functional.busy_s", "testing.generate_s",
)

ENGINES = ("pipeline", "compiled", "fast", "batch", "functional")
CACHE_KINDS = ("xlate", "codegen", "chainplan")
JOB = "runner.worker.job"

#: Span layers whose self time belongs to another metric than ``<layer>_s``.
_BUCKET_METRIC = {
    JOB: "runner.worker.job_self_s",
    "runner.worker.simulate": "runner.worker.job_self_s",
}

#: One timeline interval: (start, end, tier, depth, bucket).
Interval = Tuple[float, float, int, int, str]


def attribute(intervals: Iterable[Interval], t0: float,
              t1: float) -> Dict[Optional[str], float]:
    """Split ``[t0, t1]`` among ``intervals``; ``None`` collects the rest.

    Each elementary segment goes to the active interval with the highest
    (tier, depth, start); segments no interval covers go to ``None``.
    """
    clipped = []
    for start, end, tier, depth, bucket in intervals:
        start, end = max(start, t0), min(end, t1)
        if end > start:
            clipped.append((start, end, tier, depth, bucket))
    events = []
    for index, (start, end, _, _, _) in enumerate(clipped):
        events.append((start, 1, index))
        events.append((end, 0, index))
    events.sort()
    totals: Dict[Optional[str], float] = defaultdict(float)
    heap: List[tuple] = []
    active = set()
    cursor = t0
    for when, opening, index in events:
        if when > cursor:
            while heap and heap[0][-1] not in active:
                heapq.heappop(heap)
            owner = clipped[heap[0][-1]][4] if heap else None
            totals[owner] += when - cursor
            cursor = when
        if opening:
            start, _, tier, depth, _ = clipped[index]
            active.add(index)
            heapq.heappush(heap, (-tier, -depth, -start, index))
        else:
            active.discard(index)
    totals[None] += t1 - cursor
    return totals


def _percentile_ms(values: Sequence[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0] * 1000.0
    return statistics.quantiles(values, n=100)[q - 1] * 1000.0


def numpy_import_s(importtime_stderr: str) -> float:
    """Seconds ``-X importtime`` charged to numpy inside ``import repro.cli``.

    Nested imports are printed before the module that pulled them in, so
    numpy counts only when its line comes before the ``repro.cli`` line;
    a later (lazy) numpy import belongs to whichever layer triggered it.
    """
    numpy_us = 0
    for line in importtime_stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line.split("|")
        if len(fields) != 3:
            continue
        module = fields[2].strip()
        if module == "numpy" and not numpy_us:
            try:
                numpy_us = int(fields[1])
            except ValueError:
                continue
        elif module == "repro.cli":
            return numpy_us / 1e6
    return 0.0


def process_intervals(process: dict) -> List[Interval]:
    """Timeline intervals of one process from its launch time and marks."""
    marks = process.get("marks")
    if not marks:
        return []
    intervals: List[Interval] = [
        (process["launch"], marks["entry"], 1, 0, "interp.start"),
        (marks["import"][0], marks["import"][1], 1, 0, "cli.import"),
        (marks["main"][0], marks["main"][1], 0, 0, "cli.main"),
    ]
    for layer, _, start, end, tier, depth, _ in marks["spans"]:
        intervals.append((start, end, tier, depth, layer))
    return intervals


def dispatch_gaps(process: dict) -> List[Tuple[float, float]]:
    """A worker's waits between finishing one job and starting the next."""
    jobs = sorted((span[2], span[3]) for span in process["marks"]["spans"]
                  if span[0] == JOB)
    return [(end, nxt) for (_, end), (nxt, _) in zip(jobs, jobs[1:])]


def layer_metrics(processes: Sequence[dict], t0: float, t1: float,
                  announce: Optional[float] = None,
                  requeues: int = 0) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition.

    ``processes`` hold ``launch`` (monotonic launch time), ``role``
    (``main`` or ``worker``), ``marks`` (the parsed marks file) and
    ``stderr`` (the ``-X importtime`` output).  ``announce`` is when the
    harness read the coordinator's listening line.
    """
    intervals: List[Interval] = []
    gaps: List[Tuple[float, float]] = []
    spans = []
    numpy_s = 0.0
    for process in processes:
        intervals.extend(process_intervals(process))
        if not process.get("marks"):
            continue
        spans.extend(process["marks"]["spans"])
        numpy_s += numpy_import_s(process.get("stderr", ""))
        if process["role"] == "worker":
            gaps.extend(dispatch_gaps(process))
            first_job = process["marks"].get("first_op")
            if announce is not None and first_job is not None:
                intervals.append((announce, first_job, 0, 1,
                                  "service.worker_ready"))
    intervals.extend((start, end, 0, 1, "service.dispatch")
                     for start, end in gaps)
    totals = attribute(intervals, t0, t1)

    metrics: Dict[str, float] = {name: 0.0 for name, _, _ in PER_LAYER}
    unattributed = totals.pop(None, 0.0) + totals.pop("cli.main", 0.0)
    for bucket, seconds in totals.items():
        parts = bucket.split(".")
        if parts[0] == "sim" and parts[1] in ENGINES:
            # Engine spans are sim.<engine>.{init,prepare,execute}.
            metrics[f"sim.{parts[1]}.busy_s"] += seconds
            phase = f"sim.{parts[1]}.{parts[2]}_s"
            if phase in metrics:
                metrics[phase] += seconds
            continue
        metric = _BUCKET_METRIC.get(bucket, bucket + "_s")
        if metric in metrics:
            metrics[metric] += seconds
        else:
            unattributed += seconds
    numpy_s = min(numpy_s, metrics["cli.import_s"])
    metrics["cli.import_s"] -= numpy_s
    metrics["cli.import_numpy_s"] = numpy_s
    metrics["unattributed_s"] = unattributed
    metrics["trace.wall_s"] = t1 - t0

    counts: Dict[str, int] = defaultdict(int)
    values: Dict[str, int] = defaultdict(int)
    for layer, tag, _, _, _, _, value in spans:
        counts[layer] += 1
        values[layer] += value
        if tag in CACHE_KINDS:
            counts[f"{layer}:{tag}"] += 1
            values[f"{layer}:{tag}"] += value
    metrics["runner.store.appends"] = counts["runner.store.append"]
    metrics["service.journal.events"] = values["service.journal.append"]
    metrics["os.fsyncs"] = counts["os.fsync"]
    metrics["runner.worker.jobs"] = counts[JOB]
    metrics["xlate.built"] = values["xlate.compile"]
    if counts["xlate.compile"]:
        metrics["xlate.hit_ratio"] = (
            1.0 - values["xlate.compile"] / counts["xlate.compile"])
    metrics["cache.hits"] = values["cache.get"]
    metrics["cache.misses"] = counts["cache.get"] - values["cache.get"]
    metrics["cache.puts"] = counts["cache.put"]
    for kind in CACHE_KINDS:
        gets = f"cache.get:{kind}"
        metrics[f"cache.{kind}.hits"] = values[gets]
        metrics[f"cache.{kind}.misses"] = counts[gets] - values[gets]
        metrics[f"cache.{kind}.puts"] = counts[f"cache.put:{kind}"]
    for engine in ("pipeline", "compiled", "fast"):
        seconds = metrics[f"sim.{engine}.execute_s"]
        if seconds > 0:
            metrics[f"sim.{engine}.kips"] = (
                values[f"sim.{engine}.execute"] / seconds / 1000.0)
    metrics["testing.programs"] = counts["testing.generate"]
    waits = [end - start for start, end in gaps]
    metrics["service.dispatch_p50_ms"] = _percentile_ms(waits, 50)
    metrics["service.dispatch_p95_ms"] = _percentile_ms(waits, 95)
    metrics["service.requeues"] = requeues
    return metrics
