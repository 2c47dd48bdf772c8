"""Layered end-to-end benchmark of the ``art9`` CLI.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] \\
        [--trace 0|1]

``NAME`` is one of the workloads of ``bench_workloads.WORKLOADS``;
``BENCHMARK.json`` lists the three the benchmark gates on.

One run starts with one untimed repetition of the workload (warms the
bytecode cache and, for ``default-serial``, the artifact cache), then
repeats the workload in fresh processes for ``--seconds`` seconds, closed
loop: a repetition starts only after the previous one ended.  Each metric
is the median over those repetitions.  ``--trace 1`` adds one traced
repetition and prints the per-layer metrics of ``bench_layers`` instead;
``trace.overhead_s`` is its wall time minus the median untraced one.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A run with any failed op still
prints it, then exits 1.  See ``README.md`` for the workloads and layers.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from typing import Dict, List

import bench_layers
import bench_workloads

#: (name, unit, better) of the end-to-end metrics, taken with tracing off.
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("ops_per_s", "ops/s", "higher"),
)

#: A run must exit within 180 s; repetitions stop starting after this.
RUN_BUDGET_S = 165.0
#: Longest one repetition may take before its processes are killed.
REP_DEADLINE_S = 60.0
MIN_TIMED_REPS = 2


def end_to_end(reps: List[bench_workloads.Rep]) -> Dict[str, float]:
    """Median of every end-to-end metric (a ``Rep`` attribute) over ``reps``."""
    return {name: statistics.median(getattr(rep, name) for rep in reps)
            for name, _, _ in END_TO_END}


def result_line(reps: List[bench_workloads.Rep],
                timed: List[bench_workloads.Rep],
                traced: bench_workloads.Rep = None) -> dict:
    """The final JSON object; per-layer metrics when ``traced`` is given."""
    if traced is None:
        values = end_to_end(timed)
        units = [(name, unit) for name, unit, _ in END_TO_END]
    else:
        values = dict(traced.layers)
        values["trace.overhead_s"] = (
            traced.wall_s - statistics.median(rep.wall_s for rep in timed))
        units = [(name, unit) for name, unit, _ in bench_layers.PER_LAYER]
    failed = sum(rep.failed for rep in reps)
    return {
        "correct": failed == 0,
        "attempted": sum(rep.ops for rep in reps),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units},
    }


def describe(label: str, rep: bench_workloads.Rep) -> str:
    line = (f"{label}: wall {rep.wall_s:.3f}s setup {rep.setup_s:.3f}s "
            f"cpu {rep.cpu_s:.3f}s rss {rep.peak_rss_mb:.1f}MiB "
            f"ops {rep.completed}/{rep.ops} failed {rep.failed}")
    return "\n".join([line] + [f"    {note}" for note in rep.notes])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(bench_workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    started = time.monotonic()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "repro", "cli.py")):
        print(f"perfbench: {root} has no src/repro/cli.py; run the benchmark "
              "from the root of a full checkout", file=sys.stderr)
        return 2

    workload = bench_workloads.WORKLOADS[args.workload](root, args.seed)
    workload.prepare()
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}", flush=True)

    def remaining() -> float:
        return started + RUN_BUDGET_S - time.monotonic()

    def deadline() -> float:
        return min(REP_DEADLINE_S, remaining())

    warm = workload.run_rep(traced=False, deadline_s=deadline())
    print(describe("warm-up (untimed)", warm), flush=True)
    reps = [warm]
    timed: List[bench_workloads.Rep] = []
    measured = time.monotonic()
    while True:
        estimate = statistics.median(rep.wall_s for rep in reps[-3:])
        elapsed = time.monotonic() - measured
        if len(timed) >= MIN_TIMED_REPS and elapsed + estimate > args.seconds:
            break
        # Keep room for this repetition and, when tracing, the traced one.
        if remaining() < (3 if args.trace else 2) * estimate:
            break
        timed.append(workload.run_rep(traced=False, deadline_s=deadline()))
        reps.append(timed[-1])
        print(describe(f"rep {len(timed)}", timed[-1]), flush=True)
    traced = None
    if args.trace:
        traced = workload.run_rep(traced=True, deadline_s=deadline())
        reps.append(traced)
        print(describe("traced rep", traced), flush=True)
    if not timed:
        print("perfbench: no time left for a timed repetition",
              file=sys.stderr)
        return 1
    result = result_line(reps, timed, traced)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
