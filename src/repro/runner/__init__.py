"""Batch execution layer: sharded sweeps over the evaluation grid.

The paper's evaluation is a grid — every workload crossed with every
implementation target — and this package is the machinery that runs such
grids at scale:

* :mod:`repro.runner.spec` — declarative sweep specifications expanded
  into pure-data jobs with deterministic, content-addressed IDs; the
  ``engine`` axis covers the ART-9 engines *and* the baseline cores
  (``picorv32``, ``vexriscv``, ``armv6m``), plus named preset grids;
* :mod:`repro.runner.worker` — persistent worker processes that cache
  translated programs and turn job specs into plain-dict result records;
* :mod:`repro.runner.store` — the JSONL result store (append-only,
  crash-tolerant) plus the human-readable summary table;
* :mod:`repro.runner.orchestrator` — ``run_sweep``: expansion, resume
  filtering, and the pending jobs run inline, on a local process pool
  (``run_pool``) or through the caller's ``execute`` (``art9 serve``
  passes its TCP coordinator), with the records streamed into the store;
* :mod:`repro.runner.compare` — diffing two runs (cycles, CPI, stalls,
  architectural-state digests) for regression hunting;
* :mod:`repro.runner.fuzzpool` — the parallel backend of ``art9 fuzz``.

Everything is exposed through ``art9 sweep`` (and ``art9 fuzz --jobs``) on
the command line; the distributed/aggregation layer above this one lives
in :mod:`repro.service` (``art9 serve`` / ``work`` / ``report``).
"""

from repro.runner.compare import CompareReport, JobDiff, compare_runs, diff_records
from repro.runner.fuzzpool import run_parallel_fuzz
from repro.runner.orchestrator import SweepOutcome, list_jobs, run_sweep
from repro.runner.spec import (
    ALL_ENGINES,
    BASELINE_ENGINES,
    DEFAULT_MAX_CYCLES,
    SWEEP_PRESETS,
    SpecError,
    SweepJob,
    SweepSpec,
    preset_spec,
)
from repro.runner.store import (
    RunStore,
    StoreError,
    VOLATILE_RECORD_FIELDS,
    canonical_record,
)
from repro.runner.worker import execute_job

__all__ = [
    "CompareReport",
    "JobDiff",
    "compare_runs",
    "diff_records",
    "run_parallel_fuzz",
    "SweepOutcome",
    "list_jobs",
    "run_sweep",
    "ALL_ENGINES",
    "BASELINE_ENGINES",
    "DEFAULT_MAX_CYCLES",
    "SWEEP_PRESETS",
    "SpecError",
    "SweepJob",
    "SweepSpec",
    "preset_spec",
    "RunStore",
    "StoreError",
    "VOLATILE_RECORD_FIELDS",
    "canonical_record",
    "execute_job",
]
