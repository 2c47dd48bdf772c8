"""End-to-end tests of the sweep orchestrator, compare mode and the CLI.

The small grids here run in a couple of seconds but exercise every moving
part: multi-process sharding, streaming JSONL persistence, resume after an
interrupted run, cross-run comparison (including engine-vs-engine
determinism: the fast engine and the pipeline model land identical
records), the parallel fuzz backend, and the ``art9 sweep`` front end.
"""

import json

import pytest

from repro.cli import main
from repro.runner import (
    RunStore,
    SweepJob,
    SweepSpec,
    compare_runs,
    execute_job,
    list_jobs,
    run_parallel_fuzz,
    run_sweep,
)
from repro.testing import fuzz

#: A cheap grid: 2 workloads x 2 engines x both optimize settings = 8 jobs.
SMALL_SPEC = SweepSpec(
    workloads=("bubble_sort", "gemm"),
    engines=("fast", "pipeline"),
    optimize=(True, False),
    params={"bubble_sort": [{"length": 8}], "gemm": [{"n": 2}]},
)


class TestExecuteJob:
    def test_ok_record_contents(self):
        job = SweepJob("bubble_sort", "fast", True, params=(("length", 8),))
        record = execute_job(job)
        assert record["status"] == "ok"
        assert record["job_id"] == job.job_id
        assert record["verified"] is True
        assert record["cycles"] == record["stats"]["cycles"] > 0
        assert record["stats"]["instructions_committed"] == record["instructions"]
        assert len(record["state_digest"]) == 64
        assert record["translated_instructions"] > 0

    def test_engines_produce_identical_architecture_and_timing(self):
        fast = execute_job(SweepJob("gemm", "fast", True, params=(("n", 2),)))
        pipe = execute_job(SweepJob("gemm", "pipeline", True, params=(("n", 2),)))
        assert fast["state_digest"] == pipe["state_digest"]
        assert fast["stats"] == pipe["stats"]

    def test_errors_become_records_not_exceptions(self):
        record = execute_job(SweepJob("gemm", "fast", True, params=(("n", 3),)))
        assert record["status"] == "error"
        assert "power of two" in record["error"]


class TestRunSweep:
    def test_pool_run_completes_the_grid(self, tmp_path):
        out = str(tmp_path / "run")
        outcome = run_sweep(SMALL_SPEC, out, jobs=2)
        assert outcome.ok
        assert outcome.total_jobs == 8
        assert outcome.executed == 8 and outcome.skipped == 0
        records = RunStore(out).records()
        assert len(records) == 8
        assert all(r["status"] == "ok" and r["verified"] for r in records)
        # The pool really did shard across >= 2 worker processes.
        assert len({r["worker_pid"] for r in records}) >= 2

    def test_rerun_resumes_without_recomputing(self, tmp_path):
        out = str(tmp_path / "run")
        run_sweep(SMALL_SPEC, out, jobs=2)
        again = run_sweep(SMALL_SPEC, out, jobs=2)
        assert again.executed == 0
        assert again.skipped == 8

    def test_interrupted_run_resumes_only_missing_jobs(self, tmp_path):
        out = str(tmp_path / "run")
        run_sweep(SMALL_SPEC, out, jobs=1)
        store = RunStore(out)
        with open(store.results_path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        with open(store.results_path, "w", encoding="utf-8") as handle:
            handle.writelines(lines[:5])        # drop 3 finished jobs...
            handle.write(lines[5][:20])         # ...and truncate one mid-write
        resumed = run_sweep(SMALL_SPEC, out, jobs=2)
        assert resumed.executed == 3
        assert resumed.skipped == 5
        assert len(RunStore(out).records()) == 8

    def test_no_resume_recomputes_everything(self, tmp_path):
        out = str(tmp_path / "run")
        run_sweep(SMALL_SPEC, out, jobs=1)
        fresh = run_sweep(SMALL_SPEC, out, jobs=1, resume=False)
        assert fresh.executed == 8

    def test_inline_and_pool_runs_are_identical(self, tmp_path):
        inline = run_sweep(SMALL_SPEC, str(tmp_path / "a"), jobs=1)
        pooled = run_sweep(SMALL_SPEC, str(tmp_path / "b"), jobs=2)
        assert inline.ok and pooled.ok
        report = compare_runs(str(tmp_path / "a"), str(tmp_path / "b"))
        assert report.ok
        assert report.jobs_compared == 8

    def test_list_jobs_reports_status(self, tmp_path):
        out = str(tmp_path / "run")
        rows = list_jobs(SMALL_SPEC)
        assert len(rows) == 8
        assert all(row["status"] == "pending" for row in rows)
        run_sweep(SMALL_SPEC, out, jobs=1)
        rows = list_jobs(SMALL_SPEC, out)
        assert all(row["status"] == "done" for row in rows)


class TestCompareRuns:
    def _two_identical_runs(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        spec = SweepSpec(workloads=("bubble_sort",), engines=("fast",),
                         optimize=(True,), params={"bubble_sort": [{"length": 8}]})
        run_sweep(spec, a, jobs=1)
        run_sweep(spec, b, jobs=1)
        return a, b

    def test_identical_runs_compare_clean(self, tmp_path):
        a, b = self._two_identical_runs(tmp_path)
        report = compare_runs(a, b)
        assert report.ok
        assert report.diff_count == 0
        assert "0 diffs" in report.summary()

    def test_cycle_drift_is_reported(self, tmp_path):
        a, b = self._two_identical_runs(tmp_path)
        store = RunStore(b)
        record = store.records()[0]
        record["cycles"] += 7
        record["stats"]["cycles"] += 7
        store.append(record)  # newest record wins
        report = compare_runs(a, b)
        assert not report.ok
        fields = {diff.field for diff in report.diffs}
        assert "cycles" in fields
        assert report.summary().count("->") >= 1

    def test_architectural_drift_is_reported(self, tmp_path):
        a, b = self._two_identical_runs(tmp_path)
        store = RunStore(b)
        record = store.records()[0]
        record["state_digest"] = "0" * 64
        store.append(record)
        report = compare_runs(a, b)
        assert {diff.field for diff in report.diffs} == {"state_digest"}

    def test_nonexistent_run_directory_is_an_error(self, tmp_path):
        from repro.runner import StoreError
        a, _ = self._two_identical_runs(tmp_path)
        with pytest.raises(StoreError):
            compare_runs(a, str(tmp_path / "no-such-run"))
        with pytest.raises(StoreError):
            compare_runs(str(tmp_path / "no-such-run"), a)

    def test_missing_jobs_are_reported(self, tmp_path):
        a, b = self._two_identical_runs(tmp_path)
        extra = execute_job(SweepJob("gemm", "fast", True, params=(("n", 2),)))
        RunStore(b).append(extra)
        report = compare_runs(a, b)
        assert not report.ok
        assert report.only_in_b == [extra["job_id"]]
        assert report.only_in_a == []


class TestParallelFuzz:
    def test_parallel_report_matches_serial(self):
        serial = fuzz(count=10, seed=0)
        parallel = run_parallel_fuzz(count=10, seed=0, jobs=2)
        assert parallel.programs_run == serial.programs_run == 10
        assert parallel.instructions_executed == serial.instructions_executed
        assert parallel.budget_exhausted == serial.budget_exhausted
        assert parallel.ok == serial.ok

    def test_jobs_one_falls_back_to_serial(self):
        report = run_parallel_fuzz(count=3, seed=5, jobs=1)
        assert report.programs_run == 3


class TestSweepCLI:
    BASE = ["sweep", "--workloads", "bubble_sort", "--engines", "fast",
            "--optimize", "on", "--params", '{"bubble_sort": [{"length": 8}]}']

    def test_run_resume_and_compare(self, tmp_path, capsys):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(self.BASE + ["--jobs", "2", "--out", a]) == 0
        assert main(self.BASE + ["--jobs", "2", "--out", b]) == 0
        out = capsys.readouterr().out
        assert "bubble_sort[length=8]/fast/opt" in out
        assert main(self.BASE + ["--jobs", "2", "--out", a]) == 0
        assert "1 executed" not in capsys.readouterr().out  # resumed, not rerun
        assert main(["sweep", "--compare", a, b]) == 0
        assert "0 diffs" in capsys.readouterr().out

    def test_compare_detects_tampering(self, tmp_path, capsys):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        main(self.BASE + ["--jobs", "1", "--out", a])
        main(self.BASE + ["--jobs", "1", "--out", b])
        store = RunStore(b)
        record = store.records()[0]
        record["cycles"] += 1
        store.append(record)
        capsys.readouterr()
        assert main(["sweep", "--compare", a, b]) == 1
        assert "cycles" in capsys.readouterr().out

    def test_list_mode(self, tmp_path, capsys):
        assert main(self.BASE + ["--list", "--out", str(tmp_path / "x")]) == 0
        out = capsys.readouterr().out
        assert "pending" in out and "bubble_sort[length=8]/fast/opt" in out

    def test_spec_file_mode(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "workloads": ["gemm"], "engines": ["fast"], "optimize": [True],
            "params": {"gemm": [{"n": 2}]},
        }))
        out = str(tmp_path / "run")
        assert main(["sweep", "--spec", str(spec_path), "--jobs", "1",
                     "--out", out]) == 0
        records = RunStore(out).records()
        assert len(records) == 1
        assert records[0]["workload"] == "gemm"

    def test_compare_with_bad_path_exits_cleanly(self, tmp_path, capsys):
        assert main(["sweep", "--compare", str(tmp_path / "nope-a"),
                     str(tmp_path / "nope-b")]) == 2
        captured = capsys.readouterr()
        assert "not a sweep run directory" in captured.err

    def test_malformed_params_exit_cleanly(self, capsys):
        assert main(["sweep", "--list", "--workloads", "gemm",
                     "--params", '{"gemm": "n=8"}']) == 2
        assert "list of parameter dicts" in capsys.readouterr().err

    def test_fuzz_jobs_flag(self, capsys):
        assert main(["fuzz", "--count", "6", "--jobs", "2"]) == 0
        assert "6 programs" in capsys.readouterr().out
