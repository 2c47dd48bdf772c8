"""Crash-shaped faults against the RunStore: torn lines, concurrent
appenders, atomic summaries.

``results.jsonl`` is the ground truth every recovery path (resume,
``serve --resume``, the chaos harness) leans on, so this file attacks it
the way real crashes do: a record cut mid-byte by ``kill -9``, two
processes appending into the same file, a summary rewrite dying halfway.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.runner.orchestrator import run_sweep
from repro.runner.spec import SweepSpec
from repro.runner.store import RunStore, SUMMARY_FILENAME


def _small_spec():
    return SweepSpec(
        workloads=("bubble_sort",),
        engines=("fast",),
        optimize=(True, False),
        params={"bubble_sort": [{"length": 4}, {"length": 6}]},
    )


class TestTornFinalLine:
    def test_resume_recomputes_exactly_the_torn_job(self, tmp_path):
        run_dir = str(tmp_path / "run")
        spec = _small_spec()
        outcome = run_sweep(spec, run_dir, jobs=1)
        assert outcome.ok and outcome.executed == 4

        # Tear the final record mid-byte, the way SIGKILL during a write
        # leaves it.
        store = RunStore(run_dir)
        with open(store.results_path, "rb") as handle:
            raw = handle.read()
        torn_id = json.loads(raw.splitlines()[-1])["job_id"]
        with open(store.results_path, "wb") as handle:
            handle.write(raw[:-10])

        survivors = {record["job_id"] for record in store.records()}
        assert torn_id not in survivors
        assert len(survivors) == 3

        resumed = run_sweep(spec, run_dir, jobs=1)
        assert resumed.ok
        assert resumed.executed == 1  # exactly the torn job, nothing else
        assert resumed.skipped == 3
        recomputed = {record["job_id"] for record in resumed.records}
        assert torn_id in recomputed
        assert {record["job_id"] for record in store.records()} == \
            survivors | {torn_id}

    def test_append_after_tear_seals_the_stump(self, tmp_path):
        store = RunStore(str(tmp_path))
        store.append({"job_id": "a", "status": "ok"})
        with open(store.results_path, "ab") as handle:
            handle.write(b'{"job_id":"b","sta')  # torn, no newline
        store.append({"job_id": "c", "status": "ok"})
        ids = [record["job_id"] for record in store.records()]
        assert ids == ["a", "c"]
        # The torn stump occupies its own (skipped) line: the good record
        # after it did not concatenate onto it.
        with open(store.results_path, "rb") as handle:
            lines = handle.read().split(b"\n")
        assert json.loads(lines[-2])["job_id"] == "c"


class TestConcurrentAppenders:
    def test_two_processes_appending_lose_nothing(self, tmp_path):
        # Line-buffered O_APPEND writes from two whole processes: every
        # record must survive, whole, no interleaving inside a line.  This
        # is the property that lets coordinator and local workers share
        # one results file.
        run_dir = str(tmp_path)
        per_process = 40
        script = textwrap.dedent("""
            import sys
            from repro.runner.store import RunStore
            store = RunStore(sys.argv[1])
            tag = sys.argv[2]
            for i in range(int(sys.argv[3])):
                store.append({"job_id": f"{tag}-{i}", "status": "ok",
                              "payload": "x" * 256})
        """)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(
            os.path.dirname(os.path.abspath(repro.__file__)))
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, run_dir, tag,
                 str(per_process)], env=env)
            for tag in ("left", "right")
        ]
        store = RunStore(run_dir)
        # Snapshot while both writers are live: whatever we see must parse.
        mid_flight = store.records()
        assert all(record["status"] == "ok" for record in mid_flight)
        for proc in procs:
            assert proc.wait(timeout=60) == 0
        ids = {record["job_id"] for record in store.records()}
        assert len(ids) == 2 * per_process
        # Every line in the file is complete, parseable JSON.
        with open(store.results_path, "rb") as handle:
            raw = handle.read()
        assert raw.endswith(b"\n")
        for line in raw.splitlines():
            json.loads(line)


class TestAtomicSummary:
    def test_write_leaves_no_temp_droppings(self, tmp_path):
        store = RunStore(str(tmp_path))
        store.append({"job_id": "a", "status": "ok", "workload": "w",
                      "engine": "fast", "optimize": True, "verified": True,
                      "cycles": 10, "cpi": 1.0, "stall_cycles": 0})
        table = store.write_summary()
        assert "w" in table
        with open(store.summary_path) as handle:
            assert handle.read() == table + "\n"
        leftovers = [name for name in os.listdir(str(tmp_path))
                     if name.startswith(SUMMARY_FILENAME + ".")]
        assert leftovers == []

    def test_failed_rewrite_keeps_the_previous_summary(self, tmp_path,
                                                       monkeypatch):
        store = RunStore(str(tmp_path))
        store.append({"job_id": "a", "status": "ok", "workload": "w",
                      "engine": "fast", "optimize": True, "verified": True,
                      "cycles": 10, "cpi": 1.0, "stall_cycles": 0})
        original = store.write_summary()

        store.append({"job_id": "b", "status": "ok", "workload": "w2",
                      "engine": "fast", "optimize": False, "verified": True,
                      "cycles": 20, "cpi": 2.0, "stall_cycles": 1})

        def exploding_replace(src, dst):
            raise OSError("disk gone")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError):
            store.write_summary()
        monkeypatch.undo()
        # Old summary intact, no temp files shadowing it.
        with open(store.summary_path) as handle:
            assert handle.read() == original + "\n"
        assert [name for name in os.listdir(str(tmp_path))
                if name.endswith(".tmp")] == []
        # And the next attempt succeeds with the new content.
        assert "w2" in store.write_summary()
