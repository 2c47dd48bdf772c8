"""Non-perturbation guarantees of the observability layer.

Instrumentation must observe, never alter.  Traced sweeps must produce
records canonically identical to untraced ones on every backend, and the
compiled engine that ``art9 profile`` reads its block profile from must
reproduce the golden-trace digests pinned by ``tests/golden/``.
"""

import glob
import json
import os

import pytest

from dialled_workers import DialledWorkers
from repro.obs import trace
from repro.runner import canonical_record, run_sweep, SweepSpec
from repro.service import MultiprocessingBackend

#: Small grid covering translation, the compiled engine's codegen path and
#: a baseline core — enough surface to notice any record perturbation.
_SPEC = SweepSpec(
    workloads=("bubble_sort", "gemm"),
    engines=("fast", "compiled", "picorv32"),
    optimize=(True,),
    params={"bubble_sort": [{"length": 8}], "gemm": [{"n": 2}]},
)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
FIXTURE_PATHS = sorted(glob.glob(os.path.join(GOLDEN_DIR, "*.json")))


def _canonical_set(outcome):
    return sorted(canonical_record(record) for record in outcome.records)


@pytest.fixture
def tracing(tmp_path, monkeypatch):
    """Enable env-driven tracing exactly the way ``--trace`` does."""
    path = str(tmp_path / "spans.jsonl")
    monkeypatch.setenv(trace.TRACE_ENV, "1")
    monkeypatch.setenv(trace.TRACE_FILE_ENV, path)
    trace.configure_from_env()
    yield path
    trace.configure(None)


class TestTracedSweepConformance:
    @pytest.fixture(scope="class")
    def untraced(self, tmp_path_factory):
        out = str(tmp_path_factory.mktemp("untraced") / "run")
        return run_sweep(_SPEC, out, jobs=1)

    def test_serial_backend(self, untraced, tracing, tmp_path):
        traced = run_sweep(_SPEC, str(tmp_path / "run"), jobs=1)
        assert traced.ok
        assert _canonical_set(traced) == _canonical_set(untraced)
        assert trace.read_spans(tracing), "tracing was on but wrote nothing"

    def test_multiprocessing_backend(self, untraced, tracing, tmp_path):
        traced = run_sweep(_SPEC, str(tmp_path / "run"),
                           backend=MultiprocessingBackend(processes=2))
        assert traced.ok
        assert _canonical_set(traced) == _canonical_set(untraced)

    def test_queue_backend(self, untraced, tracing, tmp_path):
        with DialledWorkers() as fleet:
            traced = run_sweep(_SPEC, str(tmp_path / "run"),
                               backend=fleet.backend())
        assert fleet.exit_codes == [0, 0], fleet.outputs
        assert traced.ok
        assert _canonical_set(traced) == _canonical_set(untraced)
        # The dialled workers inherit the env and trace into the same file.
        names = {span["name"] for span in trace.read_spans(tracing)}
        assert "job" in names

    def test_traced_records_carry_timings_without_perturbing(self, tracing,
                                                             tmp_path):
        traced = run_sweep(_SPEC, str(tmp_path / "run"), jobs=1)
        for record in traced.records:
            timings = record["timings"]
            assert set(timings) == {"xlate_s", "codegen_s", "execute_s"}
            assert all(value >= 0 for value in timings.values())
            assert record["cache_hit"] in (True, False)
            # The new fields are volatile: canonicalisation strips them.
            stable = json.loads(canonical_record(record))
            assert "timings" not in stable and "cache_hit" not in stable

    def test_job_span_per_executed_job(self, tracing, tmp_path):
        outcome = run_sweep(_SPEC, str(tmp_path / "run"), jobs=1)
        job_spans = [span for span in trace.read_spans(tracing)
                     if span["name"] == "job"]
        assert len(job_spans) == outcome.executed
        labels = {span["attrs"]["label"] for span in job_spans}
        assert labels == {record["label"] for record in outcome.records}


class TestProfiledGoldenReplay:
    """The build ``art9 profile`` reads matches the golden traces, and its
    block profile accounts for every executed instruction."""

    @pytest.mark.parametrize(
        "path", FIXTURE_PATHS,
        ids=[os.path.splitext(os.path.basename(p))[0] for p in FIXTURE_PATHS])
    def test_profiled_compiled_engine_matches_golden_digest(self, path):
        from repro.framework import SoftwareFramework
        from repro.sim.compiled import CompiledEngine
        from repro.sim.trace import state_digest, trace_mismatches

        with open(path, "r", encoding="utf-8") as handle:
            golden = json.load(handle)
        program, _, _ = SoftwareFramework(optimize=True).compile_named_workload(
            golden["workload"], golden["params"])
        engine = CompiledEngine(program)
        stats = engine.run_with_stats(max_cycles=50_000_000)
        mismatches = trace_mismatches(
            golden, engine.register_snapshot(), engine.tdm.contents(), stats)
        assert not mismatches, "\n".join(mismatches)
        assert state_digest(engine.register_snapshot(),
                            engine.tdm.contents()) == golden["state_digest"]
        # And the profile itself is conservative: block counts account for
        # exactly the instructions the engine executed.
        rows = engine.block_profile()
        assert sum(row["instructions"] for row in rows) == \
            engine.instructions_executed
        assert all(row["executions"] > 0 for row in rows)
