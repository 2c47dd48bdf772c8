"""Unit tests for the observability substrate (:mod:`repro.obs`).

Metrics: handle semantics, snapshot shape, fleet-merge rules (counters
add, gauges last-wins except ``*_max``, histograms bucket-wise).  Trace:
off-by-default, environment-driven enablement, span nesting/parent ids,
torn-line tolerance of the JSONL reader.
"""

import os
import threading

import pytest

from repro.obs import metrics, trace
from repro.obs.metrics import DEFAULT_BUCKETS, MetricsRegistry


@pytest.fixture
def registry():
    return MetricsRegistry()


@pytest.fixture
def traced(tmp_path):
    """Enable tracing into a temp file for one test, then restore."""
    path = str(tmp_path / "spans.jsonl")
    trace.configure(path)
    yield path
    trace.configure(None)


class TestCounters:
    def test_counter_handle_is_stable_and_accumulates(self, registry):
        handle = registry.counter("cache.program.hits")
        assert registry.counter("cache.program.hits") is handle
        handle.inc()
        handle.inc(41)
        assert registry.to_dict()["counters"]["cache.program.hits"] == 42

    def test_unused_counter_reports_zero(self, registry):
        registry.counter("never.incremented")
        assert registry.to_dict()["counters"]["never.incremented"] == 0


class TestGauges:
    def test_set_is_last_writer_wins(self, registry):
        gauge = registry.gauge("queue.depth")
        gauge.set(7)
        gauge.set(3)
        assert registry.to_dict()["gauges"]["queue.depth"] == 3

    def test_set_max_is_a_high_water_mark(self, registry):
        gauge = registry.gauge("batch.concurrent_groups_max")
        gauge.set_max(4)
        gauge.set_max(2)
        assert registry.to_dict()["gauges"]["batch.concurrent_groups_max"] == 4

    def test_unset_gauge_is_none(self, registry):
        registry.gauge("unset")
        assert registry.to_dict()["gauges"]["unset"] is None


class TestHistograms:
    def test_observations_land_in_the_right_buckets(self, registry):
        histogram = registry.histogram("xlate.seconds")
        histogram.observe(0.0001)   # below the first bound
        histogram.observe(0.02)     # between 0.01 and 0.05
        histogram.observe(120.0)    # beyond the last bound
        data = registry.to_dict()["histograms"]["xlate.seconds"]
        assert data["bounds"] == list(DEFAULT_BUCKETS)
        assert sum(data["bucket_counts"]) == data["count"] == 3
        assert data["bucket_counts"][0] == 1
        assert data["bucket_counts"][-1] == 1
        assert data["min"] == 0.0001 and data["max"] == 120.0
        assert data["sum"] == pytest.approx(120.0201)
        assert histogram.mean == pytest.approx(120.0201 / 3)

    def test_empty_histogram_mean_is_zero(self, registry):
        assert registry.histogram("empty").mean == 0.0


class TestMerge:
    def test_counters_add_across_workers(self, registry):
        worker = MetricsRegistry()
        worker.counter("compiled.blocks_compiled").inc(5)
        registry.counter("compiled.blocks_compiled").inc(2)
        registry.merge(worker.to_dict())
        registry.merge(worker.to_dict())
        assert registry.to_dict()["counters"]["compiled.blocks_compiled"] == 12

    def test_max_gauges_merge_by_max_others_by_last(self, registry):
        first, second = MetricsRegistry(), MetricsRegistry()
        for source, depth, high in ((first, 9, 6), (second, 1, 4)):
            source.gauge("queue.depth").set(depth)
            source.gauge("groups_max").set_max(high)
        registry.merge(first.to_dict())
        registry.merge(second.to_dict())
        gauges = registry.to_dict()["gauges"]
        assert gauges["queue.depth"] == 1      # last writer
        assert gauges["groups_max"] == 6       # high-water mark

    def test_histograms_merge_bucket_wise_when_bounds_agree(self, registry):
        worker = MetricsRegistry()
        worker.histogram("xlate.seconds").observe(0.02)
        registry.histogram("xlate.seconds").observe(0.3)
        registry.merge(worker.to_dict())
        data = registry.to_dict()["histograms"]["xlate.seconds"]
        assert data["count"] == 2
        assert sum(data["bucket_counts"]) == 2
        assert data["min"] == 0.02 and data["max"] == 0.3

    def test_histogram_bound_mismatch_still_accumulates_summaries(self, registry):
        worker = MetricsRegistry()
        worker.histogram("odd", bounds=(1.0, 2.0)).observe(1.5)
        registry.histogram("odd").observe(0.5)
        registry.merge(worker.to_dict())
        data = registry.to_dict()["histograms"]["odd"]
        assert data["count"] == 2          # summary stats still merged
        assert sum(data["bucket_counts"]) == 1  # buckets could not be

    def test_reset_clears_everything(self, registry):
        registry.counter("a").inc()
        registry.gauge("b").set(1)
        registry.histogram("c").observe(1.0)
        registry.reset()
        assert registry.to_dict() == {"counters": {}, "gauges": {},
                                      "histograms": {}}


class TestDefaultRegistry:
    def test_module_helpers_hit_the_shared_registry(self):
        name = "test.obs.module_helper"
        before = metrics.snapshot()["counters"].get(name, 0)
        metrics.counter(name).inc(3)
        assert metrics.snapshot()["counters"][name] == before + 3


class TestTraceSwitch:
    def test_tracing_is_off_by_default_and_spans_yield_none(self):
        assert trace.enabled is False
        with trace.span("job", job_id="x") as record:
            assert record is None

    def test_env_flag_zero_or_empty_disables(self, monkeypatch):
        monkeypatch.setenv(trace.TRACE_ENV, "0")
        assert trace.configure_from_env() is False
        monkeypatch.delenv(trace.TRACE_ENV)
        assert trace.configure_from_env() is False
        assert trace.enabled is False

    def test_env_flag_enables_with_named_file(self, monkeypatch, tmp_path):
        path = str(tmp_path / "spans.jsonl")
        monkeypatch.setenv(trace.TRACE_ENV, "1")
        monkeypatch.setenv(trace.TRACE_FILE_ENV, path)
        try:
            assert trace.configure_from_env() is True
            assert trace.trace_path() == path
        finally:
            trace.configure(None)


class TestSpans:
    def test_span_is_appended_with_timing_and_attrs(self, traced):
        with trace.span("xlate", workload="gemm"):
            pass
        spans = trace.read_spans(traced)
        assert len(spans) == 1
        span = spans[0]
        assert span["name"] == "xlate"
        assert span["attrs"] == {"workload": "gemm"}
        assert span["parent_id"] is None
        assert span["pid"] == os.getpid()
        assert span["duration_s"] >= 0
        assert span["end_s"] >= span["start_s"]

    def test_nested_spans_link_to_their_parent(self, traced):
        with trace.span("job") as outer:
            with trace.span("simulate"):
                pass
        inner, job = trace.read_spans(traced)  # inner finishes first
        assert job["span_id"] == outer["span_id"]
        assert inner["parent_id"] == job["span_id"]
        assert job["parent_id"] is None

    def test_sibling_threads_do_not_nest_under_each_other(self, traced):
        ready = threading.Barrier(2)

        def worker():
            ready.wait()
            with trace.span("thread-span"):
                pass

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        spans = trace.read_spans(traced)
        assert len(spans) == 2
        assert all(span["parent_id"] is None for span in spans)

    def test_late_attributes_attach_through_the_yielded_record(self, traced):
        with trace.span("xlate") as record:
            record["attrs"]["instructions"] = 123
        assert trace.read_spans(traced)[0]["attrs"]["instructions"] == 123

    def test_read_spans_skips_torn_lines(self, traced):
        with trace.span("ok"):
            pass
        with open(traced, "a", encoding="utf-8") as handle:
            handle.write('{"name": "torn", "start')  # worker died mid-write
        spans = trace.read_spans(traced)
        assert [span["name"] for span in spans] == ["ok"]

    def test_span_after_a_torn_tail_is_kept(self, traced):
        with open(traced, "w", encoding="utf-8") as handle:
            handle.write('{"name":"job","span_id":"1-1"')  # died mid-span
        with trace.span("next") as record:
            pass
        # The torn tail is sealed off, so the new span is not joined to it.
        assert trace.read_spans(traced) == [record]

    def test_read_spans_of_a_missing_file_is_empty(self, tmp_path):
        assert trace.read_spans(str(tmp_path / "spans.jsonl")) == []

    def test_emit_failure_never_raises(self, tmp_path):
        trace.configure(str(tmp_path))  # a directory: open() will fail
        try:
            with trace.span("doomed"):
                pass  # must not raise despite the unwritable path
        finally:
            trace.configure(None)

    def test_span_ids_are_unique(self, traced):
        for _ in range(5):
            with trace.span("loop"):
                pass
        spans = trace.read_spans(traced)
        assert len({span["span_id"] for span in spans}) == 5


class TestInstrumentationSurface:
    """The instrumented modules actually record into the registry."""

    def test_cache_records_hits_misses_and_bytes(self, tmp_path):
        from repro.cache import ArtifactCache
        before = metrics.snapshot()["counters"]
        cache = ArtifactCache(str(tmp_path / "cache"))
        material = {"seed": 1}
        assert cache.get_json("program", material) is None       # miss
        cache.put_json("program", material, {"value": 42})       # write
        assert cache.get_json("program", material) == {"value": 42}  # hit
        after = metrics.snapshot()["counters"]

        def delta(name):
            return after.get(name, 0) - before.get(name, 0)

        assert delta("cache.program.misses") == 1
        assert delta("cache.program.hits") == 1
        assert delta("cache.program.writes") == 1
        assert delta("cache.program.hits_bytes") > 0
        assert delta("cache.program.writes_bytes") > 0

    def test_corrupt_cache_entry_counts_as_miss_and_corruption(self, tmp_path):
        from repro.cache import ArtifactCache, cache_key
        before = metrics.snapshot()["counters"]
        cache = ArtifactCache(str(tmp_path / "cache"))
        material = {"seed": 2}
        cache.put_json("program", material, {"value": 1})
        path = cache.path_for("program", cache_key(material))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"torn": ')
        assert cache.get_json("program", material) is None
        after = metrics.snapshot()["counters"]
        assert after.get("cache.program.corruptions", 0) \
            - before.get("cache.program.corruptions", 0) == 1

    def test_compiled_engine_counts_blocks(self):
        from repro.framework import SoftwareFramework
        from repro.sim.compiled import CompiledEngine
        program, _, _ = SoftwareFramework().compile_named_workload(
            "bubble_sort", {})
        before = metrics.snapshot()["counters"]
        CompiledEngine(program).run_with_stats()
        after = metrics.snapshot()["counters"]
        compiled = after.get("compiled.blocks_compiled", 0) \
            - before.get("compiled.blocks_compiled", 0)
        loaded = after.get("compiled.blocks_loaded", 0) \
            - before.get("compiled.blocks_loaded", 0)
        memo = after.get("compiled.blocks_memo", 0) \
            - before.get("compiled.blocks_memo", 0)
        assert compiled + loaded + memo > 0

    def test_batch_engine_records_group_dynamics(self):
        from repro.framework import SoftwareFramework
        from repro.sim.batch import BatchEngine
        from repro.testing import generate_data_variants
        program, _, _ = SoftwareFramework().compile_named_workload(
            "bubble_sort", {"length": 8})
        programs = generate_data_variants(program, 4, 0)
        before = metrics.snapshot()
        BatchEngine(programs).run_with_stats(include_results=False)
        after = metrics.snapshot()
        assert after["counters"].get("batch.full_group_steps", 0) > \
            before["counters"].get("batch.full_group_steps", 0)
        assert after["gauges"].get("batch.concurrent_groups_max") >= 1
