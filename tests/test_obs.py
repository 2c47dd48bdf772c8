"""Unit tests for the span tracer (:mod:`repro.obs.trace`).

Off-by-default, environment-driven enablement, span nesting/parent ids,
torn-line tolerance of the JSONL reader.
"""

import os
import threading

import pytest

from repro.obs import trace


@pytest.fixture
def traced(tmp_path):
    """Enable tracing into a temp file for one test, then restore."""
    path = str(tmp_path / "spans.jsonl")
    trace.configure(path)
    yield path
    trace.configure(None)


class TestPackageSurface:
    def test_the_package_is_the_tracer_alone(self):
        import importlib.util

        import repro.obs

        assert sorted(repro.obs.__all__) == sorted([
            "trace", "TRACE_ENV", "TRACE_FILE_ENV", "configure_from_env",
            "read_spans", "span"])
        assert importlib.util.find_spec("repro.obs.metrics") is None


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
            with trace.span("probe"):
                pass
            assert [span["name"] for span in trace.read_spans(path)] == \
                ["probe"]
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
