"""Acceptance tests: distributed execution + report generation end to end.

A sweep served by a coordinator to >= 2 dialled ``art9 work`` clients
produces a result set byte-identical (modulo record order and the volatile
wall-clock/PID fields) to the same spec run serially, and ``art9 report``
regenerates the Table II–V / Fig. 5 numbers from it matching the hweval
headline tests (gates=631, fmax~308.6 MHz, CNTFET ~846 DMIPS, FPGA 801
ALMs / ~411 DMIPS, Fig. 5 dhrystone ratio ~0.70).
"""

import os

import pytest

from dialled_workers import DialledWorkers
from repro.cli import main
from repro.runner import (
    RunStore,
    StoreError,
    SweepSpec,
    canonical_record,
    compare_runs,
    preset_spec,
    run_sweep,
)
from repro.service import (
    ReportError,
    build_report,
    render_report,
)
from repro.service.report import _ok_records, load_runs, phase_summary
from repro.sim.machine import DEFAULT_MACHINE_NAME

REL = 0.02  # same tolerance as tests/test_hweval_headline.py


@pytest.fixture(scope="module")
def paper_runs(tmp_path_factory):
    """The paper-preset grid run serially and via the distributed queue."""
    root = tmp_path_factory.mktemp("paper")
    serial_dir, queue_dir = str(root / "serial"), str(root / "queue")
    spec = preset_spec("paper")
    serial = run_sweep(spec, serial_dir, jobs=1)
    with DialledWorkers() as fleet:
        queued = run_sweep(spec, queue_dir, execute=fleet.execute)
    assert fleet.exit_codes == [0, 0], fleet.outputs
    return serial_dir, serial, queue_dir, queued, fleet.stats


@pytest.fixture(scope="module")
def report_tables(paper_runs):
    _, _, queue_dir, _, _ = paper_runs
    records, _ = load_runs([queue_dir])
    return {table.key: table for table in build_report(records)}


class TestDistributedAcceptance:
    def test_both_runs_complete_and_verify(self, paper_runs):
        _, serial, _, queued, _ = paper_runs
        assert serial.ok and queued.ok
        assert serial.executed == queued.executed == 24

    def test_queue_run_used_at_least_two_workers(self, paper_runs):
        *_, stats = paper_runs
        assert stats is not None
        assert stats.workers_seen >= 2
        assert stats.lost_jobs == 0

    def test_result_sets_byte_identical_modulo_order(self, paper_runs):
        _, serial, _, queued, _ = paper_runs
        serial_set = sorted(canonical_record(r) for r in serial.records)
        queue_set = sorted(canonical_record(r) for r in queued.records)
        assert serial_set == queue_set

    def test_compare_runs_agrees(self, paper_runs):
        serial_dir, _, queue_dir, _, _ = paper_runs
        report = compare_runs(serial_dir, queue_dir)
        assert report.ok, report.summary()
        assert report.jobs_compared == 24


class TestReportHeadlines:
    def test_all_tables_built(self, report_tables):
        assert set(report_tables) == {"table2", "table3", "table4", "table5",
                                      "fig5", "machines", "timings"}
        assert all(table.ok for table in report_tables.values())

    def test_timings_table_accounts_for_every_job(self, report_tables):
        table = report_tables["timings"]
        # Every record the workers wrote carries phase timings, so the
        # "timed" column equals the job count row by row.
        assert table.rows
        for row in table.rows:
            assert row[1] == row[2], row
        assert table.metrics["total_execute_s"] > 0
        # The paper preset reuses each workload across engines, so the
        # translation cache must have hit at least once.
        assert 0 < table.metrics["cache_hit_rate"] <= 1

    def test_table2_dhrystone_ordering_and_density(self, report_tables):
        metrics = report_tables["table2"].metrics
        # Paper ordering: VexRiscv fastest per MHz, ART-9 middle, PicoRV32 last.
        assert metrics["vexriscv_dmips_per_mhz"] > metrics["art9_dmips_per_mhz"] \
            > metrics["picorv32_dmips_per_mhz"]
        assert metrics["art9_dmips_per_mhz"] == pytest.approx(2.742, rel=REL)
        assert metrics["art9_cycles"] == 10380
        assert metrics["art9_cpi"] == pytest.approx(1.229, rel=REL)

    def test_table3_art9_beats_picorv32_where_the_paper_does(self, report_tables):
        metrics = report_tables["table3"].metrics
        for workload in ("bubble_sort", "sobel", "dhrystone"):
            assert metrics[f"{workload}_art9_cycles"] < \
                metrics[f"{workload}_picorv32_cycles"], workload

    def test_table4_matches_the_hweval_headlines(self, report_tables):
        metrics = report_tables["table4"].metrics
        assert metrics["total_gates"] == 631
        assert metrics["max_frequency_mhz"] == pytest.approx(308.6, rel=REL)
        assert metrics["dmips"] == pytest.approx(846.2, rel=REL)
        assert metrics["dmips_per_watt"] == pytest.approx(1.938e7, rel=REL)

    def test_table5_matches_the_hweval_headlines(self, report_tables):
        metrics = report_tables["table5"].metrics
        assert metrics["alms"] == 801
        assert metrics["registers"] == 360
        assert metrics["ram_bits"] == 9216
        assert metrics["dmips"] == pytest.approx(411.2, rel=REL)
        assert metrics["dmips_per_watt"] == pytest.approx(379.3, rel=REL)

    def test_fig5_dhrystone_ratio(self, report_tables):
        metrics = report_tables["fig5"].metrics
        assert metrics["dhrystone_ratio"] == pytest.approx(0.697, rel=REL)
        assert metrics["dhrystone_armv6m_bits"] > 0


class TestReportRendering:
    def test_markdown_document(self, report_tables):
        document = render_report(list(report_tables.values()))
        assert "# ART-9 evaluation report" in document
        assert "## Table II" in document and "## Fig. 5" in document
        assert "| ART-9 (this work) |" in document

    def test_csv_document(self, report_tables):
        document = render_report(list(report_tables.values()), fmt="csv")
        assert "# Table IV" in document
        assert "total ternary gates,631" in document

    def test_unknown_format_raises(self, report_tables):
        with pytest.raises(ValueError):
            render_report(list(report_tables.values()), fmt="xml")


class TestPartialDatabase:
    def test_empty_db_renders_notes_not_crashes(self):
        tables = build_report([])
        assert not any(table.ok for table in tables)
        assert all(table.notes for table in tables)

    def test_strict_mode_raises(self):
        with pytest.raises(ReportError):
            build_report([], strict=True)

    def test_stale_records_without_iterations_are_an_error(self, tmp_path):
        """Pre-report-era records must fail loudly, not yield DMIPS numbers
        that are silently wrong by the iteration factor."""
        run_dir = str(tmp_path / "stale")
        store = RunStore(run_dir)
        store.initialize(SweepSpec(workloads=("dhrystone",),
                                   engines=("fast",), optimize=(True,)))
        record = {"job_id": "feedfacefeed", "label": "dhrystone/fast/opt",
                  "workload": "dhrystone", "engine": "fast", "optimize": True,
                  "params": {}, "status": "ok", "verified": True,
                  "cycles": 10380, "cpi": 1.229, "memory_cells": 1917,
                  "memory_cell_ratio": 0.6966}  # no "iterations" field
        store.append(record)
        records, _ = load_runs([run_dir])
        tables = {table.key: table for table in build_report(records)}
        # Table IV depends only on the dhrystone ART-9 record, so its
        # failure note names the stale field rather than a missing baseline.
        assert not tables["table4"].ok
        assert any("predates" in note for note in tables["table4"].notes)
        assert not tables["table2"].ok

    def test_art9_only_db_still_builds_the_hw_tables(self, tmp_path):
        run_dir = str(tmp_path / "art9-only")
        run_sweep(SweepSpec(workloads=("dhrystone",), engines=("fast",),
                            optimize=(True,)), run_dir, jobs=1)
        records, _ = load_runs([run_dir])
        tables = {table.key: table for table in build_report(records)}
        # No baseline records: Table II is impossible...
        assert not tables["table2"].ok
        # ...but the implementation tables and Fig. 5 (via the embedded
        # trits/bits ratio) still come out.
        assert tables["table4"].ok
        assert tables["table5"].ok
        assert tables["fig5"].ok
        assert tables["fig5"].metrics["dhrystone_ratio"] == \
            pytest.approx(0.697, rel=REL)


SMALL_SPEC = SweepSpec(workloads=("bubble_sort",), engines=("fast",),
                       optimize=(True, False),
                       params={"bubble_sort": [{"length": 8}]})


@pytest.fixture()
def two_identical_runs(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    run_sweep(SMALL_SPEC, a, jobs=1)
    run_sweep(SMALL_SPEC, b, jobs=1)
    return a, b


class TestLoadRuns:
    def test_identical_content_counts_as_duplicates(self, two_identical_runs):
        a, b = two_identical_runs
        records, lines = load_runs([a, b])
        # Same code, same spec: every record of run B duplicates run A's
        # content even though wall-clock and PIDs differ.
        assert lines == [
            f"ingested {os.path.abspath(a)}: 2 records "
            "(0 duplicating earlier runs)",
            f"ingested {os.path.abspath(b)}: 2 records "
            "(2 duplicating earlier runs)"]
        assert len(records) == 2

    def test_reingest_replaces_not_duplicates(self, two_identical_runs):
        a, _ = two_identical_runs
        records, lines = load_runs([a, a])
        assert lines[1] == (f"re-ingested {os.path.abspath(a)}: 2 records "
                            "(0 duplicating earlier runs)")
        assert len(records) == 2

    def test_a_run_given_again_becomes_the_newest(self, two_identical_runs):
        a, b = two_identical_runs
        # Tamper run B so the runs disagree; A, given again, supplies them.
        store = RunStore(b)
        record = store.records()[0]
        record["cycles"] += 7
        store.append(record)
        records, _ = load_runs([a, b, a])
        assert records == RunStore(a).records()

    def test_non_run_directory_is_an_error(self, tmp_path):
        with pytest.raises(StoreError):
            load_runs([str(tmp_path / "not-a-run")])

    def test_null_machine_normalizes_to_the_default(self, tmp_path):
        # Records written before the machine axis existed either omit the
        # key or carry an explicit null; both mean the paper machine, and
        # neither may select as the literal string "None".
        store = RunStore(str(tmp_path / "run"))
        store.initialize(SweepSpec(workloads=("bubble_sort",)))
        store.append({"job_id": "aaa", "workload": "bubble_sort",
                      "engine": "fast", "status": "ok", "verified": True,
                      "machine": None})
        store.append({"job_id": "bbb", "workload": "bubble_sort",
                      "engine": "fast", "status": "ok", "verified": True})
        records, _ = load_runs([str(tmp_path / "run")])
        assert len(_ok_records(records, machine=DEFAULT_MACHINE_NAME)) == 2
        assert _ok_records(records, machine="None") == []

    def test_newest_run_wins(self, two_identical_runs):
        a, b = two_identical_runs
        # Tamper run B so the runs disagree, then check the newest wins.
        store = RunStore(b)
        record = store.records()[0]
        record["cycles"] += 7
        store.append(record)
        newest_b, _ = load_runs([a, b])
        assert len(newest_b) == 2
        by_job = {r["job_id"]: r for r in newest_b}
        assert by_job[record["job_id"]]["cycles"] == record["cycles"]
        newest_a, _ = load_runs([b, a])
        by_job = {r["job_id"]: r for r in newest_a}
        assert by_job[record["job_id"]]["cycles"] == record["cycles"] - 7


class TestOkRecords:
    def test_axis_filters(self, two_identical_runs):
        a, _ = two_identical_runs
        records, _ = load_runs([a])
        assert len(_ok_records(records, workload="bubble_sort")) == 2
        assert _ok_records(records, workload="gemm") == []
        assert len(_ok_records(records, optimize=True)) == 1
        assert len(_ok_records(records, optimize=False)) == 1
        assert len(_ok_records(records, engine="fast",
                               params={"length": 8})) == 2
        assert _ok_records(records, params={}) == []  # no default-size jobs

    def test_only_verified_ok_records_in_report_order(self, two_identical_runs):
        a, _ = two_identical_runs
        records, _ = load_runs([a])
        # Optimised before unoptimised, whatever the load order.
        for order in (records, records[::-1]):
            assert [r["optimize"] for r in _ok_records(order)] == [True, False]
        failed = dict(records[0], status="error")
        unverified = dict(records[1], verified=False)
        assert _ok_records([failed, unverified]) == []


class TestPhaseSummary:
    def test_timing_columns_aggregate(self, two_identical_runs):
        a, _ = two_identical_runs
        records, _ = load_runs([a])
        rows = {row["engine"]: row for row in phase_summary(records)}
        fast = rows["fast"]
        assert fast["jobs"] == fast["timed_jobs"] == 2
        assert fast["execute_s"] > 0
        assert fast["xlate_s"] >= 0 and fast["codegen_s"] >= 0
        # Two optimize variants of one workload: the second translation
        # at least hits the in-process memo.
        assert fast["cache_known"] == 2
        assert 0 <= fast["cache_hits"] <= 2

    def test_records_without_timings_count_but_contribute_nothing(self):
        records = [{"job_id": "aaa", "workload": "bubble_sort",
                    "engine": "fast", "status": "ok"}]  # pre-instrumentation
        assert phase_summary(records) == [
            {"engine": "fast", "jobs": 1, "timed_jobs": 0, "xlate_s": 0.0,
             "codegen_s": 0.0, "execute_s": 0.0, "cache_known": 0,
             "cache_hits": 0}]

    def test_superseded_runs_are_not_counted(self, two_identical_runs):
        a, b = two_identical_runs
        records, _ = load_runs([a, b])
        rows = {row["engine"]: row for row in phase_summary(records)}
        assert rows["fast"]["jobs"] == 2


class TestReportCLI:
    def test_report_from_run_directory(self, paper_runs, capsys):
        _, _, queue_dir, _, _ = paper_runs
        assert main(["report", queue_dir]) == 0
        captured = capsys.readouterr()
        assert "Table II" in captured.out
        assert "ingested" in captured.err

    def test_report_csv_to_file(self, paper_runs, tmp_path, capsys):
        _, _, queue_dir, _, _ = paper_runs
        out = str(tmp_path / "report.csv")
        assert main(["report", queue_dir, "--format", "csv",
                     "--out", out]) == 0
        with open(out, "r", encoding="utf-8") as handle:
            assert "total ternary gates,631" in handle.read()

    def test_run_given_twice_reports_the_same_tables(self, paper_runs, capsys):
        _, _, queue_dir, _, _ = paper_runs
        assert main(["report", queue_dir]) == 0
        once = capsys.readouterr()
        assert main(["report", queue_dir, queue_dir]) == 0
        twice = capsys.readouterr()
        assert twice.out == once.out
        assert twice.err.splitlines() == [
            once.err.rstrip("\n"),
            once.err.rstrip("\n").replace("ingested", "re-ingested", 1)]

    def test_one_ingested_line_per_run_directory(self, paper_runs, capsys):
        serial_dir, serial, queue_dir, _, _ = paper_runs
        assert main(["report", serial_dir, queue_dir]) == 0
        count = len(serial.records)
        # Both runs hold the same content, so the second duplicates all of it.
        assert capsys.readouterr().err.splitlines() == [
            f"ingested {os.path.abspath(serial_dir)}: {count} records "
            "(0 duplicating earlier runs)",
            f"ingested {os.path.abspath(queue_dir)}: {count} records "
            f"({count} duplicating earlier runs)"]

    def test_report_without_runs_fails_cleanly(self, capsys):
        assert main(["report"]) == 2
        assert "no runs ingested" in capsys.readouterr().err

    def test_report_on_a_path_that_is_not_a_run_fails_cleanly(self, tmp_path,
                                                               capsys):
        plain_file = tmp_path / "results.sqlite"
        plain_file.write_bytes(b"SQLite format 3\x00")
        for path in (str(tmp_path / "gone"), str(plain_file)):
            assert main(["report", path]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("art9 report: ")
            assert captured.err.count("\n") == 1
            assert "is not a sweep run directory" in captured.err

    def test_db_option_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["report", "--db", str(tmp_path / "runs.json")])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --db" in capsys.readouterr().err

    def test_report_on_corrupt_spec_fails_cleanly(self, tmp_path, capsys):
        run_dir = tmp_path / "corrupt"
        run_dir.mkdir()
        (run_dir / "spec.json").write_text('{"workloads": [')  # torn write
        assert main(["report", str(run_dir)]) == 2
        assert "art9 report:" in capsys.readouterr().err

    def test_report_on_partial_run_exits_nonzero(self, tmp_path, capsys):
        run_dir = str(tmp_path / "partial")
        run_sweep(SweepSpec(workloads=("bubble_sort",), engines=("fast",),
                            optimize=(True,)), run_dir, jobs=1)
        assert main(["report", run_dir]) == 1  # tables missing -> exit 1
        assert "no verified record" in capsys.readouterr().out


class TestServeWorkCLI:
    def test_serve_runs_the_grid_for_a_dialled_worker(self, tmp_path,
                                                       capsys):
        out = str(tmp_path / "served")
        with DialledWorkers(count=1) as fleet:
            assert main(["serve", "--workloads", "bubble_sort",
                         "--engines", "fast", "--optimize", "on",
                         "--params", '{"bubble_sort": [{"length": 8}]}',
                         "--host", "127.0.0.1", "--port", str(fleet.port),
                         "--out", out]) == 0
        assert fleet.exit_codes == [0], fleet.outputs
        assert "1 jobs completed" in fleet.outputs[0]
        captured = capsys.readouterr()
        assert "coordinator listening" in captured.out
        assert "art9 work --connect" in captured.out
        assert RunStore(out).records()[0]["verified"]

    @pytest.mark.parametrize("argv", [
        ["serve", "--local-workers", "2"],
        ["serve", "--job-timeout", "5"],
        ["serve", "--trace"],
        ["work", "--heartbeat-interval", "0.5", "--connect", "127.0.0.1:1"],
    ], ids=lambda argv: argv[1])
    def test_local_worker_options_are_gone(self, argv, capsys):
        """Each configured only the workers serve used to spawn, or (the
        heartbeat interval) duplicated the cadence each job message names."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err

    def test_work_rejects_malformed_address(self, capsys):
        assert main(["work", "--connect", "nonsense"]) == 2
        assert "HOST:PORT" in capsys.readouterr().err

    def test_work_reports_unreachable_coordinator(self, capsys):
        assert main(["work", "--connect", "127.0.0.1:1",
                     "--retry-seconds", "0"]) == 2
        assert "cannot reach coordinator" in capsys.readouterr().err
