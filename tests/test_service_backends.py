"""Backend conformance suite plus baseline-engine and preset coverage.

The central invariant of the execution-backend abstraction: the *same*
spec produces the *same* result set on every backend — serial, the
multiprocessing pool, and a served run (the ``art9 serve`` coordinator plus
two dialled ``art9 work`` clients) — modulo the volatile wall-clock/PID
fields.  Everything the regression gates compare (cycles,
CPI, stats counters, state digests, verification) must be byte-identical.
"""

import threading

import pytest

from dialled_workers import DialledWorkers
from repro.cli import main
from repro.runner import (
    ALL_ENGINES,
    BASELINE_ENGINES,
    RunStore,
    SpecError,
    SweepJob,
    SweepSpec,
    canonical_record,
    compare_runs,
    execute_job,
    preset_spec,
    run_sweep,
)
from repro.service import (
    AsyncQueueBackend,
    MultiprocessingBackend,
    SerialBackend,
)
from repro.service.workerclient import work

#: A cheap cross-ISA grid: one workload, ART-9 fast engine plus all three
#: baseline cores = 4 jobs.
CONFORMANCE_SPEC = SweepSpec(
    workloads=("bubble_sort",),
    engines=("fast", "picorv32", "vexriscv", "armv6m"),
    optimize=(True,),
    params={"bubble_sort": [{"length": 8}]},
)


def _canonical_set(records):
    return sorted(canonical_record(record) for record in records)


class TestBackendConformance:
    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        """The same spec executed once per backend."""
        root = tmp_path_factory.mktemp("conformance")
        outcomes = {}

        def run(name, backend):
            out = str(root / name)
            outcomes[name] = (out, run_sweep(CONFORMANCE_SPEC, out,
                                             backend=backend), backend)

        run("serial", SerialBackend())
        run("pool", MultiprocessingBackend(processes=2))
        with DialledWorkers() as fleet:
            run("queue", fleet.backend())
        assert fleet.exit_codes == [0, 0], fleet.outputs
        return outcomes

    def test_every_backend_completes_the_grid(self, runs):
        for name, (_, outcome, _) in runs.items():
            assert outcome.ok, f"{name} backend failed: {outcome.summary()}"
            assert outcome.executed == 4

    def test_result_sets_are_identical_across_backends(self, runs):
        reference = _canonical_set(runs["serial"][1].records)
        for name, (_, outcome, _) in runs.items():
            assert _canonical_set(outcome.records) == reference, \
                f"{name} backend diverged from serial"

    def test_compare_runs_reports_zero_diffs(self, runs):
        serial_dir = runs["serial"][0]
        for name, (out, _, _) in runs.items():
            report = compare_runs(serial_dir, out)
            assert report.ok, f"{name}: {report.summary()}"

    def test_queue_backend_used_two_workers(self, runs):
        _, _, backend = runs["queue"]
        assert backend.stats is not None
        assert backend.stats.workers_seen == 2
        assert backend.stats.results_accepted == 4
        assert backend.stats.lost_jobs == 0

    def test_resume_works_after_queue_run(self, runs):
        out, _, _ = runs["queue"]
        again = run_sweep(CONFORMANCE_SPEC, out, backend=SerialBackend())
        assert again.executed == 0
        assert again.skipped == 4


def _seed_jobs(workload, engine, seeds, params=(), **kwargs):
    return [SweepJob(workload, engine, True,
                     params=tuple(sorted({**dict(params), "seed": seed}.items())),
                     **kwargs)
            for seed in seeds]


class TestSeedAxisGrid:
    """A grid whose points differ only in ``seed`` runs one job per seed.

    Every backend executes each seed through ``execute_job`` on its own, so
    the records match across backends, each seed reaches the workload's
    input data, and the engines agree at every grid point.
    """

    SORTS = {engine: _seed_jobs("bubble_sort", engine, (1, 2, 3),
                                params={"length": 8})
             for engine in ("fast", "compiled")}
    GEMMS = {engine: _seed_jobs("gemm", engine, (0, 1), params={"n": 4},
                                machine="btfn4")
             for engine in ("fast", "compiled")}
    BROKEN = _seed_jobs("gemm", "fast", (0, 1), params={"n": 3})
    BASELINE = _seed_jobs("bubble_sort", "picorv32", (1, 2),
                          params={"length": 8})
    GRID = (SORTS["fast"] + SORTS["compiled"] + GEMMS["fast"]
            + GEMMS["compiled"] + BROKEN + BASELINE)

    @pytest.fixture(scope="class")
    def records(self):
        """The grid executed once per backend, keyed by job id."""
        collected = {}

        def run(name, backend):
            emitted = []
            backend.execute(self.GRID, emitted.append)
            collected[name] = {record["job_id"]: record for record in emitted}

        run("serial", SerialBackend())
        run("pool", MultiprocessingBackend(processes=2))
        with DialledWorkers() as fleet:
            run("queue", fleet.backend())
        assert fleet.exit_codes == [0, 0], fleet.outputs
        return collected

    def test_every_backend_runs_each_seed_as_its_own_job(self, records):
        job_ids = {job.job_id for job in self.GRID}
        assert len(job_ids) == len(self.GRID)
        for name, by_id in records.items():
            assert set(by_id) == job_ids, name

    def test_records_are_identical_across_backends(self, records):
        reference = _canonical_set(records["serial"].values())
        for name, by_id in records.items():
            assert _canonical_set(by_id.values()) == reference, \
                f"{name} backend diverged from serial"

    def test_the_seed_reaches_the_workload_data(self, records):
        sorts = [records["serial"][job.job_id] for job in self.SORTS["fast"]]
        assert all(record["status"] == "ok" and record["verified"]
                   for record in sorts)
        assert len({record["state_digest"] for record in sorts}) == 3

    def test_engines_agree_at_every_seed(self, records):
        by_id = records["serial"]
        for fast_job, compiled_job in zip(self.SORTS["fast"],
                                          self.SORTS["compiled"]):
            fast, compiled = by_id[fast_job.job_id], by_id[compiled_job.job_id]
            assert compiled["verified"] is True
            assert compiled["cycles"] == fast["cycles"]
            assert compiled["stats"] == fast["stats"]
            assert compiled["state_digest"] == fast["state_digest"]

    def test_compiled_engine_on_a_corner_machine(self, records):
        by_id = records["pool"]
        for fast_job, compiled_job in zip(self.GEMMS["fast"],
                                          self.GEMMS["compiled"]):
            fast, compiled = by_id[fast_job.job_id], by_id[compiled_job.job_id]
            assert compiled["machine"] == "btfn4"
            assert compiled["status"] == "ok" and compiled["verified"]
            assert compiled["cycles"] == fast["cycles"]
            assert compiled["state_digest"] == fast["state_digest"]

    def test_a_failing_build_gives_one_error_record_per_seed(self, records):
        for name, by_id in records.items():
            failed = [by_id[job.job_id] for job in self.BROKEN]
            assert [record["status"] for record in failed] == ["error"] * 2
            assert all("power of two" in record["error"] for record in failed)

    def test_baseline_engines_take_the_seed_axis(self, records):
        pico = [records["queue"][job.job_id] for job in self.BASELINE]
        assert all(record["status"] == "ok" and record["verified"]
                   for record in pico)
        assert pico[0]["cycles"] != pico[1]["cycles"]  # data-dependent sort


class TestBackendArguments:
    def test_multiprocessing_rejects_zero_processes(self):
        with pytest.raises(ValueError):
            MultiprocessingBackend(processes=0)

    def test_empty_job_list_is_a_no_op(self):
        for backend in (SerialBackend(), MultiprocessingBackend(2),
                        AsyncQueueBackend()):
            emitted = []
            backend.execute([], emitted.append)
            assert emitted == []

    def test_occupied_port_errors_instead_of_hanging(self):
        import socket
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        try:
            backend = AsyncQueueBackend(port=blocker.getsockname()[1])
            jobs = CONFORMANCE_SPEC.expand()[:1]
            with pytest.raises(OSError):
                backend.execute(jobs, lambda record: None)
        finally:
            blocker.close()

    def test_queue_backend_announces_the_port_its_workers_dial(self):
        """Port 0 binds a free port; ``on_started`` names it, and a worker
        that dials it runs the jobs."""
        announced, workers = [], []

        def start_worker(host, port):
            announced.append((host, port))
            worker = threading.Thread(target=work, args=(host, port),
                                      kwargs={"name": "dialler"})
            worker.start()
            workers.append(worker)

        backend = AsyncQueueBackend(on_started=start_worker)
        emitted = []
        backend.execute(CONFORMANCE_SPEC.expand()[:2], emitted.append)
        for worker in workers:
            worker.join(timeout=10)
        assert not any(worker.is_alive() for worker in workers)
        [(host, port)] = announced
        assert host == "127.0.0.1" and port > 0
        assert sorted(record["status"] for record in emitted) == ["ok", "ok"]
        assert backend.stats.workers_seen == 1

    def test_queue_backend_announces_nothing_when_the_bind_fails(self):
        import socket
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        announced = []
        try:
            backend = AsyncQueueBackend(
                port=blocker.getsockname()[1],
                on_started=lambda host, port: announced.append(port))
            with pytest.raises(OSError):
                backend.execute(CONFORMANCE_SPEC.expand()[:1],
                                lambda record: None)
        finally:
            blocker.close()
        assert announced == []


class TestBaselineEngineJobs:
    def test_engine_axis_includes_the_baseline_cores(self):
        assert set(BASELINE_ENGINES) == {"picorv32", "vexriscv", "armv6m"}
        assert set(BASELINE_ENGINES) < set(ALL_ENGINES)
        assert {"fast", "pipeline"} < set(ALL_ENGINES)

    def test_picorv32_record(self):
        record = execute_job(SweepJob("bubble_sort", "picorv32", True,
                                      params=(("length", 8),)))
        assert record["status"] == "ok"
        assert record["verified"] is True
        assert record["cycles"] > 0
        assert record["cpi"] > 1.0  # non-pipelined core
        assert record["memory_cells"] > 0  # RV-32I instruction bits
        assert record["iterations"] == 1

    def test_vexriscv_beats_picorv32_on_cycles(self):
        pico = execute_job(SweepJob("bubble_sort", "picorv32", True,
                                    params=(("length", 8),)))
        vex = execute_job(SweepJob("bubble_sort", "vexriscv", True,
                                   params=(("length", 8),)))
        assert vex["verified"] and pico["verified"]
        assert vex["cycles"] < pico["cycles"]
        # Both execute the same RV program, hence the same footprint.
        assert vex["memory_cells"] == pico["memory_cells"]

    def test_armv6m_is_a_code_size_point(self):
        record = execute_job(SweepJob("bubble_sort", "armv6m", True,
                                      params=(("length", 8),)))
        assert record["status"] == "ok"
        assert record["cycles"] == 0  # nothing executes
        assert record["verified"] is True
        assert record["thumb_instructions"] > 0
        assert record["memory_cells"] > 0  # estimated Thumb bits

    def test_cycle_budget_means_cycles_on_baseline_engines_too(self):
        record = execute_job(SweepJob("bubble_sort", "picorv32", True,
                                      params=(("length", 8),), max_cycles=50))
        assert record["status"] == "error"
        assert "cycle budget exhausted" in record["error"]

    def test_art9_records_carry_the_report_fields(self):
        record = execute_job(SweepJob("bubble_sort", "fast", True,
                                      params=(("length", 8),)))
        assert record["iterations"] == 1
        assert record["memory_cells"] > 0  # ternary trits
        assert 0 < record["memory_cell_ratio"] < 2

    def test_baseline_engines_collapse_the_optimize_axis(self):
        spec = SweepSpec(workloads=("bubble_sort",),
                         engines=("fast", "picorv32"),
                         optimize=(True, False),
                         params={"bubble_sort": [{"length": 8}]})
        jobs = spec.expand()
        # fast runs once per optimize setting; the baseline ignores the
        # translator entirely and runs exactly once.
        assert len(jobs) == 3
        baseline_jobs = [job for job in jobs if job.engine == "picorv32"]
        assert len(baseline_jobs) == 1
        assert baseline_jobs[0].optimize is True

    def test_baseline_engines_flow_through_a_sweep(self, tmp_path):
        spec = SweepSpec(workloads=("bubble_sort",),
                         engines=("picorv32", "armv6m"), optimize=(True,),
                         params={"bubble_sort": [{"length": 8}]})
        outcome = run_sweep(spec, str(tmp_path / "run"))
        assert outcome.ok
        engines = {record["engine"] for record in outcome.records}
        assert engines == {"picorv32", "armv6m"}


class TestPresets:
    def test_default_preset_grows_the_grid(self):
        spec = preset_spec("default")
        jobs = spec.expand()
        # 7 workload variants x 3 engines x 2 optimize settings.
        assert len(jobs) == 42
        labels = {job.label for job in jobs}
        assert "gemm[n=8]/fast/opt" in labels
        assert "sobel[size=16]/fast/opt" in labels
        assert "dhrystone[iterations=500]/fast/opt" in labels

    def test_paper_preset_covers_all_engines(self):
        spec = preset_spec("paper")
        jobs = spec.expand()
        # 4 workloads x 6 engines (3 ART-9 + 3 baseline cores) x optimize-on.
        assert len(jobs) == 24
        assert {job.engine for job in jobs} == set(ALL_ENGINES)
        assert all(job.optimize for job in jobs)

    def test_smoke_preset_matches_the_ci_grid(self):
        # 2 workloads x 3 ART-9 engines x 2 optimize settings.
        assert len(preset_spec("smoke").expand()) == 12

    def test_unknown_preset_is_an_error(self):
        with pytest.raises(SpecError):
            preset_spec("warp")

    def test_grown_variants_execute_and_verify(self):
        """The satellite sizes really run: gemm n=8 / sobel size=16 /
        dhrystone iterations=500 on the fast engine, results verified."""
        for workload, params in (("gemm", (("n", 8),)),
                                 ("sobel", (("size", 16),)),
                                 ("dhrystone", (("iterations", 500),))):
            record = execute_job(SweepJob(workload, "fast", True, params=params))
            assert record["status"] == "ok", record.get("error")
            assert record["verified"] is True, workload


class TestSweepCLIBackends:
    BASE = ["sweep", "--workloads", "bubble_sort", "--engines", "fast",
            "--optimize", "on", "--params", '{"bubble_sort": [{"length": 8}]}']

    def test_backend_serial_flag(self, tmp_path, capsys):
        out = str(tmp_path / "serial")
        assert main(self.BASE + ["--backend", "serial", "--out", out]) == 0
        assert len(RunStore(out).records()) == 1

    def test_backend_multiprocessing_jobs_zero_runs_inline(self, tmp_path, capsys):
        out = str(tmp_path / "mp0")
        assert main(self.BASE + ["--backend", "multiprocessing",
                                 "--jobs", "0", "--out", out]) == 0
        assert len(RunStore(out).records()) == 1

    def test_backend_queue_is_gone(self, tmp_path, capsys):
        """A local parallel sweep is the pool; the service is art9 serve."""
        with pytest.raises(SystemExit) as excinfo:
            main(self.BASE + ["--backend", "queue", "--jobs", "2",
                              "--out", str(tmp_path / "queue")])
        assert excinfo.value.code == 2
        assert "invalid choice: 'queue'" in capsys.readouterr().err

    def test_seed_axis_grid_compares_clean_across_backends(self, tmp_path,
                                                           capsys):
        grid = ["sweep", "--workloads", "bubble_sort", "--engines", "fast",
                "compiled", "--optimize", "on", "--params",
                '{"bubble_sort": [{"seed": 1}, {"seed": 2}, {"seed": 3}]}']
        serial, pool = str(tmp_path / "serial"), str(tmp_path / "pool")
        assert main(grid + ["--backend", "serial", "--out", serial]) == 0
        assert main(grid + ["--jobs", "2", "--out", pool]) == 0
        capsys.readouterr()
        assert main(["sweep", "--compare", serial, pool]) == 0
        assert "6 jobs compared, 0 diffs" in capsys.readouterr().out

    def test_preset_flag_lists_grown_grid(self, capsys):
        assert main(["sweep", "--preset", "default", "--list"]) == 0
        out = capsys.readouterr().out
        assert "gemm[n=8]" in out and "dhrystone[iterations=500]" in out

    def test_preset_conflicting_with_grid_flags_is_refused(self, capsys):
        assert main(["sweep", "--preset", "paper", "--workloads", "gemm",
                     "--list"]) == 2
        assert "replaces the grid flags" in capsys.readouterr().err
        assert main(["sweep", "--preset", "paper", "--max-cycles", "1000",
                     "--list"]) == 2
        assert "replaces the grid flags" in capsys.readouterr().err
        assert main(["sweep", "--preset", "paper", "--optimize", "on",
                     "--list"]) == 2
        capsys.readouterr()

    def test_spec_conflicting_with_preset_is_refused(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text('{"workloads": ["gemm"]}')
        assert main(["sweep", "--spec", str(spec_path), "--preset", "paper",
                     "--list"]) == 2
        assert "drop one side" in capsys.readouterr().err

    def test_baseline_engines_accepted_on_the_cli(self, tmp_path, capsys):
        out = str(tmp_path / "baseline")
        assert main(["sweep", "--workloads", "bubble_sort",
                     "--engines", "vexriscv", "--optimize", "on",
                     "--params", '{"bubble_sort": [{"length": 8}]}',
                     "--jobs", "1", "--out", out]) == 0
        assert RunStore(out).records()[0]["engine"] == "vexriscv"
