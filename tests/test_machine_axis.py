"""End-to-end machine axis: spec -> sweep -> loaded records -> report corners.

Exercises the machine config as a first-class sweep dimension the way a
design-space exploration would use it: expand a grid over several configs,
run it through the real sweep runner, load the run directory's records and
regenerate the corners table — then pin the CLI surface (``--machine`` /
``--machines``) and the job-identity guarantees the blessed baseline run
depends on.
"""

import json
import os
import shutil

import pytest

from repro.cli import build_parser, main
from repro.runner import SweepJob, SweepSpec, preset_spec, run_sweep
from repro.service.report import _ok_records, load_runs, machine_corners
from repro.framework import HardwareFramework
from repro.sim.machine import DEFAULT_MACHINE_NAME

BASELINE_DIR = os.path.join(os.path.dirname(__file__), "..", "benchmarks",
                            "baseline")


class TestJobIdentity:
    def test_default_machine_job_ids_match_the_blessed_baseline(self):
        """Adding the machine axis must not re-key pre-axis job identities.

        The pinned IDs come from ``benchmarks/baseline/results.jsonl``,
        which was produced before machine configs existed; the CI
        queue-regression job diffs against it by job_id.
        """
        pinned = {}
        with open(os.path.join(BASELINE_DIR, "results.jsonl"), "r",
                  encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                pinned[(record["workload"], record["engine"],
                        record["optimize"],
                        json.dumps(record["params"], sort_keys=True))] = \
                    record["job_id"]
        assert pinned
        for (workload, engine, optimize, params_json), job_id in pinned.items():
            job = SweepJob(workload=workload, engine=engine, optimize=optimize,
                           params=tuple(sorted(
                               json.loads(params_json).items())))
            assert job.job_id == job_id, job.label

    def test_non_default_machine_changes_the_job_id_and_label(self):
        default = SweepJob(workload="gemm", engine="fast", optimize=True)
        corner = SweepJob(workload="gemm", engine="fast", optimize=True,
                          machine="btfn4")
        assert default.job_id != corner.job_id
        assert "@btfn4" in corner.label and "@" not in default.label

    def test_job_round_trips_with_machine(self):
        job = SweepJob(workload="sobel", engine="compiled", optimize=False,
                       machine="slowfetch5")
        assert SweepJob.from_dict(job.to_dict()) == job
        # Pre-axis serialised jobs deserialise to the default machine.
        legacy = {"workload": "sobel", "engine": "fast", "optimize": True}
        assert SweepJob.from_dict(legacy).machine == DEFAULT_MACHINE_NAME


class TestSpecExpansion:
    def test_machines_multiply_art9_jobs_but_not_baselines(self):
        spec = SweepSpec(workloads=("dhrystone",),
                         engines=("fast", "picorv32"),
                         optimize=(True,),
                         machines=(DEFAULT_MACHINE_NAME, "btfn4", "ideal2"))
        jobs = spec.expand()
        fast_jobs = [job for job in jobs if job.engine == "fast"]
        baseline_jobs = [job for job in jobs if job.engine == "picorv32"]
        assert {job.machine for job in fast_jobs} == \
            {DEFAULT_MACHINE_NAME, "btfn4", "ideal2"}
        assert [job.machine for job in baseline_jobs] == [DEFAULT_MACHINE_NAME]

    def test_machines_preset_covers_three_engines_and_four_configs(self):
        spec = preset_spec("machines")
        jobs = spec.expand()
        assert {job.engine for job in jobs} == {"fast", "pipeline", "compiled"}
        assert len({job.machine for job in jobs}) == 4
        assert DEFAULT_MACHINE_NAME in {job.machine for job in jobs}

    def test_unknown_machine_is_a_spec_error(self):
        from repro.runner import SpecError

        spec = SweepSpec(workloads=("gemm",), machines=("warp9",))
        with pytest.raises(SpecError, match="warp9"):
            spec.validate()

    def test_spec_round_trips_machines(self):
        spec = preset_spec("machines")
        assert SweepSpec.from_dict(spec.to_dict()).machines == spec.machines


@pytest.fixture(scope="module")
def machine_sweep_run(tmp_path_factory):
    """One real sweep over 3 configs x 3 engines, plus its loaded records."""
    out = str(tmp_path_factory.mktemp("machine-sweep") / "run")
    spec = SweepSpec(workloads=("dhrystone",),
                     engines=("fast", "pipeline", "compiled"),
                     optimize=(True,),
                     machines=(DEFAULT_MACHINE_NAME, "btfn4", "slowfetch5"))
    outcome = run_sweep(spec, out, jobs=1)
    records, _ = load_runs([out])
    return outcome, records


class TestEndToEndSweep:
    def test_sweep_runs_every_corner_verified(self, machine_sweep_run):
        outcome, _ = machine_sweep_run
        assert outcome.ok
        assert len(outcome.records) == 9
        assert all(record["verified"] for record in outcome.records)
        assert {record["machine"] for record in outcome.records} == \
            {DEFAULT_MACHINE_NAME, "btfn4", "slowfetch5"}

    def test_engines_agree_within_each_config(self, machine_sweep_run):
        outcome, _ = machine_sweep_run
        by_machine = {}
        for record in outcome.records:
            by_machine.setdefault(record["machine"], set()).add(
                (record["cycles"], record["state_digest"]))
        for machine, results in by_machine.items():
            assert len(results) == 1, (
                f"engines disagree under {machine}: {results}")

    def test_configs_differ_from_each_other(self, machine_sweep_run):
        outcome, _ = machine_sweep_run
        cycles = {record["machine"]: record["cycles"]
                  for record in outcome.records}
        assert cycles["btfn4"] < cycles[DEFAULT_MACHINE_NAME] \
            < cycles["slowfetch5"]

    def test_machine_filter_selects_one_config(self, machine_sweep_run):
        _, records = machine_sweep_run
        corner = _ok_records(records, machine="btfn4")
        assert len(corner) == 3
        assert all(record["machine"] == "btfn4" for record in corner)
        default_only = _ok_records(records, machine=DEFAULT_MACHINE_NAME)
        assert len(default_only) == 3

    def test_report_corners_table_has_one_row_per_config(self, machine_sweep_run):
        _, records = machine_sweep_run
        table = machine_corners(records, HardwareFramework())
        assert table.headers[0] == "config"
        configs = [row[0] for row in table.rows]
        assert configs[0] == DEFAULT_MACHINE_NAME
        assert set(configs) == {DEFAULT_MACHINE_NAME, "btfn4", "slowfetch5"}
        # Deeper fetch latency costs DMIPS; the corners table shows it.
        assert table.metrics["slowfetch5_cntfet_dmips_per_mhz"] < \
            table.metrics[f"{DEFAULT_MACHINE_NAME}_cntfet_dmips_per_mhz"]


class TestCLISurface:
    def test_sweep_parser_accepts_machines(self):
        parser = build_parser()
        args = parser.parse_args(["sweep", "--machines", "btfn4", "ideal2"])
        assert args.machines == ["btfn4", "ideal2"]

    def test_fuzz_machine_flag_end_to_end(self, capsys):
        assert main(["fuzz", "--count", "5", "--seed", "9",
                     "--machine", "ideal2"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_run_machine_flag(self, tmp_path, capsys):
        source = tmp_path / "tiny.s"
        source.write_text("li a0, 5\nli a1, 7\nadd a0, a0, a1\necall\n")
        assert main(["run", str(source), "--machine", "ideal2"]) == 0
        out = capsys.readouterr().out
        assert "cycles" in out.lower()

    def test_sweep_cli_machine_axis_smoke(self, tmp_path, capsys):
        out_dir = str(tmp_path / "run")
        assert main(["sweep", "--workloads", "bubble_sort",
                     "--engines", "fast", "--optimize", "on",
                     "--machines", DEFAULT_MACHINE_NAME, "ideal2",
                     "--jobs", "1", "--out", out_dir]) == 0
        output = capsys.readouterr().out
        assert "@ideal2" in output
        with open(os.path.join(out_dir, "results.jsonl"),
                  encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle]
        assert {record["machine"] for record in records} == \
            {DEFAULT_MACHINE_NAME, "ideal2"}

    def test_report_reads_a_null_machine_as_the_default(self, tmp_path,
                                                        capsys):
        """A record's ``"machine": null`` means the paper machine in every
        table, the corners table included."""
        run_dir = tmp_path / "run"
        shutil.copytree(BASELINE_DIR, run_dir)
        results = run_dir / "results.jsonl"
        records = [json.loads(line)
                   for line in results.read_text().splitlines()]
        results.write_text("".join(json.dumps(dict(record, machine=None)) + "\n"
                                   for record in records))
        main(["report", str(run_dir)])
        output = capsys.readouterr().out
        corners = output[output.index("## Design-space corners"):
                         output.index("## Per-phase timing")]
        rows = [line for line in corners.splitlines()
                if line.startswith("| ") and "---" not in line][1:]
        assert rows == [f"| {DEFAULT_MACHINE_NAME} | 10380 | 1.229 | 2.742 "
                        "| 846.2 | 411.2 |"]
