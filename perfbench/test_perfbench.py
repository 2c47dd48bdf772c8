"""Self-tests of the layered benchmark (metric names, correctness gate,
wall-clock reconciliation).  Run with ``pytest perfbench``."""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import bench_layers  # noqa: E402
import bench_workloads  # noqa: E402
import run  # noqa: E402


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _rep(wall, layers=None):
    return bench_workloads.Rep(wall_s=wall, setup_s=0.4, cpu_s=wall * 0.9,
                               peak_rss_mb=48.0, ops=42, failed=0,
                               completed=42, layers=layers)


@pytest.mark.parametrize("traced", [False, True])
def test_every_named_metric_is_printed_with_its_unit(traced):
    declared = _benchmark_json()["end_to_end" if not traced else "per_layer"]
    layers = {name: 1.0 for name, _, _ in bench_layers.PER_LAYER}
    timed = [_rep(7.0), _rep(7.5), _rep(8.0)]
    traced_rep = _rep(9.0, layers) if traced else None
    result = run.result_line(timed, timed, traced_rep)
    line = json.loads(json.dumps(result))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert {name: entry["unit"] for name, entry in line["metrics"].items()} \
        == {metric["name"]: metric["unit"] for metric in declared}
    table = bench_layers.PER_LAYER if traced else run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in declared] \
        == list(table)
    if traced:
        assert line["metrics"]["trace.overhead_s"]["value"] == \
            pytest.approx(1.5)
    else:
        assert line["metrics"]["wall_s"]["value"] == 7.5


def _reference_records():
    """One ok record per engine and grid point of the default-seed grid."""
    path = os.path.join(HERE, "reference", "default-preset.json")
    with open(path, encoding="utf-8") as handle:
        reference = json.load(handle)
    records = []
    for key, want in reference.items():
        head, machine = key.rsplit("@", 1)
        workload_params, opt = head.rsplit("/", 1)
        workload, params = workload_params.split("[", 1)
        params = dict(item.split("=") for item in params[:-1].split(",")
                      if item)
        params = {k: int(v) for k, v in params.items()}
        cpi = want["cycles"] / want["stats"]["instructions_committed"]
        for engine in ("fast", "pipeline", "compiled"):
            records.append({
                "job_id": f"{key}/{engine}", "label": f"{key}/{engine}",
                "workload": workload, "params": params, "engine": engine,
                "optimize": opt == "opt", "machine": machine,
                "status": "ok", "verified": True, "cpi": round(cpi, 6),
                "cycles": want["cycles"], "stats": want["stats"],
                "state_digest": want["state_digest"]})
    return records, reference


def test_injected_wrong_record_raises_ops_failed():
    records, reference = _reference_records()
    assert bench_workloads.check_sweep(records, len(records), reference)[0] \
        == 0

    def failed_with(mutate):
        broken = [dict(record) for record in records]
        mutate(broken)
        return bench_workloads.check_sweep(broken, len(records),
                                           reference)[0]

    def wrong_cycles(broken):
        broken[3]["cycles"] += 1

    def wrong_digest_at_every_engine(broken):
        for record in broken[:3]:
            record["state_digest"] = "0" * 64

    def not_verified(broken):
        broken[0]["verified"] = False

    def errored(broken):
        broken[0].update(status="error", error="boom")

    def dropped(broken):
        del broken[-1]

    def dhrystone_drift(broken):
        for record in broken:
            if record["workload"] == "dhrystone" and not record["params"]:
                record["cpi"] = 1.3

    assert failed_with(wrong_cycles) == 1
    assert failed_with(wrong_digest_at_every_engine) == 3
    assert failed_with(not_verified) == 1
    assert failed_with(errored) == 1
    assert failed_with(dropped) == 1
    assert failed_with(dhrystone_drift) == 3
    # Without the stored reference (any seed but the default) engine
    # disagreement alone still fails the odd record out.
    broken = [dict(record) for record in records]
    broken[3]["stats"] = dict(broken[3]["stats"], ex_forwards=-1)
    assert bench_workloads.check_sweep(broken, len(records))[0] == 1


def test_attribution_partitions_the_wall_clock():
    t0, t1 = 0.0, 10.0
    intervals = [
        (0.0, 0.5, 1, 0, "interp.start"),
        (0.5, 9.5, 0, 0, "cli.main"),
        (1.0, 4.0, 2, 0, "runner.worker.job"),
        (1.5, 3.0, 2, 1, "sim.fast.execute"),
        (2.0, 4.0, 1, 1, "os.fsync"),       # under a job: the job wins
        (4.0, 6.0, 0, 1, "service.dispatch"),
        (4.5, 5.5, 1, 1, "service.journal.append"),
        (5.0, 5.2, 1, 2, "os.fsync"),
    ]
    totals = bench_layers.attribute(intervals, t0, t1)
    assert sum(totals.values()) == pytest.approx(t1 - t0)
    assert totals["sim.fast.execute"] == pytest.approx(1.5)
    assert totals["runner.worker.job"] == pytest.approx(1.5)
    assert totals["os.fsync"] == pytest.approx(0.2)
    assert totals["service.journal.append"] == pytest.approx(0.8)
    assert totals["service.dispatch"] == pytest.approx(1.0)
    assert totals["cli.main"] == pytest.approx(4.0)
    assert totals[None] == pytest.approx(0.5)


class _SmokeSweep(bench_workloads.Workload):
    name = "smoke"

    def _run(self, rep_dir, traced, deadline):
        run_dir = os.path.join(rep_dir, "run")
        process = self.launch(deadline, rep_dir, "main", [
            "sweep", "--preset", "smoke", "--backend", "serial",
            "--out", run_dir], traced)
        process.reap()
        records = bench_workloads.read_records(
            os.path.join(run_dir, "results.jsonl"))
        return self.finish([process], 12, 0, len(records), traced, [])


def test_traced_self_times_plus_unattributed_equal_traced_wall(tmp_path):
    workload = _SmokeSweep(ROOT, 0, work_root=str(tmp_path))
    workload.prepare()
    rep = workload.run_rep(traced=True, deadline_s=120)
    assert rep.failed == 0 and rep.completed == 12, rep.notes
    layers = rep.layers
    total = sum(layers[name] for name in bench_layers.PARTITION)
    assert total + layers["unattributed_s"] == \
        pytest.approx(layers["trace.wall_s"], abs=1e-6)
    assert layers["trace.wall_s"] == pytest.approx(rep.wall_s)
    assert layers["runner.worker.jobs"] == 12
    assert layers["runner.store.appends"] == 12
    assert layers["os.fsyncs"] >= 13
    assert layers["sim.pipeline.busy_s"] > 0
    assert layers["sim.engine.first_init_s"] > 0
    assert layers["interp.start_s"] > 0 and layers["cli.import_s"] > 0
