"""Command-line interface for the ART-9 frameworks.

Subcommands::

    art9 translate <file.s>        translate an RV-32I assembly file to ART-9
    art9 run <file.s>              translate and run a cycle-accurate simulation
    art9 bench [workload ...]      run the bundled benchmarks (cycle counts)
    art9 sweep                     run/resume/compare/list evaluation sweeps
    art9 serve                     coordinate a sweep for remote workers (TCP)
    art9 work                      execute jobs for a remote coordinator
    art9 report                    paper tables (II-V, Fig. 5) from sweep runs
    art9 status                    sweep telemetry (live coordinator or run dir)
    art9 chaos                     kill sweep participants mid-run, check the result
    art9 profile <workload>        hot-block execution profile (compiled engine)
    art9 cache                     artifact-cache stats / LRU prune
    art9 fuzz                      differential-fuzz the four ART-9 executors
    art9 hw                        print the gate-level / FPGA analysis
    art9 workloads                 list the bundled benchmark workloads

``run`` and ``bench`` accept ``--engine {fast,pipeline,compiled}`` to choose
between the pre-decoded integer engine (default), the stage-by-stage
pipeline model and the superblock code-generating engine; all three produce
identical cycle statistics.  ``run``, ``bench``, ``fuzz``, ``sweep`` and
``serve`` additionally accept ``--machine`` / ``--machines`` to select a
built-in microarchitecture description (pipeline depth, branch policy,
load-use penalty, fetch latency — see :mod:`repro.sim.machine`); the
default is the paper's machine.  ``sweep`` runs its grid inline
(``--jobs 1``, or ``--backend serial``) or on a pool of ``--jobs N`` local
worker processes, and ``serve``/``work`` spread it over any number of
processes on any number of machines: the ``serve`` coordinator hands jobs
to the ``work`` clients that dial it and streams their records into the
usual JSONL run directory (see :mod:`repro.service`).

The CLI is a thin wrapper over :mod:`repro.framework`; anything it prints can
also be obtained programmatically.
"""

from __future__ import annotations

import argparse
import json
import os
import socket
import sys
from typing import List, Optional

from repro.baselines import PicoRV32Model, VexRiscvModel
from repro.framework import HardwareFramework, SoftwareFramework
from repro.obs import trace
from repro.framework.hwflow import SIMULATION_ENGINES
from repro.runner import (
    ALL_ENGINES,
    DEFAULT_MAX_CYCLES,
    RunStore,
    SWEEP_PRESETS,
    SpecError,
    StoreError,
    SweepSpec,
    compare_runs,
    list_jobs,
    preset_spec,
    run_parallel_fuzz,
    run_sweep,
)
from repro.service.protocol import AUTH_TOKEN_ENV, DEFAULT_PORT
from repro.sim.machine import DEFAULT_MACHINE_NAME, machine_names
from repro.testing.chaos import CHAOS_SCENARIOS
from repro.workloads import all_workloads, get_workload


def _cmd_translate(args: argparse.Namespace) -> int:
    with open(args.source, "r", encoding="utf-8") as handle:
        source = handle.read()
    framework = SoftwareFramework(optimize=not args.no_optimize)
    program, report = framework.compile_riscv_assembly(source, name=args.source)
    print(report.summary())
    if args.listing:
        print()
        print(program.listing())
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    with open(args.source, "r", encoding="utf-8") as handle:
        source = handle.read()
    software = SoftwareFramework()
    program, report = software.compile_riscv_assembly(source, name=args.source)
    hardware = HardwareFramework(engine=args.engine, machine=args.machine)
    stats = hardware.simulate(program)
    print(report.summary())
    print()
    print(stats.summary())
    return 0


def _cmd_workloads(args: argparse.Namespace) -> int:
    for name, workload in all_workloads().items():
        print(f"{name:14s} {workload.description}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    names = args.workloads or sorted(all_workloads())
    software = SoftwareFramework()
    hardware = HardwareFramework(engine=args.engine, machine=args.machine)
    header = f"{'workload':14s} {'ART-9 cycles':>14s} {'PicoRV32 cycles':>16s} {'VexRiscv cycles':>16s}"
    print(header)
    print("-" * len(header))
    for name in names:
        workload = get_workload(name)
        rv_program = workload.rv_program()
        program, _ = software.compile_workload(workload)
        stats = hardware.simulate(program)
        pico = PicoRV32Model().run(rv_program)
        vex = VexRiscvModel().run(rv_program)
        print(f"{name:14s} {stats.cycles:>14d} {pico.cycles:>16d} {vex.cycles:>16d}")
    return 0


def _sweep_spec_from_args(args: argparse.Namespace) -> SweepSpec:
    grid_flags_used = (args.workloads or args.engines or args.params
                       or args.machines or args.optimize is not None
                       or args.max_cycles is not None)
    if args.spec:
        if getattr(args, "preset", None) or grid_flags_used:
            raise SpecError(
                "--spec replaces the grid flags and --preset; drop one side")
        return SweepSpec.from_file(args.spec)
    if getattr(args, "preset", None):
        if grid_flags_used:
            raise SpecError(
                "--preset replaces the grid flags; drop --workloads/"
                "--engines/--params/--optimize/--max-cycles or the preset")
        return preset_spec(args.preset)
    optimize = {None: (True, False), "both": (True, False),
                "on": (True,), "off": (False,)}[args.optimize]
    params = {}
    if args.params:
        try:
            params = json.loads(args.params)
        except json.JSONDecodeError as exc:
            raise SpecError(
                f"--params is not valid JSON ({exc}): {args.params!r}"
            ) from None
        if not isinstance(params, dict):
            raise SpecError(
                "--params must be a JSON object mapping workload names to "
                f"variant lists, got {args.params!r}"
            )
    return SweepSpec(
        workloads=tuple(args.workloads or ()),
        engines=tuple(args.engines or SIMULATION_ENGINES),
        optimize=optimize,
        params=params,
        max_cycles=(DEFAULT_MAX_CYCLES if args.max_cycles is None
                    else args.max_cycles),
        machines=tuple(args.machines or (DEFAULT_MACHINE_NAME,)),
    )


def _sweep_progress(record: dict) -> None:
    if record.get("status") == "ok":
        print(
            f"[{record['job_id']}] {record['label']:40s} "
            f"{record['cycles']:>12d} cycles  CPI {record['cpi']:.3f}  "
            f"{'ok' if record.get('verified') else 'RESULT MISMATCH'}"
        )
    else:
        print(f"[{record['job_id']}] {record['label']:40s} {record.get('error')}")


def _finish_sweep(args: argparse.Namespace, outcome) -> int:
    print()
    print(RunStore(args.out).summary_table(outcome.records))
    print()
    print(outcome.summary())
    return 0 if outcome.ok else 1


def _enable_trace(out_dir: str) -> None:
    """Turn span tracing on for this process and its pool workers.

    The switch travels as environment variables because the
    ``multiprocessing`` pool's workers inherit the environment on spawn
    and ``repro.runner.worker`` re-reads it at import time.
    """
    os.makedirs(out_dir, exist_ok=True)
    os.environ[trace.TRACE_ENV] = "1"
    os.environ[trace.TRACE_FILE_ENV] = os.path.join(out_dir, "spans.jsonl")
    trace.configure_from_env()


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        return _run_sweep_command(args)
    except (SpecError, StoreError, json.JSONDecodeError) as exc:
        print(f"art9 sweep: {exc}", file=sys.stderr)
        return 2


def _run_sweep_command(args: argparse.Namespace) -> int:
    if args.compare:
        report = compare_runs(args.compare[0], args.compare[1])
        print(report.summary())
        return 0 if report.ok else 1

    spec = _sweep_spec_from_args(args)
    if args.list_jobs:
        out_dir = args.out if args.out else None
        for row in list_jobs(spec, out_dir):
            print(f"{row['job_id']}  {row['status']:8s} {row['label']}")
        return 0

    if args.trace:
        _enable_trace(args.out)
    jobs = 1 if args.backend == "serial" else args.jobs
    outcome = run_sweep(spec, args.out, jobs=jobs,
                        resume=not args.no_resume, progress=_sweep_progress)
    return _finish_sweep(args, outcome)


def _auth_token_from(args: argparse.Namespace) -> Optional[str]:
    """Shared worker-auth token: flag first, then ``ART9_AUTH_TOKEN``."""
    token = getattr(args, "auth_token", None)
    if token is None:
        token = os.environ.get(AUTH_TOKEN_ENV)
    return token or None


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service.coordinator import Coordinator, CoordinatorBindError
    from repro.service.journal import RunJournal, journal_path, recover_run

    try:
        if args.resume_dir:
            if args.no_resume:
                raise SpecError("--resume RUN_DIR and --no-resume contradict "
                                "each other; drop one")
            store = RunStore(args.resume_dir)
            if not store.exists():
                raise SpecError(
                    f"--resume: {args.resume_dir!r} is not a sweep run "
                    "directory (no spec.json)")
            spec = store.load_spec()
            args.out = args.resume_dir
        else:
            spec = _sweep_spec_from_args(args)
    except (SpecError, StoreError, json.JSONDecodeError) as exc:
        print(f"art9 serve: {exc}", file=sys.stderr)
        return 2

    def announce(host: str, port: int) -> None:
        # A wildcard bind is not a dialable address; suggest something a
        # remote worker can actually connect to.
        reachable = socket.gethostname() if host in ("0.0.0.0", "::") else host
        print(f"coordinator listening on {host}:{port}; start workers with:")
        print(f"    art9 work --connect {reachable}:{port}")
        sys.stdout.flush()

    os.makedirs(args.out, exist_ok=True)
    if args.no_resume and os.path.exists(journal_path(args.out)):
        # --no-resume recomputes from scratch: the old run's lifecycle
        # history must not leak dispatch counts into the fresh one.
        os.remove(journal_path(args.out))
    dispatch_counts = {}
    recovered = 0
    returning_workers = set()
    journal = RunJournal(journal_path(args.out))
    if not args.no_resume:
        stored_ids = [record["job_id"]
                      for record in RunStore(args.out).records()]
        recovery = recover_run(args.out, stored_ids=stored_ids)
        if recovery.events_replayed:
            print(recovery.summary())
        for job_id, worker in sorted(recovery.leased.items()):
            # Make the crash explicit in the journal: these jobs were in a
            # worker's hands when the previous coordinator died.
            journal.append("requeued", job_id=job_id,
                           reason="coordinator restart", worker=worker,
                           kind="restart")
        dispatch_counts = recovery.dispatch_counts
        recovered = len(recovery.leased)
        returning_workers = recovery.workers
    served = []  # the coordinator's stats; none when nothing was pending

    def execute(jobs, emit) -> None:
        coordinator = Coordinator(
            jobs,
            on_result=emit,
            on_started=announce,
            host=args.host,
            port=args.port,
            heartbeat_timeout=args.heartbeat_timeout,
            max_requeues=args.max_requeues,
            journal=journal,
            auth_token=_auth_token_from(args),
            dispatch_counts=dispatch_counts,
            recovered_jobs=recovered,
            returning_workers=returning_workers,
        )
        served.append(asyncio.run(coordinator.serve()))

    try:
        outcome = run_sweep(spec, args.out, resume=not args.no_resume,
                            progress=_sweep_progress, execute=execute)
    except (CoordinatorBindError, SpecError, StoreError) as exc:
        print(f"art9 serve: {exc}", file=sys.stderr)
        return 2
    for stats in served:
        print()
        print(stats.summary())
    return _finish_sweep(args, outcome)


def _split_address(command: str, address: str):
    host, _, port = address.rpartition(":")
    if not host or not port.isdigit():
        print(f"art9 {command}: --connect expects HOST:PORT, got {address!r}",
              file=sys.stderr)
        return None
    return host, int(port)


def _cmd_work(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service.workerclient import work_async

    parsed = _split_address("work", args.connect)
    if parsed is None:
        return 2
    host, port = parsed
    try:
        summary = asyncio.run(work_async(
            host, port, name=args.name,
            retry_seconds=args.retry_seconds,
            auth_token=_auth_token_from(args),
            job_timeout=args.job_timeout,
            max_retries=args.max_retries,
            retry_window=args.retry_window))
    except OSError as exc:
        print(f"art9 work: cannot reach coordinator at {args.connect}: {exc}",
              file=sys.stderr)
        return 2
    print(summary.summary())
    if summary.outcome == "done":
        return 0
    if summary.outcome == "gave-up":
        # Transient: the coordinator may come back; a supervisor can
        # restart the worker.
        return 1
    return 2  # rejected: deterministic (bad token / protocol), do not retry


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.service.report import build_report, load_runs, render_report

    if not args.runs:
        print("art9 report: no runs ingested (pass run directories)",
              file=sys.stderr)
        return 2
    try:
        records, lines = load_runs(args.runs)
    except (StoreError, SpecError, json.JSONDecodeError) as exc:
        print(f"art9 report: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line, file=sys.stderr)
    tables = build_report(records)
    document = render_report(tables, fmt=args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(document)
        print(f"report written to {args.out}", file=sys.stderr)
    else:
        print(document, end="")
    return 0 if all(table.ok for table in tables) else 1


def _status_live(address: str, token: Optional[str] = None) -> int:
    from repro.service.workerclient import request_status

    parsed = _split_address("status", address)
    if parsed is None:
        return 2
    host, port = parsed
    try:
        status = request_status(host, port, token=token)
    except (OSError, ConnectionError, json.JSONDecodeError) as exc:
        print(f"art9 status: cannot query coordinator at {address}: {exc}",
              file=sys.stderr)
        return 2
    print(f"jobs      {status['done']}/{status['jobs_total']} done, "
          f"{status['in_flight']} in flight, {status['queue_depth']} queued")
    health = (f"health    {status['requeues']} requeues, "
              f"{status['lost_jobs']} lost, "
              f"{status['duplicate_results']} duplicate results")
    for key, label in (("unknown_results", "unknown results"),
                       ("reconnects", "reconnects"),
                       ("auth_failures", "auth failures"),
                       ("recovered_jobs", "recovered jobs")):
        if status.get(key):
            health += f", {status[key]} {label}"
    print(health)
    workers = status.get("workers", {})
    print(f"workers   {status['connected_workers']} connected, "
          f"{len(workers)} seen")
    for name in sorted(workers):
        stats = workers[name]
        # The reason histogram tells a flaky link (disconnects) from a
        # slow or wedged worker (heartbeat timeouts) at a glance.
        reasons = stats.get("requeue_reasons") or {}
        why = ("" if not reasons else
               " (" + ", ".join(f"{kind} {count}"
                                for kind, count in sorted(reasons.items()))
               + ")")
        print(f"  {name:28s} {stats['jobs_done']:>4d} done  "
              f"{stats['requeues']:>3d} requeued{why}  "
              f"heartbeat {stats['heartbeat_age_s']:6.1f}s ago")
    return 0


def _status_run_dir(run_dir: str) -> int:
    from repro.service.report import PHASES, phase_summary

    store = RunStore(run_dir)
    if not store.exists():
        print(f"art9 status: {run_dir!r} is not a sweep run directory "
              "(no spec.json)", file=sys.stderr)
        return 2
    records = store.records()
    try:
        total_jobs = len(store.load_spec().expand())
    except (SpecError, json.JSONDecodeError):
        total_jobs = len(records)
    ok = [r for r in records if r.get("status") == "ok"]
    print(f"run       {run_dir}")
    print(f"jobs      {len(ok)}/{total_jobs} ok, "
          f"{len(records) - len(ok)} failed")
    rows = phase_summary(records)
    timed = sum(row["timed_jobs"] for row in rows)
    if timed:
        totals = {phase: sum(row[phase] for row in rows) for phase in PHASES}
        print(f"phases    xlate {totals['xlate_s']:.3f} s   "
              f"codegen {totals['codegen_s']:.3f} s   "
              f"execute {totals['execute_s']:.3f} s   "
              f"({timed}/{len(records)} records timed)")
    else:
        print("phases    no records carry phase timings (written before the "
              "instrumentation existed)")
    known = sum(row["cache_known"] for row in rows)
    if known:
        hits = sum(row["cache_hits"] for row in rows)
        print(f"cache     {hits}/{known} translation cache hits "
              f"({hits / known:.0%})")
    slow = []
    for record in records:
        timings = record.get("timings")
        phase_s = (sum(float(timings.get(phase) or 0.0) for phase in PHASES)
                   if isinstance(timings, dict) else 0.0)
        seconds = phase_s or record.get("elapsed_s")
        if seconds is not None:
            slow.append((seconds, record))
    slow.sort(key=lambda pair: pair[0], reverse=True)
    if slow:
        print("slowest jobs:")
        for seconds, record in slow[:5]:
            print(f"  {record.get('label', record.get('job_id')):42s} "
                  f"{seconds:9.3f} s")
    spans_path = os.path.join(run_dir, "spans.jsonl")
    if os.path.exists(spans_path):
        spans = trace.read_spans(spans_path)
        print(f"trace     {len(spans)} spans in {spans_path}")
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    if bool(args.connect) == bool(args.run_dir):
        print("art9 status: pass exactly one of RUN_DIR or --connect "
              "HOST:PORT", file=sys.stderr)
        return 2
    if args.connect:
        return _status_live(args.connect, token=_auth_token_from(args))
    return _status_run_dir(args.run_dir)


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.testing.chaos import ChaosError, run_scenario
    try:
        result = run_scenario(args.scenario, seed=args.seed,
                              out_dir=args.out, keep=args.keep)
    except ChaosError as exc:
        print(f"art9 chaos: {exc}", file=sys.stderr)
        return 2
    for line in result.events:
        print(line)
    print()
    print(result.summary())
    if not result.ok:
        print(f"artifacts kept in {os.path.dirname(result.run_dir)}",
              file=sys.stderr)
    return 0 if result.ok else 1


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.sim.compiled import CompiledEngine

    if args.top < 0:
        print(f"art9 profile: --top must be >= 0, got {args.top}",
              file=sys.stderr)
        return 2
    params = {}
    if args.params:
        try:
            params = json.loads(args.params)
        except json.JSONDecodeError as exc:
            print(f"art9 profile: --params is not valid JSON ({exc})",
                  file=sys.stderr)
            return 2
        if not isinstance(params, dict):
            print("art9 profile: --params must be a JSON object of workload "
                  "parameters", file=sys.stderr)
            return 2
    software = SoftwareFramework(optimize=not args.no_optimize)
    try:
        program, _, _ = software.compile_named_workload_cached(
            args.workload, params)
    except (KeyError, TypeError) as exc:
        print(f"art9 profile: {exc}", file=sys.stderr)
        return 2
    # The translation and build a sweep job runs, so its xlate and codegen
    # artifacts are reused.
    engine = CompiledEngine(program, machine=args.machine)
    stats = engine.run_with_stats(max_cycles=args.max_cycles)
    rows = engine.block_profile()
    rows.sort(key=lambda row: (-row["instructions"], row["pc"]))
    executed = engine.instructions_executed
    accounted = sum(row["instructions"] for row in rows)
    if args.json_out:
        document = {
            "workload": args.workload,
            "params": params,
            "machine": args.machine,
            "optimize": not args.no_optimize,
            "cycles": stats.cycles,
            "instructions": executed,
            "cpi": round(stats.cpi, 6),
            "superblocks": len(rows),
            "accounted": accounted == executed,
            "blocks": rows,
        }
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        print(f"{args.workload}: {stats.cycles} cycles, "
              f"{executed} instructions, CPI {stats.cpi:.3f}, "
              f"{len(rows)} superblocks executed")
        print()
        header = (f"{'PC':>6s} {'executions':>12s} {'length':>7s} "
                  f"{'instructions':>13s} {'share':>7s}  cumulative")
        print(header)
        print("-" * len(header))
        cumulative = 0
        for row in rows[:args.top]:
            cumulative += row["instructions"]
            print(f"{row['pc']:>6d} {row['executions']:>12d} "
                  f"{row['length']:>7d} {row['instructions']:>13d} "
                  f"{row['instructions'] / executed:>6.1%}  "
                  f"{cumulative / executed:>6.1%}")
        if len(rows) > args.top:
            rest = sum(row["instructions"] for row in rows[args.top:])
            print(f"... {len(rows) - args.top} more blocks accounting for "
                  f"{rest} instructions ({rest / executed:.1%})")
    if accounted != executed:
        print(f"art9 profile: block counters account for {accounted} "
              f"instructions but the engine executed {executed} — "
              "profile instrumentation bug", file=sys.stderr)
        return 1
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.cache import ArtifactCache, default_cache_root

    if args.cache_command is None:
        print("art9 cache: pass a subcommand (stats | prune)",
              file=sys.stderr)
        return 2
    root = args.dir or default_cache_root()
    cache = ArtifactCache(root)
    if args.cache_command == "stats":
        stats = cache.disk_stats()
        if args.json_out:
            print(json.dumps(stats, indent=2, sort_keys=True))
            return 0
        print(f"artifact cache {stats['root']}")
        print(f"{'kind':12s} {'entries':>8s} {'bytes':>12s}")
        for kind, row in sorted(stats["kinds"].items()):
            print(f"{kind:12s} {row['entries']:>8d} {row['bytes']:>12d}")
        print(f"{'total':12s} {stats['entries']:>8d} {stats['bytes']:>12d}")
        return 0
    if args.cache_command == "prune":
        try:
            result = cache.prune(args.max_bytes)
        except ValueError as exc:
            print(f"art9 cache: {exc}", file=sys.stderr)
            return 2
        print(f"pruned {result['removed']} entries "
              f"({result['removed_bytes']} bytes); "
              f"{result['kept']} kept ({result['kept_bytes']} bytes) "
              f"in {root}")
        return 0
    print("art9 cache: pass a subcommand (stats | prune)", file=sys.stderr)
    return 2


def _cmd_fuzz(args: argparse.Namespace) -> int:
    # A fuzz run that checks no program, or lets none execute an
    # instruction, would print OK without having compared anything.
    for flag, value in (("--count", args.count),
                        ("--max-instructions", args.max_instructions)):
        if value < 1:
            print(f"art9 fuzz: {flag} must be >= 1, got {value}",
                  file=sys.stderr)
            return 2
    report = run_parallel_fuzz(
        count=args.count,
        seed=args.seed,
        jobs=args.jobs,
        max_instructions=args.max_instructions,
        machine=args.machine,
    )
    print(report.summary())
    for failure in report.failures:
        print(f"\n{failure.program_name}:")
        for mismatch in failure.mismatches:
            print(f"  - {mismatch}")
    if report.failures:
        print(
            "\nreproduce with: repro.testing.run_differential("
            "generate_program(<seed from the program name>))"
        )
    return 0 if report.ok else 1


def _cmd_hw(args: argparse.Namespace) -> int:
    hardware = HardwareFramework()
    print(hardware.analyze_gates().summary())
    print()
    print(hardware.analyze_fpga().summary())
    return 0


def _add_grid_arguments(parser: argparse.ArgumentParser) -> None:
    """Sweep-grid flags shared by ``art9 sweep`` and ``art9 serve``."""
    parser.add_argument("--workloads", nargs="*", default=None,
                        help="workload names (default: all registered)")
    parser.add_argument("--engines", nargs="*", choices=ALL_ENGINES,
                        default=None,
                        help="engines (default: fast pipeline; baseline cores: "
                             "picorv32 vexriscv armv6m)")
    parser.add_argument("--optimize", choices=("both", "on", "off"),
                        default=None,
                        help="translator optimize axis (default: both)")
    parser.add_argument("--params", default=None,
                        help='JSON workload variants, e.g. '
                             '\'{"gemm": [{}, {"n": 8}]}\'')
    parser.add_argument("--machines", nargs="*", choices=machine_names(),
                        default=None,
                        help="machine (microarchitecture) configs axis "
                             f"(default: {DEFAULT_MACHINE_NAME}; baseline "
                             "cores always run the default)")
    parser.add_argument("--preset", choices=SWEEP_PRESETS, default=None,
                        help="named grid, replacing the other grid flags: "
                             "default (grown size variants), paper (all "
                             "engines incl. baselines), smoke, machines "
                             "(design-space corners)")
    parser.add_argument("--spec", default=None,
                        help="JSON sweep spec file, replacing the grid flags "
                             "and --preset")
    parser.add_argument("--max-cycles", type=int, default=None,
                        help=f"per-job cycle budget (default: {DEFAULT_MAX_CYCLES})")


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse command-line parser."""
    parser = argparse.ArgumentParser(prog="art9", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subparsers = parser.add_subparsers(dest="command")

    translate = subparsers.add_parser("translate", help="translate RV-32I assembly to ART-9")
    translate.add_argument("source", help="RV-32I assembly file")
    translate.add_argument("--listing", action="store_true", help="print the ART-9 listing")
    translate.add_argument("--no-optimize", action="store_true",
                           help="skip the redundancy-checking pass")
    translate.set_defaults(func=_cmd_translate)

    run = subparsers.add_parser("run", help="translate and run a cycle-accurate simulation")
    run.add_argument("source", help="RV-32I assembly file")
    run.add_argument("--engine", choices=SIMULATION_ENGINES, default="fast",
                     help="execution engine (default: fast)")
    run.add_argument("--machine", choices=machine_names(),
                     default=DEFAULT_MACHINE_NAME,
                     help="machine (microarchitecture) config "
                          f"(default: {DEFAULT_MACHINE_NAME})")
    run.set_defaults(func=_cmd_run)

    bench = subparsers.add_parser("bench", help="run the bundled benchmarks")
    bench.add_argument("workloads", nargs="*", help="workload names (default: all)")
    bench.add_argument("--engine", choices=SIMULATION_ENGINES, default="fast",
                       help="execution engine (default: fast)")
    bench.add_argument("--machine", choices=machine_names(),
                       default=DEFAULT_MACHINE_NAME,
                       help="machine (microarchitecture) config "
                            f"(default: {DEFAULT_MACHINE_NAME})")
    bench.set_defaults(func=_cmd_bench)

    sweep = subparsers.add_parser(
        "sweep",
        help="run workload x engine x optimize sweeps across worker processes")
    sweep.add_argument("--out", default="sweeps/latest",
                       help="run directory (default: sweeps/latest); rerunning "
                            "the same directory resumes it")
    sweep.add_argument("--jobs", type=int, default=2,
                       help="worker processes (default: 2; 1 runs inline)")
    _add_grid_arguments(sweep)
    sweep.add_argument("--backend", choices=("auto", "serial"),
                       default="auto",
                       help="auto (default) runs inline for --jobs 1 and on "
                            "a pool of --jobs workers otherwise; serial "
                            "means --jobs 1")
    sweep.add_argument("--no-resume", action="store_true",
                       help="discard existing results in --out and recompute")
    sweep.add_argument("--trace", action="store_true",
                       help="record execution spans (translation, simulation, "
                            "per-job) to <out>/spans.jsonl; off by default "
                            "and free when off")
    sweep.add_argument("--list", action="store_true", dest="list_jobs",
                       help="list the expanded jobs and their status, then exit")
    sweep.add_argument("--compare", nargs=2, metavar=("RUN_A", "RUN_B"),
                       help="diff two run directories instead of sweeping")
    sweep.set_defaults(func=_cmd_sweep)

    serve = subparsers.add_parser(
        "serve",
        help="coordinate a sweep over TCP for art9 work clients")
    serve.add_argument("--out", default="sweeps/latest",
                       help="run directory (default: sweeps/latest); rerunning "
                            "the same directory resumes it")
    _add_grid_arguments(serve)
    serve.add_argument("--host", default="0.0.0.0",
                       help="address to listen on (default: 0.0.0.0)")
    serve.add_argument("--port", type=int, default=DEFAULT_PORT,
                       help=f"TCP port (default: {DEFAULT_PORT}; 0 picks a free one)")
    serve.add_argument("--heartbeat-timeout", type=float, default=15.0,
                       help="seconds of worker silence before a job is requeued")
    serve.add_argument("--max-requeues", type=int, default=3,
                       help="dispatch retries before a job is declared lost")
    serve.add_argument("--no-resume", action="store_true",
                       help="discard existing results in --out and recompute")
    serve.add_argument("--resume", metavar="RUN_DIR", dest="resume_dir",
                       default=None,
                       help="restart a killed coordinator: load the spec "
                            "from RUN_DIR, replay its journal, requeue "
                            "formerly-leased jobs and keep going (replaces "
                            "--out and the grid flags)")
    serve.add_argument("--auth-token", default=None,
                       help="shared worker-auth token (default: "
                            f"${AUTH_TOKEN_ENV}); connections without it "
                            "are refused")
    serve.set_defaults(func=_cmd_serve)

    work_cmd = subparsers.add_parser(
        "work", help="execute sweep jobs for a remote art9 serve coordinator")
    work_cmd.add_argument("--connect", required=True, metavar="HOST:PORT",
                          help="coordinator address, e.g. 192.168.1.10:7929")
    work_cmd.add_argument("--name", default=None,
                          help="worker name shown in coordinator stats "
                               "(default: hostname-pid)")
    work_cmd.add_argument("--retry-seconds", type=float, default=10.0,
                          help="keep retrying the first connection this long "
                               "(default: 10; lets workers start first)")
    work_cmd.add_argument("--auth-token", default=None,
                          help="shared worker-auth token (default: "
                               f"${AUTH_TOKEN_ENV})")
    work_cmd.add_argument("--job-timeout", type=float, default=None,
                          help="wall-clock seconds per job before reporting "
                               "a timeout record (default: unlimited)")
    work_cmd.add_argument("--max-retries", type=int, default=8,
                          help="consecutive reconnect attempts before "
                               "giving up (default: 8)")
    work_cmd.add_argument("--retry-window", type=float, default=120.0,
                          help="wall-clock seconds of consecutive reconnect "
                               "failure before giving up (default: 120)")
    work_cmd.set_defaults(func=_cmd_work)

    report = subparsers.add_parser(
        "report",
        help="regenerate the paper's Tables II-V and Fig. 5 from sweep runs")
    report.add_argument("runs", nargs="*", metavar="RUN_DIR",
                        help="sweep run directories to ingest")
    report.add_argument("--format", choices=("markdown", "csv"),
                        default="markdown", help="output format")
    report.add_argument("--out", default=None,
                        help="write the report here instead of stdout")
    report.set_defaults(func=_cmd_report)

    status = subparsers.add_parser(
        "status",
        help="sweep telemetry: live coordinator snapshot or run-dir summary")
    status.add_argument("run_dir", nargs="?", metavar="RUN_DIR", default=None,
                        help="finished/in-progress run directory to summarise "
                             "(phase timings, cache hit rate, slowest jobs)")
    status.add_argument("--connect", metavar="HOST:PORT", default=None,
                        help="query a live art9 serve coordinator instead "
                             "(queue depth, in-flight jobs, per-worker stats); "
                             "safe against a running sweep")
    status.add_argument("--auth-token", default=None,
                        help="token for a token-guarded coordinator "
                             f"(default: ${AUTH_TOKEN_ENV})")
    status.set_defaults(func=_cmd_status)

    chaos = subparsers.add_parser(
        "chaos",
        help="fault-injection harness: kill sweep participants mid-run and "
             "assert the finished run is byte-identical to a clean one")
    chaos.add_argument("--scenario", required=True,
                       choices=CHAOS_SCENARIOS,
                       help="which participant to kill and how")
    chaos.add_argument("--seed", type=int, default=0,
                       help="seed for kill timing jitter (default: 0)")
    chaos.add_argument("--out", default=None,
                       help="scratch directory for the disturbed + reference "
                            "runs (default: a fresh temp dir, removed on "
                            "success)")
    chaos.add_argument("--keep", action="store_true",
                       help="keep the scratch directory even on success")
    chaos.set_defaults(func=_cmd_chaos)

    profile = subparsers.add_parser(
        "profile",
        help="hot-block execution profile of one workload (compiled engine)")
    profile.add_argument("workload", help="workload name (see `art9 workloads`)")
    profile.add_argument("--params", default=None,
                         help='JSON workload parameters, e.g. \'{"n": 8}\'')
    profile.add_argument("--machine", choices=machine_names(),
                         default=DEFAULT_MACHINE_NAME,
                         help="machine (microarchitecture) config "
                              f"(default: {DEFAULT_MACHINE_NAME})")
    profile.add_argument("--top", type=int, default=20,
                         help="rows to print (default: 20)")
    profile.add_argument("--no-optimize", action="store_true",
                         help="profile the unoptimized translation")
    profile.add_argument("--max-cycles", type=int, default=DEFAULT_MAX_CYCLES,
                         help="cycle budget (default: "
                              f"{DEFAULT_MAX_CYCLES})")
    profile.add_argument("--json", action="store_true", dest="json_out",
                         help="emit the full profile as JSON on stdout "
                              "instead of the table")
    profile.set_defaults(func=_cmd_profile)

    cache_cmd = subparsers.add_parser(
        "cache",
        help="artifact-cache maintenance: disk stats and LRU pruning")
    cache_sub = cache_cmd.add_subparsers(dest="cache_command")
    cache_stats = cache_sub.add_parser(
        "stats", help="per-kind entry counts and byte totals")
    cache_stats.add_argument("--dir", default=None,
                             help="cache root (default: $ART9_CACHE_DIR or "
                                  "~/.cache/art9)")
    cache_stats.add_argument("--json", action="store_true", dest="json_out",
                             help="emit the stats as JSON")
    cache_prune = cache_sub.add_parser(
        "prune", help="evict least-recently-written artifacts down to a "
                      "byte budget (atomic per entry; a pruned entry is "
                      "at worst a later cache miss)")
    cache_prune.add_argument("--max-bytes", type=int, required=True,
                             help="target total size in bytes")
    cache_prune.add_argument("--dir", default=None,
                             help="cache root (default: $ART9_CACHE_DIR or "
                                  "~/.cache/art9)")
    cache_cmd.set_defaults(func=_cmd_cache, cache_command=None)

    fuzz_cmd = subparsers.add_parser(
        "fuzz", help="differential-fuzz all four executors (functional, "
                     "pipeline, fast, compiled) against each other")
    fuzz_cmd.add_argument("--count", type=int, default=100,
                          help="number of random programs (default: 100)")
    fuzz_cmd.add_argument("--seed", type=int, default=0,
                          help="first generator seed (default: 0)")
    fuzz_cmd.add_argument("--max-instructions", type=int, default=200_000,
                          help="per-program instruction budget")
    fuzz_cmd.add_argument("--jobs", type=int, default=1,
                          help="worker processes sharing the seed range (default: 1)")
    fuzz_cmd.add_argument("--machine", choices=machine_names(),
                          default=DEFAULT_MACHINE_NAME,
                          help="machine (microarchitecture) config all "
                               "cycle-accurate executors run under "
                               f"(default: {DEFAULT_MACHINE_NAME})")
    fuzz_cmd.set_defaults(func=_cmd_fuzz)

    hw = subparsers.add_parser("hw", help="gate-level / FPGA implementation analysis")
    hw.set_defaults(func=_cmd_hw)

    workloads = subparsers.add_parser("workloads", help="list the bundled workloads")
    workloads.set_defaults(func=_cmd_workloads)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_help()
        return 1
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
