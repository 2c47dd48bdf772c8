"""The benchmark's workloads: inputs, launch, and correctness gate.

Each repetition (``rep``) starts fresh ``art9`` processes through
``bench_entry.py``, times them from outside, and checks what they computed:

* ``default-serial`` — the pinned ``--preset default`` grid on the serial
  backend, one process, warm artifact cache;
* ``default-serve`` — the same grid through ``art9 serve`` plus exactly
  one ``art9 work`` client, cold artifact cache;
* ``explore-serve`` — a 280-job design-space grid the same way (run by
  hand; too latency-bound for a gated bound, see README.md);
* ``fuzz-5way`` — ``art9 fuzz`` over seeded random programs, one process.

Every launched process gets a benchmark-private ``PYTHONPYCACHEPREFIX``
(bytecode writing on) and ``ART9_CACHE_DIR`` under the work directory.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import bench_layers

HERE = os.path.dirname(os.path.abspath(__file__))
ENTRY = os.path.join(HERE, "bench_entry.py")

#: Default ``seed`` parameter of each seeded workload; benchmark seed 0
#: keeps them unchanged.
WORKLOAD_SEEDS = {"bubble_sort": 3, "gemm": 11, "sobel": 41}

#: The paper's Dhrystone numbers, pinned on ``dhrystone/*/opt`` at the
#: paper machine.
DHRYSTONE_PIN = {"cycles": 10380, "cpi": 1.229}
PAPER_MACHINE = "paper3stage"

ANNOUNCE = re.compile(r"coordinator listening on \S+:(\d+)")
COORDINATOR_STATS = re.compile(r"coordinator: \d+/\d+ jobs from \d+ workers "
                               r"\((\d+) requeued")
FUZZ_SUMMARY = re.compile(r"differential fuzz: (\d+) programs, .*?"
                          r"(OK|(\d+) FAILURES)$", re.MULTILINE)


@dataclass
class Rep:
    """Outcome of one repetition of a workload."""

    wall_s: float
    setup_s: float
    cpu_s: float
    peak_rss_mb: float
    ops: int
    failed: int
    completed: int
    layers: Optional[Dict[str, float]] = None
    notes: List[str] = field(default_factory=list)

    @property
    def ops_per_s(self) -> float:
        busy = self.wall_s - self.setup_s
        return self.completed / busy if busy > 0 else 0.0


class Process:
    """One launched ``art9`` process, reaped with its resource usage."""

    def __init__(self, role: str, args: Sequence[str], env: dict, cwd: str,
                 stdout_path: str, stderr_path: str, marks_path: str,
                 pipe_stdout: bool = False):
        self.role = role
        self.marks_path = marks_path
        self.stdout_path = stdout_path
        self.stderr_path = stderr_path
        self.exit: Optional[float] = None
        self.returncode: Optional[int] = None
        self.cpu_s = 0.0
        self.rss_mb = 0.0
        self._lock = threading.Lock()
        self._stderr = open(stderr_path, "w", encoding="utf-8")
        self._stdout = (subprocess.PIPE if pipe_stdout
                        else open(stdout_path, "w", encoding="utf-8"))
        self.launch = time.monotonic()
        self.popen = subprocess.Popen(
            list(args), env=env, cwd=cwd, stdin=subprocess.DEVNULL,
            stdout=self._stdout, stderr=self._stderr, text=True)

    def kill(self) -> None:
        with self._lock:
            if self.returncode is None:
                try:
                    os.kill(self.popen.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass

    def reap(self) -> None:
        """Wait for exit, recording exit time, CPU time and peak RSS."""
        _, status, usage = os.wait4(self.popen.pid, 0)
        self.exit = time.monotonic()
        with self._lock:
            self.returncode = os.waitstatus_to_exitcode(status)
            self.popen.returncode = self.returncode
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0
        self._stderr.close()
        if self._stdout is not subprocess.PIPE:
            self._stdout.close()

    def marks(self) -> Optional[dict]:
        try:
            with open(self.marks_path, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return None


def read_text(path: str) -> str:
    """A process's output file, or "" when it was never written."""
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as handle:
            return handle.read()
    except OSError:
        return ""


class Deadline:
    """Kills every registered process once ``seconds`` have passed."""

    def __init__(self, seconds: float):
        self.expired = False
        self._processes: List[Process] = []
        self._timer = threading.Timer(max(0.0, seconds), self._fire)
        self._timer.daemon = True
        self._timer.start()

    def watch(self, process: Process) -> Process:
        self._processes.append(process)
        if self.expired:
            process.kill()
        return process

    def _fire(self) -> None:
        self.expired = True
        for process in list(self._processes):
            process.kill()

    def cancel(self) -> None:
        self._timer.cancel()
        self._timer.join()


def point_key(record: dict) -> str:
    """Grid-point identity of a sweep record, without its engine."""
    params = ",".join(f"{key}={value}" for key, value
                      in sorted((record.get("params") or {}).items()))
    opt = "opt" if record.get("optimize") else "noopt"
    return (f"{record.get('workload')}[{params}]/{opt}"
            f"@{record.get('machine')}")


def simulated(record: dict) -> Tuple[object, str, object]:
    """The statistics every ART-9 engine must agree on."""
    return (record.get("cycles"),
            json.dumps(record.get("stats"), sort_keys=True),
            record.get("state_digest"))


def read_records(path: str) -> List[dict]:
    """Newest record per job from a ``results.jsonl`` (torn lines skipped)."""
    by_job: Dict[str, dict] = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                try:
                    record = json.loads(line)
                except ValueError:
                    continue
                if isinstance(record, dict) and record.get("job_id"):
                    by_job[record["job_id"]] = record
    except OSError:
        return []
    return list(by_job.values())


def check_sweep(records: Sequence[dict], expected: int,
                reference: Optional[Dict[str, dict]] = None
                ) -> Tuple[int, List[str]]:
    """Count failed jobs of one sweep run; returns (failed, reasons).

    A job fails when it errored, failed verification, disagrees with
    another engine on its grid point, disagrees with ``reference`` (given
    at the default seed only) or never finished.  The Dhrystone paper
    numbers must hold on every ``dhrystone/*/opt`` record at the paper
    machine, and at least one such record must exist.
    """
    failed = set()
    reasons: List[str] = []

    def fail(record: dict, why: str) -> None:
        if record["job_id"] not in failed:
            failed.add(record["job_id"])
            reasons.append(f"{record.get('label', record['job_id'])}: {why}")

    points: Dict[str, List[dict]] = defaultdict(list)
    pinned = 0
    for record in records:
        if record.get("status") != "ok":
            fail(record, f"status {record.get('status')}: "
                         f"{record.get('error')}")
            continue
        if not record.get("verified"):
            fail(record, "result verification failed")
        points[point_key(record)].append(record)
        if reference is not None:
            want = reference.get(point_key(record))
            if want is None or simulated(record) != simulated(want):
                fail(record, "statistics differ from the stored reference")
        if (record.get("workload") == "dhrystone" and not record.get("params")
                and record.get("optimize")
                and record.get("machine") == PAPER_MACHINE):
            pinned += 1
            if (record.get("cycles") != DHRYSTONE_PIN["cycles"]
                    or round(record.get("cpi", 0.0), 3)
                    != DHRYSTONE_PIN["cpi"]):
                fail(record, f"Dhrystone pin broken: {record.get('cycles')} "
                             f"cycles, CPI {record.get('cpi')}")
    for key, group in points.items():
        votes = Counter(simulated(record) for record in group)
        (majority, count), = votes.most_common(1)
        tied = sum(1 for value in votes.values() if value == count) > 1
        for record in group:
            if tied or simulated(record) != majority:
                fail(record, f"engines disagree on {key}")
    unfinished = max(0, expected - len(records))
    if unfinished:
        reasons.append(f"{unfinished} jobs never finished")
    if not pinned:
        reasons.append("no dhrystone/*/opt record at the paper machine")
    return len(failed) + unfinished + (0 if pinned else 1), reasons


def expected_jobs(spec: dict) -> int:
    """Jobs a spec of ART-9 engines expands to."""
    variants = sum(len(spec["params"].get(workload) or [{}])
                   for workload in spec["workloads"])
    return (variants * len(spec["engines"]) * len(spec["optimize"])
            * len(spec["machines"]))


class Workload:
    """Shared plumbing: work directories, environment, process launch."""

    name = ""

    def __init__(self, root: str, seed: int, work_root: Optional[str] = None):
        self.root = root
        self.seed = seed
        self.base = work_root or os.path.join(root, ".perfbench-work")
        self.work = os.path.join(self.base, self.name)
        self.cache = os.path.join(self.work, "artifact-cache")
        self._reps = 0

    def prepare(self) -> None:
        """Start from an empty work directory (bytecode cache kept)."""
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)

    def env(self) -> dict:
        env = {key: value for key, value in os.environ.items()
               if not key.startswith(("PYTHON", "ART9_"))}
        env.update({
            "PYTHONPATH": os.path.join(self.root, "src"),
            "PYTHONPYCACHEPREFIX": os.path.join(self.base, "pycache"),
            "PYTHONHASHSEED": "0",
            "ART9_CACHE_DIR": self.cache,
        })
        return env

    def new_rep_dir(self) -> str:
        self._reps += 1
        path = os.path.join(self.work, f"rep-{self._reps}")
        os.makedirs(path)
        return path

    def launch(self, deadline: Deadline, rep_dir: str, role: str,
               cli_args: Sequence[str], traced: bool,
               pipe_stdout: bool = False) -> Process:
        marks = os.path.join(rep_dir, f"{role}.marks.json")
        interpreter = [sys.executable] + (["-X", "importtime"]
                                          if traced else [])
        args = interpreter + [ENTRY, marks, "1" if traced else "0"]
        return deadline.watch(Process(
            role, args + list(cli_args), self.env(), rep_dir,
            os.path.join(rep_dir, f"{role}.out"),
            os.path.join(rep_dir, f"{role}.err"), marks,
            pipe_stdout=pipe_stdout))

    def run_rep(self, traced: bool, deadline_s: float) -> Rep:
        rep_dir = self.new_rep_dir()
        deadline = Deadline(deadline_s)
        try:
            rep = self._run(rep_dir, traced, deadline)
        finally:
            deadline.cancel()
        if deadline.expired:
            rep.notes.append(f"deadline of {deadline_s:.0f}s passed; "
                             "processes killed")
            rep.failed = max(rep.failed, rep.ops - rep.completed, 1)
        shutil.rmtree(rep_dir, ignore_errors=True)
        return rep

    def _run(self, rep_dir: str, traced: bool, deadline: Deadline) -> Rep:
        raise NotImplementedError

    @staticmethod
    def finish(processes: Sequence[Process], ops: int, failed: int,
               completed: int, traced: bool, notes: List[str],
               announce: Optional[float] = None, requeues: int = 0) -> Rep:
        """Turn reaped processes into a :class:`Rep`."""
        t0 = min(process.launch for process in processes)
        t1 = max(process.exit for process in processes)
        marks = {process.role: process.marks() for process in processes}
        first_ops = [m["first_op"] for m in marks.values()
                     if m and m.get("first_op") is not None]
        # The first op of the process that executes jobs ends set-up.
        setup = (max(first_ops) - t0) if first_ops else t1 - t0
        if not first_ops:
            notes.append("no job or program ever started")
            failed = max(failed, 1)
        for process in processes:
            missing = (marks[process.role] or {}).get("missing")
            if missing:
                notes.append(f"{process.role}: not wrapped: {missing}")
            if process.returncode != 0:
                notes.append(f"{process.role} exited with "
                             f"{process.returncode}: "
                             f"{read_text(process.stderr_path)[-400:]}")
                failed = max(failed, 1)
        rep = Rep(wall_s=t1 - t0, setup_s=setup,
                  cpu_s=sum(process.cpu_s for process in processes),
                  peak_rss_mb=max(process.rss_mb for process in processes),
                  ops=ops, failed=failed, completed=completed, notes=notes)
        if traced:
            rep.layers = bench_layers.layer_metrics(
                [{"role": process.role, "launch": process.launch,
                  "marks": marks[process.role],
                  "stderr": read_text(process.stderr_path)}
                 for process in processes],
                t0, t1, announce=announce, requeues=requeues)
        return rep


class SweepWorkload(Workload):
    """A sweep grid written as a spec file, checked job by job."""

    #: Basename of the grid's seed-0 statistics under ``reference/``.
    reference_name = ""

    def spec(self) -> dict:
        raise NotImplementedError

    def reference(self) -> Optional[Dict[str, dict]]:
        """Stored statistics per grid point, used at the default seed."""
        if self.seed != 0:
            return None
        path = os.path.join(HERE, "reference", f"{self.reference_name}.json")
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)

    def prepare(self) -> None:
        super().prepare()
        spec = self.spec()
        self.spec_path = os.path.join(self.work, "spec.json")
        with open(self.spec_path, "w", encoding="utf-8") as handle:
            json.dump(spec, handle, indent=2, sort_keys=True)
        self.expected = expected_jobs(spec)
        self.reference_stats = self.reference()

    def check(self, run_dir: str, notes: List[str]) -> Tuple[int, int]:
        """Returns (failed, completed) for one finished run directory."""
        records = read_records(os.path.join(run_dir, "results.jsonl"))
        failed, reasons = check_sweep(records, self.expected,
                                      self.reference_stats)
        notes.extend(reasons[:10])
        return failed, len(records)


def default_grid(seed: int) -> dict:
    """The pinned ``--preset default`` grid; seed 0 leaves it unchanged."""
    with open(os.path.join(HERE, "specs", "default-preset.json"),
              "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    if seed:
        for workload, default in WORKLOAD_SEEDS.items():
            variants = spec["params"].get(workload) or [{}]
            spec["params"][workload] = [dict(variant, seed=default + seed)
                                        for variant in variants]
    return spec


#: Seed variants per seeded workload in the explore-serve grid.
EXPLORE_SEEDS = {"bubble_sort": 5, "gemm": 5, "sobel": 3}
MACHINES = ("paper3stage", "ideal2", "predictnt", "btfn4", "slowfetch5")


def explore_grid(seed: int) -> dict:
    """The 280-job design-space grid of ``explore-serve``."""
    params = {
        workload: [{"seed": WORKLOAD_SEEDS[workload] + count * seed + index}
                   for index in range(count)]
        for workload, count in EXPLORE_SEEDS.items()
    }
    return {
        "workloads": ["bubble_sort", "dhrystone", "gemm", "sobel"],
        "engines": ["fast", "compiled"],
        "optimize": [True, False],
        "params": params,
        "machines": list(MACHINES),
        "max_cycles": 50_000_000,
    }


class DefaultSerial(SweepWorkload):
    """The default grid on the serial backend, warm artifact cache."""

    name = "default-serial"
    reference_name = "default-preset"

    def spec(self) -> dict:
        return default_grid(self.seed)

    def _run(self, rep_dir: str, traced: bool, deadline: Deadline) -> Rep:
        run_dir = os.path.join(rep_dir, "run")
        process = self.launch(deadline, rep_dir, "main", [
            "sweep", "--spec", self.spec_path, "--backend", "serial",
            "--out", run_dir], traced)
        process.reap()
        notes: List[str] = []
        failed, completed = self.check(run_dir, notes)
        return self.finish([process], self.expected, failed, completed,
                           traced, notes)


class ServeWorkload(SweepWorkload):
    """A grid through ``art9 serve`` plus exactly one ``art9 work`` client.

    The coordinator binds port 0; the worker starts once the harness has
    read the port from the coordinator's announce line.  The artifact
    cache is emptied before every repetition.
    """

    def _run(self, rep_dir: str, traced: bool, deadline: Deadline) -> Rep:
        shutil.rmtree(self.cache, ignore_errors=True)
        run_dir = os.path.join(rep_dir, "run")
        coordinator = self.launch(deadline, rep_dir, "main", [
            "serve", "--spec", self.spec_path, "--host", "127.0.0.1",
            "--port", "0", "--out", run_dir], traced, pipe_stdout=True)
        announced = threading.Event()
        found: Dict[str, float] = {}
        pump = threading.Thread(target=_pump, args=(
            coordinator, announced, found), daemon=True)
        pump.start()
        announced.wait()
        processes = [coordinator]
        if "port" in found:
            processes.append(self.launch(deadline, rep_dir, "worker", [
                "work", "--connect", f"127.0.0.1:{found['port']}"],
                traced))
        for process in processes:
            process.reap()
        pump.join()
        notes: List[str] = []
        if "port" not in found:
            notes.append("coordinator never announced its port")
        failed, completed = self.check(run_dir, notes)
        output = read_text(coordinator.stdout_path)
        stats = COORDINATOR_STATS.search(output)
        return self.finish(processes, self.expected, failed, completed,
                           traced, notes, announce=found.get("ts"),
                           requeues=int(stats.group(1)) if stats else 0)


class DefaultServe(ServeWorkload):
    """The default grid as a fresh service run, cold artifact cache."""

    name = "default-serve"
    reference_name = "default-preset"

    def spec(self) -> dict:
        return default_grid(self.seed)


class ExploreServe(ServeWorkload):
    """280 short design-space jobs: service and durability dominate."""

    name = "explore-serve"
    reference_name = "explore-grid"

    def spec(self) -> dict:
        return explore_grid(self.seed)


def _pump(process: Process, announced: threading.Event,
          found: Dict[str, float]) -> None:
    """Copy the coordinator's stdout to its file, catching the port line."""
    with open(process.stdout_path, "w", encoding="utf-8") as sink:
        for line in process.popen.stdout:
            if not announced.is_set():
                match = ANNOUNCE.search(line)
                if match:
                    found["ts"] = time.monotonic()
                    found["port"] = int(match.group(1))
                    announced.set()
            sink.write(line)
    process.popen.stdout.close()
    announced.set()


#: Programs per fuzz repetition.
FUZZ_PROGRAMS = 300


class Fuzz5Way(Workload):
    name = "fuzz-5way"

    def _run(self, rep_dir: str, traced: bool, deadline: Deadline) -> Rep:
        process = self.launch(deadline, rep_dir, "main", [
            "fuzz", "--count", str(FUZZ_PROGRAMS),
            "--seed", str(self.seed * FUZZ_PROGRAMS)], traced)
        process.reap()
        notes: List[str] = []
        summary = FUZZ_SUMMARY.search(read_text(process.stdout_path))
        if summary is None:
            notes.append("fuzz printed no summary")
            failed, completed = FUZZ_PROGRAMS, 0
        else:
            completed = int(summary.group(1))
            mismatches = int(summary.group(3) or 0)
            if mismatches:
                notes.append(f"{mismatches} programs mismatched")
            failed = mismatches + max(0, FUZZ_PROGRAMS - completed)
        return self.finish([process], FUZZ_PROGRAMS, failed, completed,
                           traced, notes)


WORKLOADS = {cls.name: cls for cls in (DefaultSerial, DefaultServe,
                                       ExploreServe, Fuzz5Way)}
