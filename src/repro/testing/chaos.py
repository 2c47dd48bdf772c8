"""Fault-injection (chaos) harness for the distributed sweep service.

Every scenario drives a *real* fleet — an ``art9 serve`` coordinator and
``art9 work`` workers as separate OS processes talking TCP — while this
process plays the adversary: ``SIGKILL`` the coordinator mid-run (then
``--resume`` it), ``SIGKILL`` or ``SIGSTOP`` workers, tear the tails of
the results store and journal.  When the dust settles the finished run's
canonical records (volatile fields stripped, sorted) must be *byte
identical* to an undisturbed serial run of the same spec — the service's
whole crash-safety contract in one assertion.

Scenarios (``art9 chaos --scenario NAME``):

``kill-coordinator``
    SIGKILL the coordinator after the first records land, restart it with
    ``art9 serve --resume``; the worker fleet rides the outage on its
    reconnect backoff and the journal replay requeues whatever was leased.
``kill-worker``
    SIGKILL one of two workers mid-run; the watchdog requeues its job and
    the survivor finishes the run with zero lost jobs.
``wedge-worker``
    SIGSTOP a lone worker once it holds a job (alive TCP socket, silent
    process), start a second one, wait until the heartbeat watchdog
    requeues the frozen job, then SIGKILL the first.
``torn-tail``
    SIGKILL coordinator *and* workers, then truncate the final line of
    ``results.jsonl`` and append garbage to the journal — the torn-write
    disk state a real power loss leaves — and resume with two restarted
    workers.

The grid is dhrystone on the pipeline engine with iteration counts sized
so each job takes a fraction of a second: long enough that kills land
mid-run, short enough for CI.  ``seed`` jitters the kill timing so
repeated CI runs explore different interleavings while any one run stays
reproducible.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import repro
from repro.obs import trace
from repro.runner.spec import SweepSpec
from repro.runner.store import RunStore, canonical_record
from repro.service.journal import journal_path, replay_journal

#: Scenario names accepted by ``run_scenario`` / ``art9 chaos``.
CHAOS_SCENARIOS = ("kill-coordinator", "kill-worker", "wedge-worker",
                   "torn-tail")

#: Shared auth token every chaos fleet runs with, so the handshake path is
#: exercised by every scenario for free.
CHAOS_AUTH_TOKEN = "chaos-shared-token"

_COMPLETION_TIMEOUT = 300.0
_RECORD_POLL_TIMEOUT = 120.0


class ChaosError(RuntimeError):
    """A scenario could not be driven to a verdict (infrastructure trouble,
    timeouts) — distinct from a clean ``ok=False`` contract violation."""


@dataclass
class ChaosResult:
    """Verdict of one scenario run."""

    scenario: str
    seed: int
    ok: bool
    detail: str
    run_dir: str
    reference_dir: str
    events: List[str] = field(default_factory=list)

    def summary(self) -> str:
        verdict = "OK" if self.ok else "FAILED"
        return (f"chaos {self.scenario} (seed {self.seed}): {verdict} — "
                f"{self.detail}")


def chaos_spec() -> SweepSpec:
    """The sweep grid every scenario runs: 6 jobs of under a second."""
    return SweepSpec(
        workloads=("dhrystone",),
        engines=("pipeline",),
        optimize=(True, False),
        params={"dhrystone": [{"iterations": 120}, {"iterations": 240},
                              {"iterations": 360}]},
    )


def _free_port() -> int:
    """A currently-free TCP port the resumed coordinator can re-bind."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _cli_env() -> dict:
    """Subprocess environment that can ``python -m repro.cli``."""
    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__)))
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (package_root if not existing
                         else package_root + os.pathsep + existing)
    return env


class _Fleet:
    """Spawns and reaps the coordinator/worker subprocesses of a scenario."""

    def __init__(self, scratch: str, events: List[str]):
        self.scratch = scratch
        self.events = events
        self._env = _cli_env()
        # Workers trace their jobs next to the logs, for the upload a
        # failed CI run makes.
        self._env[trace.TRACE_ENV] = "1"
        self._env[trace.TRACE_FILE_ENV] = os.path.join(scratch, "spans.jsonl")
        self._procs: List[Tuple[str, subprocess.Popen]] = []
        self._t0 = time.monotonic()

    def log(self, message: str) -> None:
        self.events.append(f"[{time.monotonic() - self._t0:7.2f}s] {message}")

    def spawn(self, name: str, cli_args: List[str]) -> subprocess.Popen:
        log_path = os.path.join(self.scratch, f"{name}.log")
        handle = open(log_path, "w", encoding="utf-8")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *cli_args],
            stdout=handle, stderr=subprocess.STDOUT, env=self._env)
        handle.close()  # the child inherited the descriptor
        self._procs.append((name, proc))
        self.log(f"spawned {name} (pid {proc.pid}): art9 {' '.join(cli_args)}")
        return proc

    def sigkill(self, name: str, proc: subprocess.Popen) -> None:
        proc.kill()
        proc.wait()
        self.log(f"SIGKILLed {name} (pid {proc.pid})")

    def sigstop(self, name: str, proc: subprocess.Popen) -> None:
        os.kill(proc.pid, signal.SIGSTOP)
        self.log(f"SIGSTOPped {name} (pid {proc.pid})")

    def wait(self, name: str, proc: subprocess.Popen,
             timeout: float) -> int:
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise ChaosError(
                f"{name} did not finish within {timeout:.0f}s "
                f"(log: {os.path.join(self.scratch, name + '.log')})")
        self.log(f"{name} exited with code {code}")
        return code

    def reap(self) -> None:
        """Kill anything still alive (failure paths must not leak procs)."""
        for name, proc in self._procs:
            if proc.poll() is None:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(proc.pid, signal.SIGCONT)
                proc.kill()
                proc.wait()
                self.log(f"reaped {name} (pid {proc.pid})")


def _count_records(results_path: str) -> int:
    if not os.path.exists(results_path):
        return 0
    count = 0
    with open(results_path, "rb") as handle:
        for line in handle:
            if line.endswith(b"\n") and line.strip():
                count += 1
    return count


def _wait_for_records(fleet: _Fleet, results_path: str, count: int,
                      timeout: float = _RECORD_POLL_TIMEOUT) -> int:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        seen = _count_records(results_path)
        if seen >= count:
            fleet.log(f"{seen} records on disk (waited for {count})")
            return seen
        time.sleep(0.05)
    raise ChaosError(f"no {count} records within {timeout:.0f}s "
                     f"(have {_count_records(results_path)})")


def _wait_for_journal_event(fleet: _Fleet, run_dir: str, event: str,
                            timeout: float = _RECORD_POLL_TIMEOUT,
                            **match) -> dict:
    deadline = time.monotonic() + timeout
    path = journal_path(run_dir)
    while time.monotonic() < deadline:
        for entry in replay_journal(path):
            if entry.get("event") != event:
                continue
            if all(entry.get(key) == value for key, value in match.items()):
                fleet.log(f"journal shows {event} event: {entry}")
                return entry
        time.sleep(0.05)
    raise ChaosError(f"journal never showed a {event} event matching {match}")


def _tear_results_tail(path: str) -> None:
    """Truncate the final record mid-line (what a power loss leaves)."""
    with open(path, "rb") as handle:
        data = handle.read()
    if data.endswith(b"\n"):
        data = data[:-1]
    data = data[:max(0, len(data) - 9)]
    with open(path, "wb") as handle:
        handle.write(data)


def _append_journal_garbage(path: str) -> None:
    with open(path, "ab") as handle:
        handle.write(b'{"event":"leased","job_id":"torn-mid-wri')


def _serve_args(run_dir: str, spec_path: str, port: int) -> List[str]:
    return ["serve", "--out", run_dir, "--spec", spec_path,
            "--host", "127.0.0.1", "--port", str(port),
            "--heartbeat-timeout", "3", "--auth-token", CHAOS_AUTH_TOKEN]


def _resume_args(run_dir: str, port: int) -> List[str]:
    return ["serve", "--resume", run_dir,
            "--host", "127.0.0.1", "--port", str(port),
            "--heartbeat-timeout", "3", "--auth-token", CHAOS_AUTH_TOKEN]


def _worker_args(port: int, name: str) -> List[str]:
    return ["work", "--connect", f"127.0.0.1:{port}", "--name", name,
            "--auth-token", CHAOS_AUTH_TOKEN,
            # Generous budget: the coordinator outage in kill-coordinator
            # lasts seconds (python startup + journal replay), and the
            # fleet must still be there when it comes back.
            "--retry-seconds", "30", "--max-retries", "40",
            "--retry-window", "180"]


def _run_reference(spec: SweepSpec, reference_dir: str) -> None:
    """Undisturbed serial run of the same spec (the comparison baseline)."""
    from repro.runner.orchestrator import run_sweep
    outcome = run_sweep(spec, reference_dir, jobs=1)
    if not outcome.ok:
        raise ChaosError(
            f"reference serial run failed: {outcome.summary()} — the "
            "scenario verdict would be meaningless")


def _compare_canonical(run_dir: str, reference_dir: str) -> Tuple[bool, str]:
    """Byte-identity of the two runs' canonical record sets."""
    disturbed = sorted(canonical_record(record)
                       for record in RunStore(run_dir).records())
    reference = sorted(canonical_record(record)
                       for record in RunStore(reference_dir).records())
    if disturbed == reference:
        return True, (f"{len(disturbed)} canonical records byte-identical "
                      "to the undisturbed serial run")
    only_disturbed = [r for r in disturbed if r not in reference]
    only_reference = [r for r in reference if r not in disturbed]
    return False, (
        f"canonical records diverge: {len(disturbed)} vs "
        f"{len(reference)} records; {len(only_disturbed)} only in the "
        f"disturbed run, {len(only_reference)} only in the reference "
        f"(first diff: {(only_disturbed or only_reference)[0][:200]})")


def _lost_records(run_dir: str) -> List[dict]:
    return [record for record in RunStore(run_dir).records()
            if "lost after" in str(record.get("error", ""))]


def _write_spec(spec: SweepSpec, scratch: str) -> str:
    spec_path = os.path.join(scratch, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump(spec.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return spec_path


# -- scenarios ---------------------------------------------------------------


def _scenario_kill_coordinator(fleet: _Fleet, spec_path: str, run_dir: str,
                               rng: random.Random) -> List[str]:
    port = _free_port()
    results = os.path.join(run_dir, "results.jsonl")
    serve = fleet.spawn("serve", _serve_args(run_dir, spec_path, port))
    workers = [fleet.spawn(f"worker-{i}", _worker_args(port, f"chaos-w{i}"))
               for i in range(2)]
    _wait_for_records(fleet, results, 2)
    time.sleep(rng.uniform(0.0, 0.3))
    fleet.sigkill("serve", serve)
    resume = fleet.spawn("serve-resume", _resume_args(run_dir, port))
    code = fleet.wait("serve-resume", resume, _COMPLETION_TIMEOUT)
    problems = [] if code == 0 else [f"resumed coordinator exited {code}"]
    for i, worker in enumerate(workers):
        wcode = fleet.wait(f"worker-{i}", worker, 60.0)
        if wcode != 0:
            problems.append(f"worker-{i} exited {wcode} "
                            "(should ride out the outage and finish)")
    return problems


def _scenario_kill_worker(fleet: _Fleet, spec_path: str, run_dir: str,
                          rng: random.Random) -> List[str]:
    port = _free_port()
    results = os.path.join(run_dir, "results.jsonl")
    serve = fleet.spawn("serve", _serve_args(run_dir, spec_path, port))
    victim = fleet.spawn("worker-0", _worker_args(port, "chaos-victim"))
    survivor = fleet.spawn("worker-1", _worker_args(port, "chaos-survivor"))
    _wait_for_records(fleet, results, 1)
    time.sleep(rng.uniform(0.0, 0.3))
    fleet.sigkill("worker-0", victim)
    problems = []
    if fleet.wait("serve", serve, _COMPLETION_TIMEOUT) != 0:
        problems.append("coordinator exited non-zero after losing a worker")
    if fleet.wait("worker-1", survivor, 60.0) != 0:
        problems.append("surviving worker exited non-zero")
    lost = _lost_records(run_dir)
    if lost:
        problems.append(f"{len(lost)} jobs declared lost (a killed worker's "
                        "jobs must be requeued, not lost)")
    return problems


def _scenario_wedge_worker(fleet: _Fleet, spec_path: str, run_dir: str,
                           rng: random.Random) -> List[str]:
    port = _free_port()
    serve = fleet.spawn("serve", _serve_args(run_dir, spec_path, port))
    victim = fleet.spawn("worker-0", _worker_args(port, "chaos-wedged"))
    # The victim runs alone until it holds a lease, and the grid outlasts
    # this short jitter, so a job is always frozen in its hands.
    _wait_for_journal_event(fleet, run_dir, "leased", worker="chaos-wedged")
    time.sleep(rng.uniform(0.0, 0.05))
    fleet.sigstop("worker-0", victim)
    fleet.spawn("worker-1", _worker_args(port, "chaos-survivor"))
    # The socket stays open but the process is frozen: only the heartbeat
    # watchdog can notice.  Wait for its requeue, then finish the victim.
    _wait_for_journal_event(fleet, run_dir, "requeued",
                            kind="heartbeat-timeout")
    fleet.sigkill("worker-0", victim)
    problems = []
    if fleet.wait("serve", serve, _COMPLETION_TIMEOUT) != 0:
        problems.append("coordinator exited non-zero after a wedged worker")
    lost = _lost_records(run_dir)
    if lost:
        problems.append(f"{len(lost)} jobs declared lost after one wedge "
                        "(requeue budget should absorb it)")
    return problems


def _scenario_torn_tail(fleet: _Fleet, spec_path: str, run_dir: str,
                        rng: random.Random) -> List[str]:
    port = _free_port()
    results = os.path.join(run_dir, "results.jsonl")
    serve = fleet.spawn("serve", _serve_args(run_dir, spec_path, port))
    workers = [fleet.spawn(f"worker-{i}", _worker_args(port, f"chaos-w{i}"))
               for i in range(2)]
    _wait_for_records(fleet, results, 2)
    time.sleep(rng.uniform(0.0, 0.2))
    fleet.sigkill("serve", serve)
    for i, worker in enumerate(workers):
        fleet.sigkill(f"worker-{i}", worker)
    # Simulate the torn writes a real power loss leaves behind: the last
    # record loses its tail, the journal gains a half-written event.
    _tear_results_tail(results)
    _append_journal_garbage(journal_path(run_dir))
    fleet.log("tore results.jsonl tail and appended garbage to the journal")
    resume = fleet.spawn("serve-resume", _resume_args(run_dir, port))
    # The restarted workers keep their names, so they are the workers the
    # journal says the resumed run owes a ``done``.
    workers = [fleet.spawn(f"worker-{i}-restarted",
                           _worker_args(port, f"chaos-w{i}"))
               for i in range(2)]
    code = fleet.wait("serve-resume", resume, _COMPLETION_TIMEOUT)
    problems = [] if code == 0 else [f"resumed coordinator exited {code}"]
    for i, worker in enumerate(workers):
        wcode = fleet.wait(f"worker-{i}-restarted", worker, 60.0)
        if wcode != 0:
            problems.append(f"restarted worker-{i} exited {wcode}")
    return problems


_SCENARIO_FUNCS = {
    "kill-coordinator": _scenario_kill_coordinator,
    "kill-worker": _scenario_kill_worker,
    "wedge-worker": _scenario_wedge_worker,
    "torn-tail": _scenario_torn_tail,
}


def run_scenario(scenario: str, seed: int = 0,
                 out_dir: Optional[str] = None,
                 keep: bool = False) -> ChaosResult:
    """Drive one fault-injection scenario end to end and return the verdict.

    The scratch directory holds the disturbed run, the serial reference
    run, one ``.log`` per subprocess, the journal and the spans — exactly
    what a CI job wants to upload when the verdict is FAILED.
    """
    if scenario not in _SCENARIO_FUNCS:
        raise ChaosError(f"unknown scenario {scenario!r}; "
                         f"known: {list(CHAOS_SCENARIOS)}")
    scratch = out_dir or tempfile.mkdtemp(prefix=f"art9-chaos-{scenario}-")
    os.makedirs(scratch, exist_ok=True)
    run_dir = os.path.join(scratch, "disturbed")
    reference_dir = os.path.join(scratch, "reference")
    events: List[str] = []
    fleet = _Fleet(scratch, events)
    spec = chaos_spec()
    try:
        spec_path = _write_spec(spec, scratch)
        rng = random.Random(seed)
        problems = _SCENARIO_FUNCS[scenario](fleet, spec_path, run_dir, rng)
        _run_reference(spec, reference_dir)
        identical, compare_detail = _compare_canonical(run_dir, reference_dir)
        if not identical:
            problems.append(compare_detail)
        if not replay_journal(journal_path(run_dir)):
            problems.append("run finished without any journal events")
        ok = not problems
        detail = compare_detail if ok else "; ".join(problems)
        fleet.log(f"verdict: {'OK' if ok else 'FAILED'} — {detail}")
        result = ChaosResult(scenario=scenario, seed=seed, ok=ok,
                             detail=detail, run_dir=run_dir,
                             reference_dir=reference_dir, events=events)
    finally:
        fleet.reap()
    if result.ok and not keep and out_dir is None:
        shutil.rmtree(scratch, ignore_errors=True)
    return result
