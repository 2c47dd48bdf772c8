"""Worker-resilience and auth tests: reconnect, budgets, timeouts, tokens.

Same shape as the coordinator fault tests — one asyncio loop, real TCP on
loopback, stub executors — but the faults here target the *worker's*
survival machinery: coordinator restarts it must ride out, retry budgets
it must respect, hung jobs it must cut loose, and handshakes it must pass
(or fail deterministically).
"""

import asyncio
import contextlib
import socket
import threading
import time

import pytest

from repro.runner.spec import SweepJob
from repro.service import coordinator as coordinator_module
from repro.service import workerclient
from repro.service.coordinator import Coordinator
from repro.service.journal import RunJournal, journal_path, recover_run
from repro.service.protocol import read_message, send_and_drain, token_matches
from repro.service.workerclient import (
    WorkerSummary,
    request_status,
    timeout_job_record,
    work_async,
)


def _jobs(count):
    return [
        SweepJob("bubble_sort", "fast", True, params=(("length", 4 + 2 * i),))
        for i in range(count)
    ]


def _stub_executor(job):
    return {"job_id": job.job_id, "label": job.label, "status": "ok",
            "verified": True, "cycles": 1}


async def _wait_until(predicate, timeout=10.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError("condition not reached in time")
        await asyncio.sleep(0.01)


class TestTokenMatches:
    def test_no_expected_token_admits_everyone(self):
        assert token_matches(None, None)
        assert token_matches(None, "anything")

    def test_comparison_is_exact(self):
        assert token_matches("secret", "secret")
        assert not token_matches("secret", "Secret")
        assert not token_matches("secret", "secret ")

    def test_non_strings_fail_closed(self):
        assert not token_matches("secret", None)
        assert not token_matches("secret", 17)
        assert not token_matches("secret", ["secret"])


class TestReconnect:
    def test_worker_rides_out_a_coordinator_restart(self):
        jobs = _jobs(4)
        records = []

        async def scenario():
            first = Coordinator(jobs, on_result=records.append)
            serve1 = asyncio.create_task(first.serve())
            port = await first.wait_started()

            def slowish(job):
                time.sleep(0.05)
                return _stub_executor(job)

            worker = asyncio.create_task(
                work_async("127.0.0.1", port, name="steady",
                           executor=slowish, max_retries=30,
                           retry_window=30.0))
            await _wait_until(lambda: len(records) >= 2)
            # Crash the first coordinator (no done broadcast: the run is
            # not finished, so the worker must treat this as an outage).
            serve1.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await serve1
            done_ids = {record["job_id"] for record in records}
            remaining = [job for job in jobs if job.job_id not in done_ids]
            assert remaining, "restart must happen mid-run"
            second = Coordinator(remaining, on_result=records.append,
                                 port=port)
            serve2 = asyncio.create_task(second.serve())
            await second.wait_started()
            await serve2
            return await worker

        summary = asyncio.run(scenario())
        assert summary.outcome == "done"
        assert summary.reconnects >= 1
        assert {record["job_id"] for record in records} == \
            {job.job_id for job in jobs}
        # The in-flight record may have been re-sent to the restarted
        # coordinator, but never twice into the results.
        assert len(records) == len(jobs)

    def test_worker_backing_off_hears_done_from_the_resumed_run(
            self, tmp_path):
        # The coordinator dies while "lagging" runs a job.  A resumed
        # coordinator completes the run with another worker before
        # "lagging" notices the loss; its reconnect must still hear
        # ``done``, not a closed port that burns its retry budget into
        # "gave-up".
        jobs = _jobs(2)
        records = []
        release = threading.Event()

        def held(job):
            release.wait(10.0)
            return _stub_executor(job)

        async def scenario():
            first = Coordinator(
                jobs, journal=RunJournal(journal_path(str(tmp_path))))
            serve1 = asyncio.create_task(first.serve())
            port = await first.wait_started()
            lagging = asyncio.create_task(
                work_async("127.0.0.1", port, name="lagging", executor=held,
                           max_retries=3))
            await _wait_until(
                lambda: first.status_snapshot()["in_flight"] == 1)
            serve1.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await serve1
            recovery = recover_run(str(tmp_path))
            assert recovery.workers == {"lagging"}
            second = Coordinator(jobs, on_result=records.append, port=port,
                                 returning_workers=recovery.workers)
            serve2 = asyncio.create_task(second.serve())
            await second.wait_started()
            rescuer = await work_async("127.0.0.1", port, name="rescuer",
                                       executor=_stub_executor)
            assert second.outstanding == 0
            # Only now does the held job finish, on the dead connection.
            release.set()
            start = asyncio.get_running_loop().time()
            summary = await lagging
            stats = await serve2
            return (rescuer, summary, stats,
                    asyncio.get_running_loop().time() - start)

        try:
            rescuer, lagging, stats, elapsed = asyncio.run(scenario())
        finally:
            release.set()
        assert rescuer.outcome == "done" and rescuer.jobs_completed == 2
        assert lagging.outcome == "done", lagging.detail
        assert lagging.reconnects == 1
        # Its re-sent record was dropped, and the coordinator stopped
        # waiting as soon as the one returning worker heard ``done``.
        assert stats.duplicate_results == 1
        assert len(records) == len(jobs)
        assert elapsed < 5.0

    def test_done_grace_for_a_returning_worker_is_bounded(self,
                                                          monkeypatch):
        # A returning worker that died with the old coordinator never
        # comes back: the completed run waits DONE_GRACE_SECONDS, no more.
        monkeypatch.setattr(coordinator_module, "DONE_GRACE_SECONDS", 0.3)

        async def scenario():
            coordinator = Coordinator(_jobs(1), returning_workers={"gone"})
            serve = asyncio.create_task(coordinator.serve())
            port = await coordinator.wait_started()
            summary = await work_async("127.0.0.1", port, name="alive",
                                       executor=_stub_executor)
            start = asyncio.get_running_loop().time()
            await serve
            return summary, asyncio.get_running_loop().time() - start

        summary, elapsed = asyncio.run(scenario())
        assert summary.outcome == "done"
        assert 0.2 <= elapsed < 5.0

    def test_retry_budget_exhausts_into_gave_up(self):
        jobs = _jobs(1)

        async def scenario():
            coordinator = Coordinator(jobs)
            serve = asyncio.create_task(coordinator.serve())
            port = await coordinator.wait_started()

            def executor(job):
                time.sleep(0.1)
                return _stub_executor(job)

            worker = asyncio.create_task(
                work_async("127.0.0.1", port, name="hopeful",
                           executor=executor, max_retries=2,
                           retry_window=30.0))
            await _wait_until(lambda: coordinator.connected_workers > 0)
            # Kill the coordinator before the run finishes and never bring
            # it back: the worker's budget must bound its patience.
            serve.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await serve
            return await worker

        summary = asyncio.run(scenario())
        assert summary.outcome == "gave-up"
        assert "reconnect attempts" in summary.detail or \
            "no coordinator" in summary.detail

    def test_idle_worker_gets_the_shutdown_done_broadcast(self):
        # One job, two workers: the idle worker must be told the run is
        # over instead of seeing a dead socket and burning its backoff
        # budget (which would also make this test take ~30s).
        jobs = _jobs(1)

        async def scenario():
            coordinator = Coordinator(jobs)
            serve = asyncio.create_task(coordinator.serve())
            port = await coordinator.wait_started()

            def slow(job):
                time.sleep(0.3)
                return _stub_executor(job)

            start = asyncio.get_running_loop().time()
            summaries = await asyncio.gather(
                work_async("127.0.0.1", port, name="busy", executor=slow),
                work_async("127.0.0.1", port, name="idle",
                           executor=_stub_executor),
            )
            await serve
            return summaries, asyncio.get_running_loop().time() - start

        summaries, elapsed = asyncio.run(scenario())
        assert all(summary.outcome == "done" for summary in summaries)
        assert all(summary.reconnects == 0 for summary in summaries)
        assert elapsed < 5.0


class TestResultRedelivery:
    def test_unacknowledged_record_is_resent_after_reconnect(self):
        # Take the worker's result, never reply, close the connection: the
        # worker must re-deliver it (flagged "resumed") instead of
        # re-running or dropping the job.
        jobs = _jobs(1)
        records = []
        resumed_flags = []

        async def scenario():
            # A hand-rolled coordinator stand-in that dies after reading
            # the first result.
            first_result = asyncio.Event()

            async def flaky_handler(reader, writer):
                while True:
                    message = await read_message(reader)
                    if message is None:
                        break
                    if message["type"] == "hello":
                        continue
                    if message["type"] == "next":
                        await send_and_drain(writer, {
                            "type": "job", "job_id": jobs[0].job_id,
                            "job": jobs[0].to_dict(),
                            "heartbeat_every": 1.0})
                        continue
                    if message["type"] == "result":
                        first_result.set()
                        writer.close()  # crash before acknowledging
                        with contextlib.suppress(ConnectionError, OSError):
                            await writer.wait_closed()
                        return

            flaky = await asyncio.start_server(flaky_handler, "127.0.0.1", 0)
            port = flaky.sockets[0].getsockname()[1]
            worker = asyncio.create_task(
                work_async("127.0.0.1", port, name="persistent",
                           executor=_stub_executor, max_retries=20,
                           retry_window=20.0))
            await first_result.wait()
            flaky.close()
            await flaky.wait_closed()

            # The real coordinator takes over the same port and must
            # receive the re-sent record without the job ever running
            # again on its watch.
            async def real_handler(reader, writer):
                while True:
                    message = await read_message(reader)
                    if message is None:
                        break
                    if message["type"] == "result":
                        records.append(message["record"])
                        resumed_flags.append(message.get("resumed", False))
                        await send_and_drain(writer, {"type": "done"})
                        break
                writer.close()
                with contextlib.suppress(ConnectionError, OSError):
                    await writer.wait_closed()
            real = await asyncio.start_server(real_handler, "127.0.0.1", port)
            summary = await worker
            real.close()
            await real.wait_closed()
            return summary

        summary = asyncio.run(scenario())
        assert summary.outcome == "done"
        assert len(records) == 1
        assert records[0]["job_id"] == jobs[0].job_id
        assert resumed_flags == [True]
        # The job executed once: the redelivery was a resend, not a rerun.
        assert summary.jobs_completed == 1

    def test_resent_record_for_an_already_done_job_is_refused(self):
        # A worker re-sends a record whose job the (restarted) coordinator
        # never enqueued because results.jsonl already had it: accounting
        # must not budge.
        jobs = _jobs(2)
        records = []
        coordinator = Coordinator(jobs, on_result=records.append)

        async def scenario():
            serve = asyncio.create_task(coordinator.serve())
            port = await coordinator.wait_started()
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            await send_and_drain(writer, {"type": "hello",
                                          "worker": "ghost", "pid": 0})
            stale = {"job_id": "0" * 12, "label": "stale", "status": "ok"}
            await send_and_drain(writer, {"type": "result", "record": stale,
                                          "resumed": True})
            reply = await read_message(reader)  # still served an assignment
            assert reply["type"] == "job"
            writer.close()
            await asyncio.gather(
                work_async("127.0.0.1", port, name="real",
                           executor=_stub_executor),
                serve)

        asyncio.run(scenario())
        assert coordinator.stats.unknown_results == 1
        assert coordinator.stats.results_accepted == 2
        assert {record["job_id"] for record in records} == \
            {job.job_id for job in jobs}


class TestJobTimeout:
    def test_hung_job_yields_timeout_record_and_worker_lives_on(self):
        jobs = _jobs(2)
        hang_id = jobs[0].job_id
        records = []
        coordinator = Coordinator(jobs, on_result=records.append)

        def executor(job):
            if job.job_id == hang_id:
                time.sleep(0.8)  # far past the budget
            return _stub_executor(job)

        async def scenario():
            serve = asyncio.create_task(coordinator.serve())
            port = await coordinator.wait_started()
            summary, stats = await asyncio.gather(
                work_async("127.0.0.1", port, name="bounded",
                           executor=executor, job_timeout=0.15),
                serve)
            return summary

        summary = asyncio.run(scenario())
        assert summary.outcome == "done"
        assert summary.timeouts == 1
        by_id = {record["job_id"]: record for record in records}
        assert len(by_id) == 2
        timed_out = by_id[hang_id]
        assert timed_out["status"] == "error"
        assert "wall-clock execution timeout" in timed_out["error"]
        # The other job completed normally on the same worker.
        assert any(record.get("status") == "ok" for record in records)

    def test_timeout_record_shape_matches_job_identity(self):
        job = _jobs(1)[0]
        record = timeout_job_record(job, 2.5)
        assert record["job_id"] == job.job_id
        assert record["label"] == job.label
        assert record["status"] == "error"
        assert "2.5s" in record["error"]
        assert record["workload"] == job.workload


class TestWorkerSummary:
    """The line ``art9 work`` prints is where the session's reconnect and
    timeout counts are read."""

    @pytest.mark.parametrize("fields, extras", [
        ({}, ""),
        ({"reconnects": 2}, " (2 reconnects)"),
        ({"reconnects": 2, "timeouts": 1}, " (2 reconnects, 1 job timeouts)"),
        ({"outcome": "rejected"}, " (rejected)"),
        ({"timeouts": 1, "outcome": "gave-up", "detail": "budget spent"},
         " (1 job timeouts, gave-up: budget spent)"),
    ], ids=["clean", "reconnects", "reconnects-and-timeouts", "rejected",
            "gave-up-with-detail"])
    def test_summary_line(self, fields, extras):
        summary = WorkerSummary("w1", jobs_completed=3, **fields)
        assert summary.summary() == f"worker w1: 3 jobs completed{extras}"


class TestAuth:
    def test_bad_token_is_rejected_deterministically(self):
        jobs = _jobs(2)
        records = []
        coordinator = Coordinator(jobs, on_result=records.append,
                                  auth_token="sesame")

        async def scenario():
            serve = asyncio.create_task(coordinator.serve())
            port = await coordinator.wait_started()
            intruder = await work_async("127.0.0.1", port, name="intruder",
                                        executor=_stub_executor,
                                        auth_token="wrong")
            legit, _ = await asyncio.gather(
                work_async("127.0.0.1", port, name="legit",
                           executor=_stub_executor, auth_token="sesame"),
                serve)
            return intruder, legit

        intruder, legit = asyncio.run(scenario())
        assert intruder.outcome == "rejected"
        assert intruder.jobs_completed == 0
        assert "token" in intruder.detail
        assert legit.outcome == "done"
        assert legit.jobs_completed == 2
        assert coordinator.stats.auth_failures >= 1

    def test_unauthenticated_messages_cannot_pull_or_inject(self):
        jobs = _jobs(1)
        records = []
        coordinator = Coordinator(jobs, on_result=records.append,
                                  auth_token="sesame")

        async def scenario():
            serve = asyncio.create_task(coordinator.serve())
            port = await coordinator.wait_started()
            # No hello at all: a stray client goes straight for a job.
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            await send_and_drain(writer, {"type": "next"})
            reply = await read_message(reader)
            assert reply["type"] == "error"
            writer.close()
            # And one trying to inject a result.
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            await send_and_drain(writer, {
                "type": "result",
                "record": {"job_id": jobs[0].job_id, "status": "ok"}})
            reply = await read_message(reader)
            assert reply["type"] == "error"
            writer.close()
            await asyncio.gather(
                work_async("127.0.0.1", port, name="legit",
                           executor=_stub_executor, auth_token="sesame"),
                serve)

        asyncio.run(scenario())
        assert coordinator.stats.results_accepted == 1
        assert records[0]["job_id"] == jobs[0].job_id
        assert records[0].get("verified") is True  # the stub's, not the fake

    def test_too_new_protocol_is_refused(self):
        coordinator = Coordinator(_jobs(1))

        async def scenario():
            serve = asyncio.create_task(coordinator.serve())
            port = await coordinator.wait_started()
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            await send_and_drain(writer, {"type": "hello", "worker": "next",
                                          "pid": 0, "protocol": 99})
            reply = await read_message(reader)
            assert reply["type"] == "error"
            assert "protocol" in reply["error"]
            writer.close()
            await asyncio.gather(
                work_async("127.0.0.1", port, executor=_stub_executor),
                serve)

        asyncio.run(scenario())

    def test_status_probe_needs_the_token_too(self):
        jobs = _jobs(1)
        coordinator = Coordinator(jobs, auth_token="sesame",
                                  on_result=lambda record: None)

        async def scenario():
            serve = asyncio.create_task(coordinator.serve())
            port = await coordinator.wait_started()
            loop = asyncio.get_running_loop()
            with pytest.raises(ConnectionError):
                await loop.run_in_executor(
                    None, lambda: request_status("127.0.0.1", port))
            status = await loop.run_in_executor(
                None, lambda: request_status("127.0.0.1", port,
                                             token="sesame"))
            assert status["jobs_total"] == 1
            await asyncio.gather(
                work_async("127.0.0.1", port, name="legit",
                           executor=_stub_executor, auth_token="sesame"),
                serve)

        asyncio.run(scenario())


class TestRequeueReasons:
    def test_status_distinguishes_disconnects_from_heartbeat_loss(self):
        jobs = _jobs(2)
        records = []
        coordinator = Coordinator(jobs, on_result=records.append,
                                  heartbeat_timeout=0.3)

        async def scenario():
            serve = asyncio.create_task(coordinator.serve())
            port = await coordinator.wait_started()
            # Worker 1 takes a job and disconnects.
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            await send_and_drain(writer, {"type": "hello",
                                          "worker": "flaky-link", "pid": 0})
            await send_and_drain(writer, {"type": "next"})
            assert (await read_message(reader))["type"] == "job"
            writer.close()
            # Worker 2 takes a job and wedges (socket open, no beats).
            reader2, writer2 = await asyncio.open_connection("127.0.0.1",
                                                             port)
            await send_and_drain(writer2, {"type": "hello",
                                           "worker": "wedged", "pid": 0})
            await send_and_drain(writer2, {"type": "next"})
            assert (await read_message(reader2))["type"] == "job"
            await _wait_until(lambda: coordinator.stats.requeues >= 2,
                              timeout=5.0)
            snapshot = coordinator.status_snapshot()
            writer2.close()
            await asyncio.gather(
                work_async("127.0.0.1", port, name="closer",
                           executor=_stub_executor),
                serve)
            return snapshot

        snapshot = asyncio.run(scenario())
        assert snapshot["workers"]["flaky-link"]["requeue_reasons"] == \
            {"disconnect": 1}
        assert snapshot["workers"]["wedged"]["requeue_reasons"] == \
            {"heartbeat-timeout": 1}


async def _stops_within(worker, seconds=1.0):
    done, _ = await asyncio.wait((worker,), timeout=seconds)
    assert done, f"worker still running {seconds}s after its cancellation"
    assert worker.cancelled(), worker.result()


async def _stop(server_task):
    server_task.cancel()
    with contextlib.suppress(asyncio.CancelledError):
        await server_task


class TestCancellation:
    """``worker.cancel()`` stops ``work_async`` promptly in every state."""

    def test_while_connecting(self):
        async def scenario():
            with socket.socket() as probe:  # a port nothing listens on
                probe.bind(("127.0.0.1", 0))
                port = probe.getsockname()[1]
            worker = asyncio.create_task(
                work_async("127.0.0.1", port, executor=_stub_executor,
                           retry_seconds=30.0))
            await asyncio.sleep(0.3)
            assert not worker.done()
            worker.cancel()
            await _stops_within(worker)

        asyncio.run(scenario())

    def test_while_awaiting_a_reply(self, monkeypatch):
        async def scenario():
            coordinator = Coordinator(_jobs(1))
            serve = asyncio.create_task(coordinator.serve())
            port = await coordinator.wait_started()
            worker = None

            async def read_as_cancelled(reader):
                # The read completes in the same step the worker is
                # cancelled, as when the coordinator hangs up on a cancel.
                worker.cancel()
                return None

            monkeypatch.setattr(workerclient, "read_message",
                                read_as_cancelled)
            worker = asyncio.create_task(
                work_async("127.0.0.1", port, executor=_stub_executor,
                           max_retries=0))
            await _stops_within(worker)
            await _stop(serve)

        asyncio.run(scenario())

    def test_mid_job(self):
        started, release = threading.Event(), threading.Event()

        def blocked(job):
            started.set()
            release.wait(10.0)
            return _stub_executor(job)

        async def scenario():
            coordinator = Coordinator(_jobs(1))
            serve = asyncio.create_task(coordinator.serve())
            port = await coordinator.wait_started()
            worker = asyncio.create_task(
                work_async("127.0.0.1", port, executor=blocked))
            try:
                await _wait_until(started.is_set)
                worker.cancel()
                await _stops_within(worker)
            finally:
                release.set()
            await _stop(serve)

        asyncio.run(scenario())

    def test_while_stopping_the_heartbeat(self, monkeypatch):
        def brief(job):
            time.sleep(0.05)  # the heartbeat task starts first
            return _stub_executor(job)

        async def scenario():
            coordinator = Coordinator(_jobs(1))
            serve = asyncio.create_task(coordinator.serve())
            port = await coordinator.wait_started()
            worker = None

            async def heartbeat(writer, job_id, interval):
                try:
                    await asyncio.sleep(3600)
                except asyncio.CancelledError:
                    # The worker is cancelled while it waits for the
                    # heartbeat it just cancelled to finish.
                    worker.cancel()
                    raise

            monkeypatch.setattr(workerclient, "_heartbeat_loop", heartbeat)
            worker = asyncio.create_task(
                work_async("127.0.0.1", port, executor=brief,
                           max_retries=0))
            await _stops_within(worker)
            await _stop(serve)

        asyncio.run(scenario())

    def test_while_backing_off(self, monkeypatch):
        # A first reconnect delay of at least 5 s: the cancel lands in it.
        monkeypatch.setattr(workerclient, "BACKOFF_BASE_SECONDS", 30.0)

        async def scenario():
            hung_up = asyncio.Event()

            async def hang_up(reader, writer):
                await read_message(reader)  # the worker's hello
                writer.close()
                hung_up.set()

            server = await asyncio.start_server(hang_up, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            worker = asyncio.create_task(
                work_async("127.0.0.1", port, executor=_stub_executor))
            await asyncio.wait_for(hung_up.wait(), 5.0)
            await asyncio.sleep(0.1)  # the worker reads EOF, then backs off
            assert not worker.done()
            worker.cancel()
            await _stops_within(worker)
            server.close()
            await server.wait_closed()

        asyncio.run(scenario())
