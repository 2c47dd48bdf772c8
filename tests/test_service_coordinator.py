"""Fault-injection tests for the distributed sweep coordinator.

Everything runs inside one asyncio event loop with real TCP connections on
loopback, but with an injected stub executor so no simulation cost hides
the protocol behaviour.  The faults injected are the ones the coordinator
promises to survive: workers that vanish mid-job, workers that wedge
without closing their socket (heartbeat loss), poison jobs that kill every
worker they touch, and results arriving after the job was already
completed elsewhere.
"""

import asyncio
import collections
import hashlib
from types import SimpleNamespace

import pytest

from repro.runner import spec
from repro.runner.spec import SweepJob
from repro.service.coordinator import Coordinator, lost_job_record
from repro.service.protocol import read_message, send_and_drain
from repro.service.workerclient import work_async


def _jobs(count):
    """Distinct, content-addressed jobs (never executed for real here)."""
    return [
        SweepJob("bubble_sort", "fast", True, params=(("length", 4 + 2 * i),))
        for i in range(count)
    ]


def _stub_executor(job):
    return {"job_id": job.job_id, "label": job.label, "status": "ok",
            "verified": True, "cycles": 1}


async def _raw_client(host, port):
    reader, writer = await asyncio.open_connection(host, port)
    await send_and_drain(writer, {"type": "hello", "worker": "faulty", "pid": 0})
    return reader, writer


async def _take_job(reader, writer):
    await send_and_drain(writer, {"type": "next"})
    message = await read_message(reader)
    assert message["type"] == "job"
    return message


class TestHappyPath:
    def test_two_workers_drain_the_queue(self):
        records = []
        coordinator = Coordinator(_jobs(6), on_result=records.append)

        async def scenario():
            serve = asyncio.create_task(coordinator.serve())
            port = await coordinator.wait_started()
            await asyncio.gather(
                work_async("127.0.0.1", port, name="w1", executor=_stub_executor),
                work_async("127.0.0.1", port, name="w2", executor=_stub_executor),
                serve,
            )

        asyncio.run(scenario())
        assert len(records) == 6
        assert len({record["job_id"] for record in records}) == 6
        assert coordinator.stats.workers_seen == 2
        assert coordinator.stats.results_accepted == 6
        assert coordinator.stats.lost_jobs == 0
        assert sorted(coordinator.status_snapshot()["workers"]) == ["w1", "w2"]

    def test_empty_job_list_finishes_without_listening(self):
        coordinator = Coordinator([])
        stats = asyncio.run(coordinator.serve())
        assert stats.results_accepted == 0
        assert coordinator.outstanding == 0

    def test_worker_waits_while_last_job_is_in_flight(self):
        """A second worker polls through ``wait`` replies, then gets done."""
        records = []
        coordinator = Coordinator(_jobs(1), on_result=records.append,
                                  heartbeat_timeout=5.0)
        wait_seen = []

        async def slow_executor_client(port):
            def slow(job):
                # Keep the job in flight long enough for the other worker
                # to ask for work and be told to wait (runs in the executor
                # thread, so the blocking sleep is fine).
                import time
                time.sleep(0.3)
                return _stub_executor(job)
            await work_async("127.0.0.1", port, name="slow", executor=slow)

        async def observing_client(port):
            reader, writer = await _raw_client("127.0.0.1", port)
            await send_and_drain(writer, {"type": "next"})
            while True:
                message = await read_message(reader)
                if message is None or message["type"] == "done":
                    break
                assert message["type"] == "wait"
                wait_seen.append(message)
                await asyncio.sleep(message["delay"])
                await send_and_drain(writer, {"type": "next"})
            writer.close()

        async def scenario():
            serve = asyncio.create_task(coordinator.serve())
            port = await coordinator.wait_started()
            slow = asyncio.create_task(slow_executor_client(port))
            await asyncio.sleep(0.1)  # let the slow worker take the job
            await asyncio.gather(observing_client(port), slow, serve)

        asyncio.run(scenario())
        assert len(records) == 1
        assert wait_seen, "the idle worker should have been told to wait"


class TestFaultInjection:
    def test_disconnect_mid_job_requeues_to_another_worker(self):
        records = []
        coordinator = Coordinator(_jobs(3), on_result=records.append)

        async def faulty_then_good(port):
            reader, writer = await _raw_client("127.0.0.1", port)
            await _take_job(reader, writer)
            writer.close()  # dies mid-job without a result
            await writer.wait_closed()
            await work_async("127.0.0.1", port, name="good",
                             executor=_stub_executor)

        async def scenario():
            serve = asyncio.create_task(coordinator.serve())
            port = await coordinator.wait_started()
            await asyncio.gather(faulty_then_good(port), serve)

        asyncio.run(scenario())
        assert coordinator.stats.requeues == 1
        assert len(records) == 3
        assert all(record["status"] == "ok" for record in records)

    def test_missed_heartbeats_requeue_while_connection_stays_open(self):
        records = []
        coordinator = Coordinator(_jobs(2), on_result=records.append,
                                  heartbeat_timeout=0.25)

        async def wedged_client(port):
            """Takes a job, then goes silent without closing the socket."""
            reader, writer = await _raw_client("127.0.0.1", port)
            await _take_job(reader, writer)
            try:
                await asyncio.sleep(30)  # cancelled when the test finishes
            finally:
                writer.close()

        async def scenario():
            serve = asyncio.create_task(coordinator.serve())
            port = await coordinator.wait_started()
            wedged = asyncio.create_task(wedged_client(port))
            await asyncio.sleep(0.05)  # wedged worker grabs the first job
            await work_async("127.0.0.1", port, name="good",
                             executor=_stub_executor)
            await serve
            wedged.cancel()

        asyncio.run(scenario())
        assert coordinator.stats.requeues >= 1
        assert len(records) == 2
        assert all(record["status"] == "ok" for record in records)

    def test_late_result_after_requeue_still_counts_once(self):
        """The wedged worker recovers and reports before anyone else: its
        record is accepted and the requeued duplicate dispatch is dropped."""
        records = []
        coordinator = Coordinator(_jobs(1), on_result=records.append,
                                  heartbeat_timeout=0.2)

        async def recovering_client(port):
            reader, writer = await _raw_client("127.0.0.1", port)
            message = await _take_job(reader, writer)
            await asyncio.sleep(0.5)  # long enough for the watchdog to fire
            record = {"job_id": message["job_id"], "status": "ok",
                      "verified": True, "cycles": 1}
            await send_and_drain(writer, {"type": "result", "record": record})
            reply = await read_message(reader)
            assert reply["type"] == "done"
            writer.close()

        async def scenario():
            serve = asyncio.create_task(coordinator.serve())
            port = await coordinator.wait_started()
            await asyncio.gather(recovering_client(port), serve)

        asyncio.run(scenario())
        assert coordinator.stats.requeues == 1      # the watchdog did fire
        assert coordinator.stats.results_accepted == 1
        assert len(records) == 1                    # but nothing ran twice

    def test_duplicate_results_are_dropped(self):
        records = []
        job = _jobs(1)[0]
        coordinator = Coordinator([job], on_result=records.append)
        record = _stub_executor(job)
        assert coordinator._accept(dict(record)) is True
        assert coordinator._accept(dict(record)) is False
        assert len(records) == 1
        assert coordinator.stats.duplicate_results == 1

    def test_malformed_results_are_counted_separately(self):
        records = []
        coordinator = Coordinator(_jobs(1), on_result=records.append)
        assert coordinator._accept({"cycles": 5}) is False  # no job_id
        assert records == []
        assert coordinator.stats.malformed_results == 1
        assert coordinator.stats.duplicate_results == 0
        assert "malformed" in coordinator.stats.summary()

    def test_poison_job_is_declared_lost(self):
        records = []
        coordinator = Coordinator(_jobs(1), on_result=records.append,
                                  max_requeues=1)

        async def crash_on_job(port):
            reader, writer = await _raw_client("127.0.0.1", port)
            await _take_job(reader, writer)
            writer.close()
            await writer.wait_closed()

        async def scenario():
            serve = asyncio.create_task(coordinator.serve())
            port = await coordinator.wait_started()
            # Two dispatch attempts, both "crash" the worker.
            await crash_on_job(port)
            await crash_on_job(port)
            await serve

        asyncio.run(scenario())
        assert coordinator.stats.lost_jobs == 1
        assert len(records) == 1
        assert records[0]["status"] == "error"
        assert "lost after" in records[0]["error"]

    def test_abort_completes_everything_as_lost(self):
        records = []
        coordinator = Coordinator(_jobs(3), on_result=records.append)

        async def scenario():
            serve = asyncio.create_task(coordinator.serve())
            await coordinator.wait_started()
            coordinator.abort("test abort")
            await serve

        asyncio.run(scenario())
        assert len(records) == 3
        assert all(record["status"] == "error" for record in records)
        assert coordinator.stats.lost_jobs == 3


class TestEmitFailure:
    def test_failing_result_callback_aborts_the_run_loudly(self):
        """A record the callback could not persist must fail the serve call,
        not vanish from an 'OK' run."""
        def exploding_sink(record):
            raise BrokenPipeError("stdout went away")

        coordinator = Coordinator(_jobs(2), on_result=exploding_sink)

        async def scenario():
            import contextlib
            serve = asyncio.create_task(coordinator.serve())
            port = await coordinator.wait_started()
            worker = asyncio.create_task(
                work_async("127.0.0.1", port, executor=_stub_executor))
            with pytest.raises(BrokenPipeError):
                await serve
            # The worker may have exited on its own when the server
            # closed, or still be polling; either way, wind it down.
            worker.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await worker

        asyncio.run(scenario())
        # The record was never marked done, so nothing claims success.
        assert coordinator.stats.results_accepted == 0


class TestJobIdCost:
    def test_job_ids_are_hashed_linearly_in_the_job_count(self, monkeypatch):
        """Accepting a result must not rehash every pending job's id."""
        hashes = []

        def counted_sha256(data):
            hashes.append(data)
            return hashlib.sha256(data)

        monkeypatch.setattr(spec, "hashlib",
                            SimpleNamespace(sha256=counted_sha256))
        per_job = {}
        for count in (50, 200):
            hashes.clear()
            records = []
            coordinator = Coordinator(_jobs(count), on_result=records.append)

            async def scenario():
                serve = asyncio.create_task(coordinator.serve())
                port = await coordinator.wait_started()
                await asyncio.gather(
                    work_async("127.0.0.1", port, executor=_stub_executor),
                    serve)

            asyncio.run(scenario())
            assert len(records) == count
            per_job[count] = len(hashes) / count
        assert per_job[200] <= per_job[50], per_job

    def test_accepting_a_result_never_scans_the_queue(self):
        """Only a requeued job can still be queued when its result lands;
        the result of a job in flight is accepted without a queue scan."""
        class ScanCountingDeque(collections.deque):
            scans = 0

            def __iter__(self):
                self.scans += 1
                return super().__iter__()

        records = []
        coordinator = Coordinator(_jobs(20), on_result=records.append)
        coordinator._pending = ScanCountingDeque(coordinator._pending)
        for _ in range(20):
            reply = coordinator._assign(connection_id=1, worker="w1")
            assert reply["type"] == "job"
            assert coordinator._accept({"job_id": reply["job_id"],
                                        "status": "ok", "cycles": 1})
        assert len(records) == 20
        assert coordinator.outstanding == 0
        assert coordinator._pending.scans == 0


class TestHeartbeatHandshake:
    def test_job_message_names_the_required_cadence(self):
        coordinator = Coordinator(_jobs(1), heartbeat_timeout=2.0)
        reply = coordinator._assign(1, "w")
        assert reply["type"] == "job"
        assert reply["heartbeat_every"] == pytest.approx(0.5)

    def test_short_timeout_does_not_kill_a_healthy_slow_job(self):
        """Coordinator timeout far below the worker's default interval: the
        handshake makes the worker beat fast enough anyway."""
        records = []
        coordinator = Coordinator(_jobs(1), on_result=records.append,
                                  heartbeat_timeout=0.4)

        def slow(job):
            import time
            time.sleep(1.2)  # three timeouts long
            return _stub_executor(job)

        async def scenario():
            serve = asyncio.create_task(coordinator.serve())
            port = await coordinator.wait_started()
            # Default heartbeat_interval is 2.0s — without the handshake
            # this healthy worker would be declared dead.
            await asyncio.gather(
                work_async("127.0.0.1", port, executor=slow), serve)

        asyncio.run(scenario())
        assert coordinator.stats.requeues == 0
        assert coordinator.stats.lost_jobs == 0
        assert len(records) == 1 and records[0]["status"] == "ok"


class TestWorkerMonitor:
    def test_dead_local_workers_do_not_abort_while_external_worker_connected(self):
        """`serve --local-workers N` + external workers: losing every local
        process must not kill jobs an external connection is executing."""
        from repro.service.queue_backend import AsyncQueueBackend

        class DeadProcess:
            @staticmethod
            def is_alive():
                return False

        records = []
        coordinator = Coordinator(_jobs(1), on_result=records.append)

        async def external_worker(port):
            reader, writer = await _raw_client("127.0.0.1", port)
            message = await _take_job(reader, writer)
            await asyncio.sleep(1.2)  # spans two monitor intervals
            record = {"job_id": message["job_id"], "status": "ok",
                      "verified": True, "cycles": 1}
            await send_and_drain(writer, {"type": "result", "record": record})
            assert (await read_message(reader))["type"] == "done"
            writer.close()

        async def scenario():
            serve = asyncio.create_task(coordinator.serve())
            port = await coordinator.wait_started()
            monitor = asyncio.create_task(
                AsyncQueueBackend._monitor([DeadProcess()], coordinator))
            await asyncio.gather(external_worker(port), serve, monitor)

        asyncio.run(scenario())
        assert coordinator.stats.lost_jobs == 0
        assert len(records) == 1 and records[0]["status"] == "ok"


class TestLocalWorkerHold:
    """Dispatch waits until every spawned local worker has said hello."""

    @staticmethod
    async def _hello(port, name):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        await send_and_drain(writer, {"type": "hello", "worker": name,
                                      "pid": 0})
        return reader, writer

    @staticmethod
    async def _ask(reader, writer):
        await send_and_drain(writer, {"type": "next"})
        return (await read_message(reader))["type"]

    def _run(self, coordinator, body):
        async def scenario():
            serve = asyncio.create_task(coordinator.serve())
            port = await coordinator.wait_started()
            writers = await body(port)
            coordinator.abort("test over")
            await serve
            for writer in writers:
                writer.close()

        asyncio.run(scenario())

    def test_first_worker_waits_until_the_second_says_hello(self):
        coordinator = Coordinator(_jobs(2), expected_workers=2)
        replies = []

        async def body(port):
            first = await self._hello(port, "w1")
            replies.append(await self._ask(*first))
            replies.append(await self._ask(*first))
            second = await self._hello(port, "w2")
            replies.append(await self._ask(*second))
            replies.append(await self._ask(*first))
            return [first[1], second[1]]

        self._run(coordinator, body)
        assert replies == ["wait", "wait", "job", "job"]

    def test_lifting_the_hold_releases_the_connected_worker(self):
        coordinator = Coordinator(_jobs(1), expected_workers=2)
        replies = []

        async def body(port):
            first = await self._hello(port, "w1")
            replies.append(await self._ask(*first))
            coordinator.lift_worker_hold()
            replies.append(await self._ask(*first))
            return [first[1]]

        self._run(coordinator, body)
        assert replies == ["wait", "job"]

    def test_monitor_lifts_the_hold_when_a_spawned_worker_exits(self):
        """A local worker that dies at start must not stall the run."""
        from repro.service.queue_backend import AsyncQueueBackend

        class DeadProcess:
            @staticmethod
            def is_alive():
                return False

        records = []
        coordinator = Coordinator(_jobs(1), on_result=records.append,
                                  expected_workers=2)

        async def scenario():
            serve = asyncio.create_task(coordinator.serve())
            port = await coordinator.wait_started()
            monitor = asyncio.create_task(
                AsyncQueueBackend._monitor([DeadProcess()], coordinator))
            await asyncio.gather(
                work_async("127.0.0.1", port, name="survivor",
                           executor=_stub_executor),
                serve, monitor)

        asyncio.run(scenario())
        assert coordinator.stats.lost_jobs == 0
        assert len(records) == 1 and records[0]["status"] == "ok"


class TestBindFailure:
    def test_occupied_port_raises_instead_of_hanging(self):
        """A bind failure must unblock wait_started and surface the error."""
        import socket

        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        coordinator = Coordinator(_jobs(1), port=port)

        async def scenario():
            serve = asyncio.create_task(coordinator.serve())
            assert await coordinator.wait_started() is None
            with pytest.raises(OSError):
                await serve

        try:
            asyncio.run(scenario())
        finally:
            blocker.close()


class TestLostRecord:
    def test_lost_record_is_resume_compatible(self):
        job = _jobs(1)[0]
        record = lost_job_record(job, 3, "worker vanished")
        assert record["job_id"] == job.job_id
        assert record["status"] == "error"
        assert record["workload"] == job.workload
        assert record["engine"] == job.engine
        # An error status means a resumed sweep retries the job.
        assert "lost after 3" in record["error"]


class TestStatusRequests:
    def test_status_probe_answers_without_scheduling(self):
        """An observer sends ``status`` and gets telemetry — never a job,
        never a workers_seen bump, no effect on the run's outcome."""
        records = []
        coordinator = Coordinator(_jobs(2), on_result=records.append)
        snapshots = []

        async def probe(port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            await send_and_drain(writer, {"type": "status"})
            reply = await read_message(reader)
            assert reply["type"] == "status"
            snapshots.append(reply["status"])
            writer.close()
            await writer.wait_closed()

        async def scenario():
            serve = asyncio.create_task(coordinator.serve())
            port = await coordinator.wait_started()
            await probe(port)  # before any worker connects
            await asyncio.gather(
                work_async("127.0.0.1", port, name="w1",
                           executor=_stub_executor),
                serve)

        asyncio.run(scenario())
        status = snapshots[0]
        assert status["jobs_total"] == 2
        assert status["queue_depth"] == 2
        assert status["in_flight"] == 0 and status["done"] == 0
        assert status["workers"] == {}
        # The probe never said hello and must not count as a worker.
        assert coordinator.stats.workers_seen == 1
        assert len(records) == 2

    def test_status_snapshot_tracks_worker_progress(self):
        coordinator = Coordinator(_jobs(3), on_result=lambda r: None)

        async def scenario():
            serve = asyncio.create_task(coordinator.serve())
            port = await coordinator.wait_started()
            await work_async("127.0.0.1", port, name="w1",
                             executor=_stub_executor)
            await serve

        asyncio.run(scenario())
        status = coordinator.status_snapshot()
        assert status["done"] == status["jobs_total"] == 3
        assert status["queue_depth"] == 0 and status["in_flight"] == 0
        assert status["workers"]["w1"]["jobs_done"] == 3
        assert status["workers"]["w1"]["requeues"] == 0
        assert status["workers"]["w1"]["heartbeat_age_s"] >= 0

    def test_request_status_helper_speaks_the_wire_protocol(self):
        """The synchronous ``art9 status --connect`` client against a real
        coordinator, bridged through a thread so the loop keeps serving."""
        from repro.service.workerclient import request_status

        coordinator = Coordinator(_jobs(1), on_result=lambda r: None)
        results = []

        async def scenario():
            loop = asyncio.get_running_loop()
            serve = asyncio.create_task(coordinator.serve())
            port = await coordinator.wait_started()
            results.append(await loop.run_in_executor(
                None, request_status, "127.0.0.1", port))
            await asyncio.gather(
                work_async("127.0.0.1", port, executor=_stub_executor),
                serve)

        asyncio.run(scenario())
        assert results[0]["jobs_total"] == 1
        assert results[0]["outstanding"] == 1


class TestStructuredLogs:
    def test_requeue_log_names_worker_job_and_reason(self, caplog):
        import logging

        records = []
        coordinator = Coordinator(_jobs(1), on_result=records.append)

        async def faulty_then_good(port):
            reader, writer = await _raw_client("127.0.0.1", port)
            message = await _take_job(reader, writer)
            writer.close()
            await writer.wait_closed()
            await work_async("127.0.0.1", port, name="good",
                             executor=_stub_executor)
            return message["job_id"]

        job_ids = []

        async def scenario():
            serve = asyncio.create_task(coordinator.serve())
            port = await coordinator.wait_started()
            job_ids.append((await asyncio.gather(
                faulty_then_good(port), serve))[0])

        with caplog.at_level(logging.INFO, logger="repro.service.coordinator"):
            asyncio.run(scenario())
        disconnects = [r for r in caplog.records
                       if "disconnected with a job in flight" in r.message]
        requeues = [r for r in caplog.records if "job requeued" in r.message]
        assert disconnects and requeues
        for entry in disconnects + requeues:
            assert entry.worker_id == "faulty"
            assert entry.job_id == job_ids[0]
            assert entry.reason
        assert "faulty disconnected" in requeues[0].reason

    def test_poison_job_log_names_worker_job_and_reason(self, caplog):
        import logging

        records = []
        coordinator = Coordinator(_jobs(1), on_result=records.append,
                                  max_requeues=1)

        async def crash_on_job(port):
            reader, writer = await _raw_client("127.0.0.1", port)
            await _take_job(reader, writer)
            writer.close()
            await writer.wait_closed()

        async def scenario():
            serve = asyncio.create_task(coordinator.serve())
            port = await coordinator.wait_started()
            await crash_on_job(port)
            await crash_on_job(port)
            await serve

        with caplog.at_level(logging.INFO, logger="repro.service.coordinator"):
            asyncio.run(scenario())
        lost = [r for r in caplog.records
                if "poison job declared lost" in r.message]
        assert len(lost) == 1
        assert lost[0].worker_id == "faulty"
        assert lost[0].job_id == records[0]["job_id"]
        assert "disconnected" in lost[0].reason
        # Per-worker requeue attribution survives into the snapshot.
        assert coordinator.status_snapshot()["workers"]["faulty"]["requeues"] == 2
