"""Tests for the coordinator write-ahead journal and restart recovery.

The journal's whole contract is that a ``kill -9`` at any byte offset
leaves recoverable state: torn tails are sealed and skipped, leased jobs
are identified, and dispatch counts survive the restart.  The replay half
is tested here as pure functions; the end-to-end crash-and-resume path is
covered by the resilience tests and the chaos harness.
"""

import asyncio
import json
import os

import pytest

from repro.runner.spec import SweepJob
from repro.runner.store import RunStore
from repro.service.coordinator import Coordinator
from repro.service.journal import (
    JournalRecovery,
    RunJournal,
    journal_path,
    recover_from_events,
    recover_run,
    replay_journal,
)
from repro.service.workerclient import work_async


def _jobs(count):
    return [
        SweepJob("bubble_sort", "fast", True, params=(("length", 4 + 2 * i),))
        for i in range(count)
    ]


def _stub_executor(job):
    return {"job_id": job.job_id, "label": job.label, "status": "ok",
            "verified": True, "cycles": 1}


class TestRunJournal:
    def test_append_writes_whole_fsynced_lines(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = RunJournal(path)
        journal.append("enqueued", job_id="a")
        journal.append("leased", job_id="a", worker="w1", attempt=1)
        with open(path) as handle:
            lines = handle.read().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0]) == {"event": "enqueued", "job_id": "a"}
        assert json.loads(lines[1])["worker"] == "w1"

    def test_append_many_batches_under_one_flush(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = RunJournal(path)
        journal.append_many({"event": "enqueued", "job_id": f"j{i}"}
                            for i in range(5))
        assert journal.events_written == 5
        assert len(replay_journal(path)) == 5

    def test_append_seals_a_torn_tail_first(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with open(path, "w") as handle:
            handle.write('{"event":"enqueued","job_id":"a"}\n')
            handle.write('{"event":"leased","job_id":"a"')  # no newline
        RunJournal(path).append("requeued", job_id="a", reason="restart")
        events = replay_journal(path)
        # The torn lease is dropped; the sealed append is intact.
        assert [event["event"] for event in events] == ["enqueued", "requeued"]

    def test_replay_missing_file_is_empty(self, tmp_path):
        assert replay_journal(str(tmp_path / "nope.jsonl")) == []

    def test_replay_skips_garbage_and_non_events(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with open(path, "w") as handle:
            handle.write('{"event":"enqueued","job_id":"a"}\n')
            handle.write('[1, 2, 3]\n')
            handle.write('{"no_event_key": true}\n')
            handle.write('{"event":"leased","job_id":"a","worker":"w"}\n')
            handle.write('{"event":"result-acce')  # torn tail
        events = replay_journal(path)
        assert [event["event"] for event in events] == ["enqueued", "leased"]

    def test_journal_path_lands_next_to_results(self, tmp_path):
        assert journal_path(str(tmp_path)) == str(tmp_path / "journal.jsonl")


class TestRecovery:
    @pytest.mark.parametrize("b_status, parent_format", [
        pytest.param("ok", False, id="ok-record"),
        pytest.param("error", False, id="error-record"),
        # Journals written while the coordinator still logged a
        # result-accepted event after each stored record replay the same.
        pytest.param("ok", True, id="parent-format-journal"),
    ])
    def test_lease_without_outcome_is_recovered(self, tmp_path, b_status,
                                                parent_format):
        # b's outcome is its record in results.jsonl, whatever its status.
        store = RunStore(str(tmp_path))
        store.append({"job_id": "b", "status": b_status})
        events = [
            {"event": "enqueued", "job_id": "a"},
            {"event": "leased", "job_id": "a", "worker": "w1"},
            {"event": "leased", "job_id": "b", "worker": "w2"},
        ]
        if parent_format:
            events.append({"event": "result-accepted", "job_id": "b",
                           "status": b_status})
        RunJournal(journal_path(str(tmp_path))).append_many(events)
        recovery = recover_run(
            str(tmp_path),
            stored_ids=[record["job_id"] for record in store.records()])
        assert recovery.leased == {"a": "w1"}
        assert recovery.dispatch_counts == {"a": 1, "b": 1}
        assert recovery.events_replayed == len(events)

    def test_requeue_and_lost_clear_the_lease(self):
        recovery = recover_from_events([
            {"event": "leased", "job_id": "a", "worker": "w1"},
            {"event": "requeued", "job_id": "a", "reason": "disconnect"},
            {"event": "leased", "job_id": "a", "worker": "w2"},
            {"event": "leased", "job_id": "b", "worker": "w2"},
            {"event": "lost", "job_id": "b", "reason": "poison"},
        ])
        assert recovery.leased == {"a": "w2"}
        assert recovery.dispatch_counts == {"a": 2, "b": 1}
        # Every worker that ever leased may still be reconnecting, whether
        # or not its lease is still open.
        assert recovery.workers == {"w1", "w2"}

    def test_results_file_wins_over_a_torn_accept_event(self):
        # The record hit results.jsonl and the coordinator died before any
        # later event (in an older journal, a result-accepted lost to the
        # torn tail): the job must NOT be treated as leased.
        recovery = recover_from_events(
            [{"event": "leased", "job_id": "a", "worker": "w1"}],
            stored_ids={"a"})
        assert recovery.leased == {}
        assert recovery.dispatch_counts == {"a": 1}

    def test_malformed_job_ids_are_ignored(self):
        recovery = recover_from_events([
            {"event": "leased", "job_id": 17},
            {"event": "leased"},
            {"event": "leased", "job_id": "ok", "worker": "w"},
            {"event": "leased", "job_id": "anonymous"},
        ])
        assert recovery.leased == {"ok": "w", "anonymous": "?"}
        assert recovery.workers == {"w"}

    def test_recover_run_reads_the_run_directory(self, tmp_path):
        RunJournal(journal_path(str(tmp_path))).append(
            "leased", job_id="a", worker="w1")
        recovery = recover_run(str(tmp_path))
        assert isinstance(recovery, JournalRecovery)
        assert recovery.leased == {"a": "w1"}
        assert "1 leased jobs requeued" in recovery.summary()


class TestCoordinatorJournaling:
    def test_full_run_journals_every_lifecycle_transition(self, tmp_path,
                                                          monkeypatch):
        path = journal_path(str(tmp_path))
        jobs = _jobs(3)
        fsyncs = []
        real_fsync = os.fsync

        def counting_fsync(fd):
            fsyncs.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        coordinator = Coordinator(jobs,
                                  on_result=RunStore(str(tmp_path)).append,
                                  journal=RunJournal(path))

        async def scenario():
            serve = asyncio.create_task(coordinator.serve())
            port = await coordinator.wait_started()
            await asyncio.gather(
                work_async("127.0.0.1", port, name="w1",
                           executor=_stub_executor),
                serve,
            )

        asyncio.run(scenario())
        # One enqueue batch, then a lease and a stored record per job:
        # 2N+1 fsyncs.  A stored record settles its job, so the journal
        # logs no separate acceptance event.
        assert len(fsyncs) == 2 * len(jobs) + 1
        events = replay_journal(path)
        kinds = [event["event"] for event in events]
        assert kinds.count("enqueued") == 3
        assert kinds.count("leased") == 3
        assert "result-accepted" not in kinds
        # Nothing was requeued or lost in a healthy run.
        assert "requeued" not in kinds and "lost" not in kinds
        # Every lease is attributed to the worker that got the job.
        assert {event["worker"] for event in events
                if event["event"] == "leased"} == {"w1"}

    def test_seeded_dispatch_counts_keep_the_poison_budget(self):
        # A job that already burned its attempts before the crash must be
        # declared lost on the first post-restart failure, not given a
        # fresh budget.
        jobs = _jobs(1)
        records = []
        coordinator = Coordinator(
            jobs, on_result=records.append, heartbeat_timeout=0.3,
            max_requeues=3, dispatch_counts={jobs[0].job_id: 3})

        async def dying_worker(port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            from repro.service.protocol import read_message, send_and_drain
            await send_and_drain(writer, {"type": "hello", "worker": "w",
                                          "pid": 0})
            await send_and_drain(writer, {"type": "next"})
            message = await read_message(reader)
            assert message["type"] == "job"
            writer.close()  # vanish with the job: 4th dispatch failure

        async def scenario():
            serve = asyncio.create_task(coordinator.serve())
            port = await coordinator.wait_started()
            await dying_worker(port)
            return await serve

        stats = asyncio.run(scenario())
        assert stats.lost_jobs == 1
        assert stats.requeues == 0
        assert records and "lost after 4 dispatch attempts" in \
            records[0]["error"]

    def test_recovered_jobs_show_up_in_stats_summary(self):
        coordinator = Coordinator([], recovered_jobs=2)
        assert coordinator.stats.recovered_jobs == 2
        assert "2 recovered jobs" in coordinator.stats.summary()
