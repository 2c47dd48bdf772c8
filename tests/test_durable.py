"""One owner for the crash-safe file patterns, and what they guarantee.

:mod:`repro.durable` is the only place that fsyncs, locks, renames over a
file or makes a temp file.  The property tests tear each of the three
JSONL logs (results, journal, spans) at every byte offset through their
public writers and readers: a torn write costs exactly the record it cut,
and the next append lands whole.
"""

import ast
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.obs import trace
from repro.runner.store import RunStore
from repro.service.journal import RunJournal, replay_journal

#: ``module.function`` references only :mod:`repro.durable` may make.
DURABILITY_CALLS = {("os", "fsync"), ("os", "replace"),
                    ("tempfile", "mkstemp"), ("fcntl", "flock")}


def test_only_durable_fsyncs_locks_or_replaces_files():
    src_dir = Path(repro.__file__).parent
    offenders = []
    for path in sorted(src_dir.rglob("*.py")):
        relative = path.relative_to(src_dir).as_posix()
        if relative == "durable.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and \
                    isinstance(node.value, ast.Name) and \
                    (node.value.id, node.attr) in DURABILITY_CALLS:
                offenders.append(f"{relative}:{node.lineno} uses "
                                 f"{node.value.id}.{node.attr}")
            elif isinstance(node, ast.ImportFrom):
                offenders.extend(
                    f"{relative}:{node.lineno} imports {node.module}.{alias.name}"
                    for alias in node.names
                    if (node.module, alias.name) in DURABILITY_CALLS)
    assert not offenders, "\n".join(offenders)


# -- torn-tail property -------------------------------------------------------
#
# Each log is (file name, writer, reader).  A writer appends one record
# built from ``payload`` and returns the record as the reader must give it
# back.


def _store_write(path, payload):
    record = {"job_id": f"job-{payload}", "status": "ok", "payload": payload}
    RunStore(os.path.dirname(path)).append(record)
    return record


def _store_read(path):
    return RunStore(os.path.dirname(path)).records()


def _journal_write(path, payload):
    RunJournal(path).append("leased", job_id=payload, worker="w")
    return {"event": "leased", "job_id": payload, "worker": "w"}


def _span_write(path, payload):
    trace.configure(path)
    try:
        with trace.span("probe", payload=payload) as record:
            pass
    finally:
        trace.configure(None)
    return record


LOGS = {
    "results": ("results.jsonl", _store_write, _store_read),
    "journal": ("journal.jsonl", _journal_write, replay_journal),
    "spans": ("spans.jsonl", _span_write, trace.read_spans),
}


@pytest.mark.parametrize("log", sorted(LOGS))
@settings(max_examples=40, deadline=None)
@given(payloads=st.lists(st.text(max_size=12), min_size=1, max_size=5,
                         unique=True),
       data=st.data())
def test_a_tear_at_any_byte_costs_only_the_records_it_cuts(log, payloads,
                                                            data):
    filename, write, read = LOGS[log]
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, filename)
        written = [write(path, payload) for payload in payloads]
        with open(path, "rb") as handle:
            lines = handle.read().splitlines(keepends=True)
        # The cut is drawn as (line, bytes back from its end) rather than
        # as an offset into the file: span lines carry timings, so their
        # length differs from one replay of an example to the next.
        index = data.draw(st.integers(0, len(lines) - 1), label="line")
        back = data.draw(st.integers(0, 4096), label="bytes back")
        line_end = sum(len(line) for line in lines[:index + 1])
        cut = line_end - min(back, len(lines[index]))
        with open(path, "r+b") as handle:
            handle.truncate(cut)
        # A record survives when its JSON text (not its newline) lies
        # wholly before the cut.
        survivors = []
        end = 0
        for line, record in zip(lines, written):
            end += len(line)
            assert json.loads(line) == record
            if end - 1 <= cut:
                survivors.append(record)
        last = write(path, "after-the-tear")
        assert read(path) == survivors + [last]
