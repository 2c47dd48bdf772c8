"""Distributed execution service and results-aggregation subsystem.

``repro.service`` is the scaling layer above :mod:`repro.runner`: the sweep
grid already expands into pure picklable :class:`~repro.runner.spec.SweepJob`
records, and this package decides *where* those jobs run and *what happens
to the records afterwards*:

* :mod:`repro.service.backends` — the :class:`ExecutionBackend` interface
  extracted from the sweep orchestrator, with in-process
  (:class:`SerialBackend`) and worker-pool (:class:`MultiprocessingBackend`)
  implementations;
* :mod:`repro.service.protocol` — the newline-delimited JSON wire protocol
  spoken between the coordinator and its workers;
* :mod:`repro.service.coordinator` — the asyncio TCP coordinator behind
  ``art9 serve``: hands jobs to pulling workers (idle workers steal the
  remaining load), requeues jobs lost to dead connections or missed
  heartbeats, and streams accepted records straight into the JSONL store;
* :mod:`repro.service.workerclient` — the worker side (``art9 work``):
  connect, pull, execute, heartbeat, report — and reconnect with backoff
  when the coordinator goes away;
* :mod:`repro.service.journal` — the coordinator's fsync'd write-ahead
  journal of queue lifecycle events, which is what makes ``art9 serve
  --resume`` able to restart a killed coordinator where it left off;
* :mod:`repro.service.queue_backend` — :class:`AsyncQueueBackend`, the
  backend behind ``art9 serve``: one coordinator in-process, and the jobs
  run on the ``art9 work`` clients that dial it (CI runs ``art9 serve``
  plus two ``art9 work`` clients on one machine);
* :mod:`repro.service.report` — ``art9 report``: loads any number of
  sweep run directories into the newest record of each job and regenerates
  the paper's Tables II–V and the Fig. 5 memory-cell series from them.

Submodules load on first use: the names below resolve through a module
``__getattr__`` (PEP 562), so importing the package costs nothing, and a
process pulls in asyncio only with the coordinator or worker client.
"""

import importlib

#: Public name → submodule that defines it.
_EXPORTS = {
    "ExecutionBackend": "backends",
    "MultiprocessingBackend": "backends",
    "SerialBackend": "backends",
    "Coordinator": "coordinator",
    "CoordinatorBindError": "coordinator",
    "CoordinatorStats": "coordinator",
    "JournalRecovery": "journal",
    "RunJournal": "journal",
    "journal_path": "journal",
    "recover_run": "journal",
    "replay_journal": "journal",
    "AUTH_TOKEN_ENV": "protocol",
    "DEFAULT_PORT": "protocol",
    "PROTOCOL_VERSION": "protocol",
    "AsyncQueueBackend": "queue_backend",
    "ReportError": "report",
    "ReportTable": "report",
    "build_report": "report",
    "render_report": "report",
    "WorkerSummary": "workerclient",
    "request_status": "workerclient",
    "work": "workerclient",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    submodule = _EXPORTS.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{submodule}"), name)
