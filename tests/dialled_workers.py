"""``art9 work`` clients for tests that run a sweep through the service.

A served run is a coordinator (a :class:`Coordinator` in the test process,
or ``art9 serve``) plus the ``art9 work`` clients that dial it, each a
fresh interpreter that imports :mod:`repro` on its own::

    with DialledWorkers() as fleet:
        outcome = run_sweep(spec, out_dir, execute=fleet.execute)
    assert fleet.exit_codes == [0, 0]

The clients start first and keep dialling a free port until the
coordinator listens on it.
"""

import asyncio
import subprocess
import sys

from repro.service import Coordinator
from repro.testing.chaos import _cli_env, _free_port

#: Seconds a client that heard ``done`` gets to exit before it is killed.
EXIT_GRACE_SECONDS = 10.0


class DialledWorkers:
    """``count`` ``art9 work`` clients dialling ``127.0.0.1:port``."""

    def __init__(self, count: int = 2):
        self.port = _free_port()
        self.names = tuple(f"dialled-{i}" for i in range(count))
        self.exit_codes = []
        self.outputs = []
        #: The coordinator's stats once :meth:`execute` has served a batch.
        self.stats = None
        self._clients = []

    def execute(self, jobs, emit) -> None:
        """Serve ``jobs`` to these clients, as ``art9 serve`` does.

        The coordinator owes each client a ``done`` (``returning_workers``),
        so it keeps answering ``done`` until each has heard it: a client
        that boots after the last job is dispatched still connects and
        exits cleanly.
        """
        coordinator = Coordinator(jobs, on_result=emit, port=self.port,
                                  returning_workers=self.names)
        self.stats = asyncio.run(coordinator.serve())

    def __enter__(self) -> "DialledWorkers":
        env = _cli_env()
        for name in self.names:
            self._clients.append(subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "work",
                 "--connect", f"127.0.0.1:{self.port}", "--name", name,
                 "--retry-seconds", "60"],
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env,
                text=True))
        return self

    def __exit__(self, exc_type, *exc_info) -> None:
        for client in self._clients:
            if exc_type is not None:
                client.kill()  # the run failed; nobody will say done
            try:
                output, _ = client.communicate(timeout=EXIT_GRACE_SECONDS)
            except subprocess.TimeoutExpired:
                client.kill()
                output, _ = client.communicate()
            self.exit_codes.append(client.returncode)
            self.outputs.append(output)
