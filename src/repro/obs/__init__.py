"""Observability layer: span tracing.

``repro.obs.trace`` is the off-by-default span tracer that writes
``spans.jsonl`` into the run directory when ``--trace`` / ``ART9_TRACE=1``
is set.  The numbers an operator reads each have one owner elsewhere:
record fields (``timings``, ``cache_hit``), the coordinator's status
snapshot and the ``art9 work`` summary.  See ``art9 status`` and
``art9 profile`` for the CLI surface.
"""

from repro.obs import trace
from repro.obs.trace import (
    TRACE_ENV,
    TRACE_FILE_ENV,
    configure_from_env,
    read_spans,
    span,
)

__all__ = [
    "trace",
    "TRACE_ENV",
    "TRACE_FILE_ENV",
    "configure_from_env",
    "read_spans",
    "span",
]
