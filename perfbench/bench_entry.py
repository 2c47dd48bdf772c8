"""Launch one ``art9`` CLI process for the benchmark, optionally traced.

Usage (the harness in ``run.py`` builds these command lines)::

    python3 perfbench/bench_entry.py MARKS_JSON TRACE(0|1) <art9 arguments>

The process runs ``repro.cli.main`` exactly as ``python -m repro.cli``
would.  Before ``repro.cli`` is imported, an import hook is installed that
wraps the public entry points of each layer the moment their module
finishes executing, so every later ``from module import name`` already
sees the wrapper and lazily imported modules are covered too.  Nothing
under ``src/`` is modified.

* ``TRACE=0`` wraps only the first-op markers (``execute_job`` for sweeps,
  ``generate_program`` for fuzz) to timestamp when the first job or program
  starts: the benchmark's ``setup_s``.
* ``TRACE=1`` additionally records one span per call into every layer
  listed in ``LAYER_PATCHES`` / ``ENGINE_CLASSES``.

Spans stay in memory and are written to ``MARKS_JSON`` when ``main``
returns, together with the entry, import and main timestamps.  All times
are ``time.monotonic()`` readings, which share one clock across the
processes of a run.
"""

import time

ENTRY_TS = time.monotonic()

import functools  # noqa: E402  (the timestamp above must come first)
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

#: Layer name of one sweep job; spans inside it form the job context.
JOB_LAYER = "runner.worker.job"


def _instructions(result, args, state):
    count = getattr(result, "instructions_committed", None)
    if count is None:
        count = getattr(result, "instructions_executed", 0)
    return None, int(count or 0)


def _cache_get(result, args, state):
    return args[1] if len(args) > 1 else None, int(result is not None)


def _cache_put(result, args, state):
    return args[1] if len(args) > 1 else None, 0


def _events_before(args):
    return getattr(args[0], "events_written", 0)


def _events_written(result, args, state):
    return None, getattr(args[0], "events_written", 0) - state


def _xlate_built(result, args, state):
    return None, int(getattr(args[0], "last_compile_source", "") == "built")


#: (module, class or None, attribute, layer, pre hook, post hook).
LAYER_PATCHES = (
    ("repro.runner.spec", "SweepSpec", "expand", "runner.spec.expand",
     None, None),
    ("repro.runner.store", "RunStore", "append", "runner.store.append",
     None, None),
    ("repro.runner.store", "RunStore", "write_summary",
     "runner.store.summary", None, None),
    ("repro.service.journal", "RunJournal", "append_many",
     "service.journal.append", _events_before, _events_written),
    ("repro.framework.swflow", "SoftwareFramework",
     "compile_named_workload_cached", "xlate.compile", None, _xlate_built),
    ("repro.cache", "ArtifactCache", "get_json", "cache.get",
     None, _cache_get),
    ("repro.cache", "ArtifactCache", "put_json", "cache.put",
     None, _cache_put),
    ("repro.framework.hwflow", "HardwareFramework", "simulate_with_state",
     "runner.worker.simulate", None, None),
    ("repro.runner.worker", None, "execute_job", JOB_LAYER, None, None),
    ("repro.testing.generator", None, "generate_program",
     "testing.generate", None, None),
)

#: Engine classes: (module, class, short name).  Their constructor,
#: ``prepare``, ``run`` and ``run_with_stats`` are wrapped where present.
ENGINE_CLASSES = (
    ("repro.sim.engine", "FastEngine", "fast"),
    ("repro.sim.compiled", "CompiledEngine", "compiled"),
    ("repro.sim.pipeline.core", "PipelineSimulator", "pipeline"),
    ("repro.sim.batch", "BatchEngine", "batch"),
    ("repro.sim.functional", "FunctionalSimulator", "functional"),
)

#: Layers whose first call marks the end of set-up: the first sweep job
#: or the first fuzz program starts executing.
FIRST_OP_LAYERS = (JOB_LAYER, "testing.generate")


class Recorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.spans = []
        self.first_op = None
        self.missing = []
        self._engine_seen = False
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter_main(self) -> None:
        """Mark the calling thread as running ``cli.main`` (span depth 0)."""
        self._stack().append(False)

    def first_op_marker(self, fn):
        @functools.wraps(fn)
        def marker(*args, **kwargs):
            if self.first_op is None:
                self.first_op = time.monotonic()
            return fn(*args, **kwargs)
        return marker

    def span(self, layer, fn, pre=None, post=None, engine_init=False):
        """Wrap ``fn`` so every call records one span of ``layer``.

        A span is ``[layer, tag, start, end, tier, depth, value]``; tier 2
        marks calls made inside a sweep job, tier 1 every other layer call.
        """
        is_job = layer == JOB_LAYER
        marks_first_op = layer in FIRST_OP_LAYERS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = layer
            if engine_init and not self._engine_seen:
                self._engine_seen = True
                name = "sim.engine.first_init"
            if marks_first_op and self.first_op is None:
                self.first_op = time.monotonic()
            stack = self._stack()
            depth = len(stack)
            in_job = is_job or any(stack)
            state = pre(args) if pre is not None else None
            stack.append(in_job)
            result = None
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.monotonic()
                stack.pop()
                tag, value = (post(result, args, state) if post is not None
                              else (None, 0))
                self.spans.append(
                    [name, tag, start, end, 2 if in_job else 1, depth, value])
        return wrapper

    def patch_module(self, name: str, module) -> None:
        """Apply every wrapper that targets ``module`` (just executed)."""
        for mod, owner, attr, layer, pre, post in LAYER_PATCHES:
            if mod != name:
                continue
            if self.traced:
                self._wrap(module, owner, attr,
                           functools.partial(self.span, layer, pre=pre,
                                             post=post))
            elif layer in FIRST_OP_LAYERS:
                self._wrap(module, owner, attr, self.first_op_marker)
        for mod, owner, short in ENGINE_CLASSES:
            if mod != name or not self.traced:
                continue
            cls = getattr(module, owner, None)
            if cls is None:
                self.missing.append(f"{mod}.{owner}")
                continue
            cls.__init__ = self.span(f"sim.{short}.init", cls.__init__,
                                     engine_init=True)
            for attr, phase in (("prepare", "prepare"), ("run", "execute"),
                                ("run_with_stats", "execute")):
                if attr in vars(cls):
                    setattr(cls, attr, self.span(
                        f"sim.{short}.{phase}", getattr(cls, attr),
                        post=_instructions if phase == "execute" else None))

    def _wrap(self, module, owner, attr, make_wrapper) -> None:
        target = getattr(module, owner, None) if owner else module
        if target is None or not hasattr(target, attr):
            self.missing.append(".".join(
                filter(None, (module.__name__, owner, attr))))
            return
        setattr(target, attr, make_wrapper(getattr(target, attr)))


class PatchFinder:
    """Meta-path finder that patches target modules right after they run."""

    def __init__(self, recorder: Recorder, targets):
        self._recorder = recorder
        self._targets = set(targets)

    def find_spec(self, fullname, path, target=None):
        if fullname not in self._targets:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(fullname, path, target)
            if spec is not None:
                break
        else:
            return None
        loader = spec.loader
        if loader is None or not hasattr(loader, "exec_module"):
            return spec
        original = loader.exec_module

        def exec_module(module):
            original(module)
            self._recorder.patch_module(fullname, module)

        loader.exec_module = exec_module
        return spec


def main(argv) -> int:
    marks_path, traced, cli_args = argv[0], argv[1] == "1", argv[2:]
    recorder = Recorder(traced)
    targets = {mod for mod, *_ in LAYER_PATCHES}
    targets |= {mod for mod, *_ in ENGINE_CLASSES}
    sys.meta_path.insert(0, PatchFinder(recorder, targets))
    if traced:
        os.fsync = recorder.span("os.fsync", os.fsync)
    import_start = time.monotonic()
    import repro.cli
    main_start = time.monotonic()
    recorder.enter_main()
    try:
        code = repro.cli.main(cli_args)
    finally:
        main_end = time.monotonic()
        marks = {
            "entry": ENTRY_TS,
            "import": [import_start, main_start],
            "main": [main_start, main_end],
            "first_op": recorder.first_op,
            "spans": recorder.spans,
            "missing": recorder.missing,
        }
        with open(marks_path, "w", encoding="utf-8") as handle:
            json.dump(marks, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
