"""Engine speedups: the performance ladder that enables large sweeps.

Two rungs, each asserted with a floor below the typically observed ratio
(end-to-end numbers come from ``perfbench/run.py``; the committed
``BENCH_*.json`` files are historical kernel records):

* the fast pre-decoded interpreter vs the structural pipeline model
  (about 3–4.3x on Dhrystone since the fast engine applies the timing
  model once per straight-line run, 2.4–2.9x while it stepped every
  instruction; floor 1.6x, which holds the fast engine to the 3x it had
  over the pipeline before the pipeline's one-loop clock made it about
  1.95x faster);
* the compiled superblock-codegen engine vs the fast interpreter (about
  1.7–2x on Dhrystone since the fast engine times straight-line runs,
  2.6–3.5x while it stepped every instruction; floor 1.5x);
* all engines must report *identical* cycle counts — a speedup that
  changes the numbers is a bug, not an optimisation.

The pytest-benchmark cases keep per-engine timing series in the benchmark
JSON for trend tracking; the floor assertions use their own best-of-N
``perf_counter`` loops so they also run (and still guard the ordering)
under ``--benchmark-disable`` in CI.
"""

import time

import pytest

from conftest import PIPELINE_BUDGET
from repro.sim import CompiledEngine, FastEngine, PipelineSimulator


@pytest.fixture(scope="module")
def dhrystone_program(translated):
    program, _ = translated["dhrystone"]
    return program


def _best_seconds(run, repeat=3):
    best = None
    for _ in range(repeat):
        started = time.perf_counter()
        run()
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best:
            best = elapsed
    return best


def test_fast_engine_dhrystone(dhrystone_program, benchmark):
    stats = benchmark(lambda: FastEngine(dhrystone_program).run_with_stats())
    reference = PipelineSimulator(dhrystone_program).run(
        max_cycles=PIPELINE_BUDGET)
    assert stats.cycles == reference.cycles
    assert stats.stall_cycles == reference.stall_cycles


def test_compiled_engine_dhrystone(dhrystone_program, benchmark):
    stats = benchmark(
        lambda: CompiledEngine(dhrystone_program).run_with_stats())
    reference = PipelineSimulator(dhrystone_program).run(
        max_cycles=PIPELINE_BUDGET)
    assert stats.cycles == reference.cycles
    assert stats.stall_cycles == reference.stall_cycles


def test_pipeline_engine_dhrystone(dhrystone_program, benchmark):
    stats = benchmark(lambda: PipelineSimulator(dhrystone_program).run(
        max_cycles=PIPELINE_BUDGET))
    assert stats.cycles > 0


def test_speedup_floors(dhrystone_program):
    """fast ≥ 1.6x pipeline and compiled ≥ 1.5x fast on the same program.

    The compiled floor sits below the typical ratio (1.7–2x since the fast
    engine stopped stepping every instruction) so scheduler noise on a
    loaded CI host cannot flake the gate while a genuine regression (e.g.
    the compiled engine silently falling back to per-instruction
    dispatch) still fails it.  The fast floor is 3.0
    divided by the pipeline's measured speedup from its one-loop clock
    (about 1.95x, best of 7 on Dhrystone), rounded up: it keeps the fast
    engine at the absolute speed the old 3x floor asked for.
    """
    pipeline_s = _best_seconds(lambda: PipelineSimulator(
        dhrystone_program).run(max_cycles=PIPELINE_BUDGET))
    fast_s = _best_seconds(
        lambda: FastEngine(dhrystone_program).run_with_stats())
    compiled_s = _best_seconds(
        lambda: CompiledEngine(dhrystone_program).run_with_stats())

    fast_vs_pipeline = pipeline_s / fast_s
    compiled_vs_fast = fast_s / compiled_s
    assert fast_vs_pipeline >= 1.6, (
        f"fast engine only {fast_vs_pipeline:.2f}x over the pipeline model "
        f"(pipeline {pipeline_s * 1e3:.1f} ms, fast {fast_s * 1e3:.1f} ms)")
    assert compiled_vs_fast >= 1.5, (
        f"compiled engine only {compiled_vs_fast:.2f}x over the fast engine "
        f"(fast {fast_s * 1e3:.1f} ms, compiled {compiled_s * 1e3:.1f} ms)")
