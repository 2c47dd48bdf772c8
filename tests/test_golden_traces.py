"""Golden-trace regression suite: pin every engine's architectural behaviour.

The fixtures under ``tests/golden/`` record — per workload — the final
register file, a digest of the touched data memory and the full
``PipelineStats`` produced by the stage-by-stage pipeline simulator (the
structural reference).  Each test replays one executor against them:

* the pipeline simulator itself (so the fixtures stay regenerable),
* the fast engine (architectural state *and* its analytic timing model),
* the compiled superblock-codegen engine (architectural state *and* its
  fused timing model, plus the combined state digest; and the same state
  from its stats-free ``run()``),
* the functional simulator (architectural state; it has no cycle model).

Any drift in architectural state or cycle accounting across a refactor
fails here with a named field, not a vague downstream benchmark delta.
Regenerate deliberately with ``PYTHONPATH=src python tests/golden/regenerate.py``.
"""

import glob
import json
import os

import pytest

from repro.framework import SoftwareFramework
from repro.sim.compiled import CompiledEngine
from repro.sim.engine import FastEngine
from repro.sim.functional import FunctionalSimulator
from repro.sim.pipeline import PipelineSimulator
from repro.sim.trace import TRACE_FORMAT, state_digest, trace_mismatches

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
FIXTURE_PATHS = sorted(glob.glob(os.path.join(GOLDEN_DIR, "*.json")))
MAX_CYCLES = 50_000_000

_software = SoftwareFramework(optimize=True)


def _load(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _program_for(trace):
    program, _, _ = _software.compile_named_workload(
        trace["workload"], trace["params"])
    return program


def _fixture_id(path):
    return os.path.splitext(os.path.basename(path))[0]


def test_fixture_set_is_complete():
    """Every bundled workload is pinned by at least one fixture."""
    from repro.workloads import all_workloads

    pinned = {_load(path)["workload"] for path in FIXTURE_PATHS}
    assert pinned == set(all_workloads())


@pytest.mark.parametrize("path", FIXTURE_PATHS, ids=_fixture_id)
def test_fixture_is_well_formed(path):
    trace = _load(path)
    assert trace["format"] == TRACE_FORMAT
    assert trace["optimize"] is True
    assert set(trace["registers"]) == {f"T{i}" for i in range(9)}
    assert trace["stats"]["cycles"] > 0
    assert trace["stats"]["instructions_committed"] > 0


@pytest.mark.parametrize("path", FIXTURE_PATHS, ids=_fixture_id)
def test_pipeline_simulator_matches_golden(path):
    trace = _load(path)
    simulator = PipelineSimulator(_program_for(trace))
    stats = simulator.run(max_cycles=MAX_CYCLES)
    mismatches = trace_mismatches(
        trace, simulator.register_snapshot(), simulator.tdm.contents(), stats)
    assert not mismatches, "\n".join(mismatches)


@pytest.mark.parametrize("path", FIXTURE_PATHS, ids=_fixture_id)
def test_fast_engine_matches_golden(path):
    trace = _load(path)
    engine = FastEngine(_program_for(trace))
    stats = engine.run_with_stats(max_cycles=MAX_CYCLES)
    mismatches = trace_mismatches(
        trace, engine.register_snapshot(), engine.tdm.contents(), stats)
    assert not mismatches, "\n".join(mismatches)
    assert state_digest(engine.register_snapshot(),
                        engine.tdm.contents()) == trace["state_digest"]


@pytest.mark.parametrize("path", FIXTURE_PATHS, ids=_fixture_id)
def test_compiled_engine_matches_golden(path):
    trace = _load(path)
    engine = CompiledEngine(_program_for(trace))
    stats = engine.run_with_stats(max_cycles=MAX_CYCLES)
    mismatches = trace_mismatches(
        trace, engine.register_snapshot(), engine.tdm.contents(), stats)
    assert not mismatches, "\n".join(mismatches)
    assert state_digest(engine.register_snapshot(),
                        engine.tdm.contents()) == trace["state_digest"]


@pytest.mark.parametrize("path", FIXTURE_PATHS, ids=_fixture_id)
def test_compiled_engine_run_matches_golden_state(path):
    """``run()`` executes the timed bundle and drops the stats; the
    architectural result must still be the fixture's."""
    trace = _load(path)
    engine = CompiledEngine(_program_for(trace))
    result = engine.run()
    assert result.halted
    mismatches = trace_mismatches(trace, result.registers, result.memory)
    assert not mismatches, "\n".join(mismatches)
    assert result.instructions_executed == \
        trace["stats"]["instructions_committed"]
    assert result.instruction_mix == trace["stats"]["instruction_mix"]
    assert state_digest(engine.register_snapshot(),
                        engine.tdm.contents()) == trace["state_digest"]


@pytest.mark.parametrize("path", FIXTURE_PATHS, ids=_fixture_id)
def test_functional_simulator_matches_golden(path):
    trace = _load(path)
    simulator = FunctionalSimulator(_program_for(trace))
    result = simulator.run()
    mismatches = trace_mismatches(trace, result.registers, result.memory)
    assert not mismatches, "\n".join(mismatches)


def test_trace_mismatches_flags_drift():
    """The checker itself must catch register, memory and stats drift."""
    trace = _load(FIXTURE_PATHS[0])
    registers = dict(trace["registers"])
    simulator = FunctionalSimulator(_program_for(trace))
    memory = simulator.run().memory

    drifted_regs = dict(registers, T3=registers["T3"] + 1)
    assert any("registers differ" in m
               for m in trace_mismatches(trace, drifted_regs, memory))

    drifted_mem = dict(memory)
    drifted_mem[0] = drifted_mem.get(0, 0) + 1
    assert any("memory digest differs" in m
               for m in trace_mismatches(trace, registers, drifted_mem))

    from repro.sim.pipeline.stats import PipelineStats
    drifted_stats = PipelineStats.from_dict(trace["stats"])
    drifted_stats.cycles += 1
    assert any("stats.cycles differs" in m
               for m in trace_mismatches(trace, registers, memory, drifted_stats))
