"""Per-machine golden-trace regression suite.

``tests/golden/<machine>/`` holds one fixture per workload per non-default
machine config, captured from the stage-by-stage pipeline (the structural
reference) under that config.  Each fixture is replayed here against all
three cycle-accurate engines, so a refactor that drifts *any* engine's
timing at *any* design-space corner fails with a named stats field.

The default machine's fixtures live at the top level of ``tests/golden/``
and are covered by ``test_golden_traces.py``; they predate the machine
axis and must stay byte-identical.  Regenerate everything deliberately
with ``PYTHONPATH=src python tests/golden/regenerate.py``.
"""

import glob
import json
import os

import pytest

from repro.framework import SoftwareFramework
from repro.sim.compiled import CompiledEngine
from repro.sim.engine import FastEngine
from repro.sim.machine import DEFAULT_MACHINE_NAME, MACHINES
from repro.sim.pipeline import PipelineSimulator
from repro.sim.trace import TRACE_FORMAT, state_digest, trace_mismatches

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
FIXTURE_PATHS = sorted(glob.glob(os.path.join(GOLDEN_DIR, "*", "*.json")))
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
    machine = os.path.basename(os.path.dirname(path))
    return f"{machine}-{os.path.splitext(os.path.basename(path))[0]}"


def test_machine_fixture_matrix_is_complete():
    """Every non-default built-in config pins every bundled workload."""
    from repro.workloads import all_workloads

    expected_machines = set(MACHINES) - {DEFAULT_MACHINE_NAME}
    by_machine = {}
    for path in FIXTURE_PATHS:
        trace = _load(path)
        by_machine.setdefault(trace["machine"], set()).add(trace["workload"])
    assert set(by_machine) == expected_machines
    for machine, workloads in by_machine.items():
        assert workloads == set(all_workloads()), machine


@pytest.mark.parametrize("path", FIXTURE_PATHS, ids=_fixture_id)
def test_machine_fixture_is_well_formed(path):
    trace = _load(path)
    assert trace["format"] == TRACE_FORMAT
    assert trace["machine"] == os.path.basename(os.path.dirname(path))
    assert trace["machine"] in MACHINES
    assert trace["stats"]["cycles"] > 0


@pytest.mark.parametrize("path", FIXTURE_PATHS, ids=_fixture_id)
def test_pipeline_matches_machine_golden(path):
    trace = _load(path)
    simulator = PipelineSimulator(_program_for(trace), machine=trace["machine"])
    stats = simulator.run(max_cycles=MAX_CYCLES)
    mismatches = trace_mismatches(
        trace, simulator.register_snapshot(), simulator.tdm.contents(), stats)
    assert not mismatches, "\n".join(mismatches)


@pytest.mark.parametrize("path", FIXTURE_PATHS, ids=_fixture_id)
def test_fast_engine_matches_machine_golden(path):
    trace = _load(path)
    engine = FastEngine(_program_for(trace), machine=trace["machine"])
    stats = engine.run_with_stats(max_cycles=MAX_CYCLES)
    mismatches = trace_mismatches(
        trace, engine.register_snapshot(), engine.tdm.contents(), stats)
    assert not mismatches, "\n".join(mismatches)
    assert state_digest(engine.register_snapshot(),
                        engine.tdm.contents()) == trace["state_digest"]


@pytest.mark.parametrize("path", FIXTURE_PATHS, ids=_fixture_id)
def test_compiled_engine_matches_machine_golden(path):
    trace = _load(path)
    engine = CompiledEngine(_program_for(trace), machine=trace["machine"])
    stats = engine.run_with_stats(max_cycles=MAX_CYCLES)
    mismatches = trace_mismatches(
        trace, engine.register_snapshot(), engine.tdm.contents(), stats)
    assert not mismatches, "\n".join(mismatches)
    assert state_digest(engine.register_snapshot(),
                        engine.tdm.contents()) == trace["state_digest"]


@pytest.mark.parametrize("path", FIXTURE_PATHS, ids=_fixture_id)
def test_compiled_engine_run_matches_machine_golden_state(path):
    """``run()`` executes the config's timed bundle and drops the stats;
    no config may leak into the architectural result."""
    trace = _load(path)
    engine = CompiledEngine(_program_for(trace), machine=trace["machine"])
    result = engine.run()
    assert result.halted
    mismatches = trace_mismatches(trace, result.registers, result.memory)
    assert not mismatches, "\n".join(mismatches)
    assert result.instructions_executed == \
        trace["stats"]["instructions_committed"]
    assert result.instruction_mix == trace["stats"]["instruction_mix"]
    assert state_digest(engine.register_snapshot(),
                        engine.tdm.contents()) == trace["state_digest"]


def test_state_digests_agree_with_default_machine_fixtures():
    """Architectural state in every corner fixture matches the default's."""
    default_digests = {}
    for path in sorted(glob.glob(os.path.join(GOLDEN_DIR, "*.json"))):
        trace = _load(path)
        default_digests[(trace["workload"],
                         json.dumps(trace["params"], sort_keys=True))] = \
            trace["state_digest"]
    assert default_digests
    for path in FIXTURE_PATHS:
        trace = _load(path)
        key = (trace["workload"], json.dumps(trace["params"], sort_keys=True))
        assert trace["state_digest"] == default_digests[key], path
