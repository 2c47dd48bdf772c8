"""Config-matrix differential suite: four executors at every design corner.

For every built-in machine config the differential harness runs generated
programs through the functional simulator, the fast engine, the compiled
engine and the stage-by-stage pipeline and demands exact agreement on
architectural state *and* on the full cycle-accounting record.  The
functional simulator has no timing model, which is precisely the point:
architectural results must be identical across configs, while the three
cycle-accurate engines must agree with each other *under* each config.
"""

import pytest

from repro.framework import HardwareFramework
from repro.isa.assembler import assemble
from repro.isa.program import DataSegment
from repro.sim.machine import MACHINES
from repro.testing import fuzz, run_differential
from repro.testing.generator import generate_program
from repro.runner.fuzzpool import run_parallel_fuzz

#: Seeds per config for the full (pipeline-checked) matrix sweep.  Kept
#: modest because the stage-by-stage pipeline dominates the runtime; the
#: nightly `art9 fuzz --machine` CI job runs far more.
SEEDS_PER_CONFIG = 25

ALL_MACHINES = sorted(MACHINES)

#: A loop whose trip count is data-dependent: it counts down from TDM[0]
#: until the low trit clears, so each initial value halts after a different
#: number of instructions.
DIVERGENT_SOURCE = """
LOAD T1, T0, 0
loop:
ADDI T1, -1
BNE T1, 0, loop
HALT
"""

#: A diamond inside a six-iteration loop: each iteration the low trit of
#: TDM[0] picks an arm — a load-use pair, or an EX-forward pair closed by a
#: jump — and both arms join before the loop branch.
DIAMOND_SOURCE = """
LOAD T1, T0, 0
LI T2, 6
loop:
BEQ T1, 0, armb
LOAD T3, T0, 1
ADD T3, T3
JAL T4, join
armb:
ADDI T3, 1
ADD T3, T3
join:
SRI T1, 1
ADDI T2, -1
MV T5, T2
COMP T5, T0
BNE T5, 0, loop
HALT
"""


def _data_program(name, source, values):
    program = assemble(source, name=name)
    program.data.append(DataSegment(base_address=0, values=list(values)))
    return program


def _hand_written_programs():
    """The two data-driven control-flow shapes, over several data values."""
    divergent = [_data_program(f"divergent-{v}", DIVERGENT_SOURCE, [v])
                 for v in (1, 3, 9, 2, 5)]
    diamond = [_data_program(f"diamond-{v}", DIAMOND_SOURCE, [v, 4])
               for v in (0, 1, -1, 2, 5, 13, -41, 100)]
    return divergent + diamond


@pytest.mark.parametrize("machine", ALL_MACHINES)
def test_four_way_agreement_under_every_builtin_config(machine):
    report = fuzz(count=SEEDS_PER_CONFIG, seed=1000, machine=machine)
    assert report.ok, f"{machine}: " + "; ".join(
        mismatch
        for failure in report.failures
        for mismatch in failure.mismatches)
    assert report.programs_run == SEEDS_PER_CONFIG


@pytest.mark.parametrize("machine", ALL_MACHINES)
def test_single_program_differential_accepts_machine(machine):
    for program in [generate_program(4242), *_hand_written_programs()]:
        # Raises DifferentialMismatch, naming the program, on disagreement.
        outcome = run_differential(program, machine=machine)
        assert outcome.ok, program.name
        assert outcome.cycles is not None and outcome.cycles > 0, program.name


def test_architectural_state_is_machine_invariant():
    """Timing configs must never leak into architectural results."""
    program = generate_program(77)
    digests = set()
    cycles = {}
    for machine in ALL_MACHINES:
        stats, registers, memory = HardwareFramework().simulate_with_state(
            program, machine=machine)
        from repro.sim.trace import state_digest

        digests.add(state_digest(registers, memory))
        cycles[machine] = stats.cycles
    assert len(digests) == 1, "final state depends on the machine config"
    # ...but the timing corners genuinely differ on a branchy trace.
    assert len(set(cycles.values())) > 1, cycles


def test_parallel_fuzz_carries_the_machine_axis():
    serial = fuzz(count=6, seed=300, machine="btfn4")
    parallel = run_parallel_fuzz(count=6, seed=300, jobs=2, machine="btfn4")
    assert serial.ok and parallel.ok
    assert parallel.programs_run == serial.programs_run == 6
    assert parallel.instructions_executed == serial.instructions_executed
