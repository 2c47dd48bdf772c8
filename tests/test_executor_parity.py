"""Failure and data-driven control-flow parity across the four executors.

``run_differential`` compares the executors on programs that halt or run
out of instruction budget.  The cases here pin what it does not reach: the
exact exception each executor raises when a program does not encode,
escapes its text, touches memory past the TDM depth or overruns a cycle
budget, and indirect jumps whose target is a value loaded from the data
memory, on every machine config.

The pipeline simulator has no instruction budget, so it is left out of
those cases.
"""

import pytest

from repro.isa.assembler import assemble
from repro.isa.encoder import EncodeError, encode_instruction
from repro.isa.instructions import Instruction
from repro.isa.program import DataSegment, Program
from repro.sim import (
    CompiledEngine,
    FastEngine,
    FunctionalSimulator,
    MemoryError_,
    PipelineSimulator,
    SimulationError,
)
from repro.sim.machine import machine_names
from repro.testing import generate_program, run_differential

#: Executors with an instruction-budgeted ``run()``.
ARCHITECTURAL = ("fast", "compiled", "functional")

#: Executors that produce :class:`PipelineStats` under a cycle budget.
TIMING = ("fast", "compiled", "pipeline")

#: Spins while the low trit of TDM[0] is zero and halts otherwise.
SPIN_SOURCE = """
LOAD T1, T0, 0
loop:
BEQ T1, 0, loop
HALT
"""

#: Jumps to the address held in TDM[0]: 2 sets T3, 4 sets T4, 5 halts at
#: once, and anything outside 0..5 escapes the program.
JALR_SOURCE = """
LOAD T1, T0, 0
JALR T2, T1, 0
ADDI T3, 1
HALT
ADDI T4, 2
HALT
"""


def _data_program(name, source, values):
    program = assemble(source, name=name)
    program.data.append(DataSegment(base_address=0, values=list(values)))
    return program


def _build(executor, program, **kwargs):
    if executor == "compiled":
        # cache=None: these one-off programs stay out of the shared cache.
        return CompiledEngine(program, cache=None, **kwargs)
    classes = {"fast": FastEngine, "functional": FunctionalSimulator,
               "pipeline": PipelineSimulator}
    return classes[executor](program, **kwargs)


def _timing_run(executor, program, max_cycles, machine):
    simulator = _build(executor, program, machine=machine)
    if executor == "pipeline":
        return simulator.run(max_cycles=max_cycles)
    return simulator.run_with_stats(max_cycles=max_cycles)


class TestProgramValidation:
    #: Instructions that do not encode, and the one message every
    #: executor (and the encoder) refuses each with.
    MALFORMED = {
        "immediate-out-of-range": (
            Instruction("ADDI", ta=1, imm=50),
            "immediate value 50 does not fit the 3-trit field of ADDI"),
        "missing-operand": (
            Instruction("ADD", ta=1), "ADD requires a Tb operand"),
        "bad-branch-trit": (
            Instruction("BEQ", tb=1, branch_trit=2, imm=1),
            "branch trit must be -1, 0 or +1, got 2"),
        "unresolved-label": (
            Instruction("JAL", ta=8, label="nowhere"),
            "unresolved label 'nowhere' in JAL"),
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    @pytest.mark.parametrize("executor", ARCHITECTURAL + ("pipeline",))
    def test_construction_refuses_what_does_not_encode(self, executor, case):
        instruction, message = self.MALFORMED[case]
        with pytest.raises(EncodeError) as encoded:
            encode_instruction(instruction)
        assert str(encoded.value) == message
        program = Program(name=case,
                          instructions=[instruction, Instruction("HALT")])
        with pytest.raises(EncodeError) as excinfo:
            _build(executor, program)
        assert str(excinfo.value) == message


class TestInstructionBudget:
    @pytest.mark.parametrize("executor", ARCHITECTURAL)
    def test_spinning_program_fails_with_the_budget_message(self, executor):
        spinner = _data_program("spin", SPIN_SOURCE, [0])
        with pytest.raises(SimulationError) as excinfo:
            _build(executor, spinner).run(max_instructions=500)
        assert str(excinfo.value) == (
            "program did not halt within 500 instructions")
        # The same text falls through when TDM[0]'s low trit is not zero.
        halter = _data_program("halt", SPIN_SOURCE, [2])
        result = _build(executor, halter).run(max_instructions=500)
        assert result.halted and result.instructions_executed == 3


    @pytest.mark.parametrize("executor", ("fast", "compiled"))
    def test_run_resumed_after_the_budget_keeps_fresh_stats(self, executor):
        program = generate_program(1)  # 124 instructions
        fresh = _build(executor, program)
        expected = fresh.run()
        for cut in range(1, 124, 3):
            resumed = _build(executor, program)
            with pytest.raises(SimulationError):
                resumed.run(max_instructions=cut)
            assert resumed.run() == expected
            assert resumed.stats == fresh.stats, cut


class TestPcEscape:
    ESCAPES = {
        "fallthrough": (lambda: assemble("ADDI T1, 1", name="fallthrough"),
                        "PC 1 outside program of 1 instructions"),
        "empty": (lambda: Program(name="empty"),
                  "PC 0 outside program of 0 instructions"),
        "indirect": (lambda: _data_program("jalr-out", JALR_SOURCE, [-1]),
                     "PC 19682 outside program of 6 instructions"),
    }

    @pytest.mark.parametrize("case", sorted(ESCAPES))
    @pytest.mark.parametrize("executor", ARCHITECTURAL)
    def test_escape_raises_the_same_message(self, executor, case):
        make_program, message = self.ESCAPES[case]
        with pytest.raises(SimulationError) as excinfo:
            _build(executor, make_program()).run()
        assert str(excinfo.value) == message

    # The pipeline refuses an empty program (TestCycleBudget pins that).
    @pytest.mark.parametrize("case", ["fallthrough", "indirect"])
    @pytest.mark.parametrize("machine", machine_names())
    def test_pipeline_escape_raises_the_same_message(self, machine, case):
        make_program, message = self.ESCAPES[case]
        simulator = _build("pipeline", make_program(), machine=machine)
        with pytest.raises(SimulationError) as excinfo:
            simulator.run(max_cycles=1_000)
        assert str(excinfo.value) == message


class TestMemoryFaults:
    ACCESSES = {
        "load": "LI T1, 100\nLOAD T2, T1, 0\nHALT",
        "store": "LI T1, 100\nSTORE T1, T1, 0\nHALT",
    }
    RUNS = [
        ("fast", "run"),
        ("fast", "run_with_stats"),
        ("compiled", "run"),
        ("compiled", "run_with_stats"),
        ("functional", "run"),
        ("pipeline", "run"),
    ]

    @pytest.mark.parametrize("access", sorted(ACCESSES))
    @pytest.mark.parametrize("executor,method", RUNS)
    def test_access_past_the_depth_raises_the_same_fault(self, executor,
                                                         method, access):
        program = assemble(self.ACCESSES[access], name=access)
        simulator = _build(executor, program, tdm_depth=64)
        with pytest.raises(MemoryError_) as excinfo:
            getattr(simulator, method)()
        assert str(excinfo.value) == "TDM: address 100 out of range 0..63"
        if executor in ARCHITECTURAL:
            # Stopped at the faulting instruction, with only LI retired.
            assert simulator.instructions_executed == 1
            assert simulator.pc == 1

    @pytest.mark.parametrize("executor", ARCHITECTURAL + ("pipeline",))
    def test_data_segment_past_the_depth_fails_at_construction(self,
                                                               executor):
        program = _data_program("bigdata", "HALT", range(100))
        with pytest.raises(MemoryError_) as excinfo:
            _build(executor, program, tdm_depth=16)
        assert str(excinfo.value) == "TDM: address 16 out of range 0..15"


class TestCycleBudget:
    @pytest.mark.parametrize("executor", TIMING)
    def test_spinning_program_fails_with_the_cycle_message(self, executor):
        spinner = _data_program("spin", SPIN_SOURCE, [0])
        with pytest.raises(SimulationError) as excinfo:
            _timing_run(executor, spinner, 1000, None)
        assert str(excinfo.value) == "program did not halt within 1000 cycles"

    @pytest.mark.parametrize("executor", TIMING)
    def test_empty_program_is_refused(self, executor):
        with pytest.raises(SimulationError) as excinfo:
            _timing_run(executor, Program(name="empty"), 50_000_000, None)
        assert str(excinfo.value) == "cannot simulate an empty program"

    @pytest.mark.parametrize("executor", TIMING)
    def test_a_second_timed_run_is_refused(self, executor):
        halting = assemble("ADDI T1, 1\nHALT", name="halting")
        spinner = _data_program("spin", SPIN_SOURCE, [0])
        for program, first_error in ((halting, None), (spinner, "budget")):
            simulator = _build(executor, program)
            run = (simulator.run if executor == "pipeline"
                   else simulator.run_with_stats)
            if first_error is None:
                run(max_cycles=1000)
            else:
                with pytest.raises(SimulationError):
                    run(max_cycles=1000)
            with pytest.raises(SimulationError) as excinfo:
                run(max_cycles=1000)
            assert str(excinfo.value) == (
                f"engine state already consumed; build a fresh "
                f"{type(simulator).__name__} for timing statistics")

    @pytest.mark.parametrize("machine", machine_names())
    def test_budget_boundary_is_the_pipeline_cycle_count(self, machine):
        program = generate_program(11)  # 33 cycles at most, on slowfetch5
        cycles = PipelineSimulator(program, machine=machine).run(
            max_cycles=1_000).cycles
        for executor in TIMING:
            stats = _timing_run(executor, program, cycles, machine)
            assert stats.cycles == cycles, executor
            with pytest.raises(SimulationError) as excinfo:
                _timing_run(executor, program, cycles - 1, machine)
            assert str(excinfo.value) == (
                f"program did not halt within {cycles - 1} cycles"), executor


class TestDataDrivenJumps:
    @pytest.mark.parametrize("machine", machine_names())
    def test_indirect_jump_follows_the_loaded_target(self, machine):
        for target, written in ((2, {"T3": 1}), (4, {"T4": 2}), (5, {})):
            program = _data_program(f"jalr-{target}", JALR_SOURCE, [target])
            # Raises DifferentialMismatch, naming the program, on
            # disagreement between any two executors.
            outcome = run_differential(program, machine=machine)
            assert outcome.ok and outcome.cycles > 0
            registers = FastEngine(program, machine=machine).run().registers
            # T2 links the return address; only the landing arm writes.
            expected = {"T1": target, "T2": 2, "T3": 0, "T4": 0, **written}
            assert {name: registers[name] for name in expected} == expected
