"""Tests for the cycle-accurate 5-stage pipeline simulator.

Covers the hazard cases the paper describes (load-use stalls, taken-branch
bubbles, forwarding removing ALU-use hazards) and checks architectural
equivalence with the functional simulator on random straight-line and
control-flow-heavy programs.
"""

import ast
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.framework import SoftwareFramework
from repro.isa import Instruction, Program, assemble
from repro.sim import FunctionalSimulator, PipelineSimulator, SimulationError
from repro.sim.machine import machine_names
from repro.sim.memory import TernaryMemory
from repro.ternary.word import TernaryWord
from repro.workloads import get_workload

#: Cycle budget for every program these tests run to HALT.  Every
#: default-size bundled workload takes at most 14,007 cycles on any
#: built-in machine, so a fault that makes a program loop fails in well
#: under a second instead of spinning out the 50,000,000-cycle default.
CYCLE_BUDGET = 100_000


def run_both(source):
    program = assemble(source)
    functional = FunctionalSimulator(program)
    functional.run()
    pipeline = PipelineSimulator(program)
    stats = pipeline.run(max_cycles=CYCLE_BUDGET)
    assert pipeline.register_snapshot() == functional.registers.snapshot()
    return pipeline, stats


class TestCycleCounts:
    def test_straight_line_fills_and_drains(self):
        # N instructions, no hazards: N + 4 cycles (fill + drain).
        _, stats = run_both("ADDI T1, 1\nADDI T2, 2\nADDI T3, 3\nADDI T4, 4\nHALT")
        assert stats.instructions_committed == 5
        assert stats.cycles == 5 + 4
        assert stats.stall_cycles == 0

    def test_alu_use_hazard_needs_no_stall(self):
        _, stats = run_both("""
            ADDI T1, 5
            ADDI T1, 3
            MV   T2, T1
            ADD  T2, T1
            HALT
        """)
        assert stats.load_use_stalls == 0
        assert stats.ex_forwards > 0

    def test_load_use_hazard_costs_one_cycle(self):
        _, baseline = run_both("""
            LIW T1, 9
            STORE T1, T0, 1
            LOAD T2, T0, 1
            NOP
            ADD T3, T2
            HALT
        """)
        _, hazard = run_both("""
            LIW T1, 9
            STORE T1, T0, 1
            LOAD T2, T0, 1
            ADD T3, T2
            NOP
            HALT
        """)
        assert hazard.load_use_stalls == 1
        assert baseline.load_use_stalls == 0
        # Both programs commit seven instructions; the hazard run pays exactly
        # one extra cycle for the load-use bubble.
        assert hazard.cycles == baseline.cycles + 1

    def test_taken_branch_costs_one_bubble(self):
        _, stats = run_both("""
            ADDI T1, 1
            BEQ  T0, 0, target     # always taken (T0 is zero)
            ADDI T2, 1             # squashed
        target:
            ADDI T3, 1
            HALT
        """)
        assert stats.control_flush_bubbles == 1
        assert stats.taken_branches == 1

    def test_not_taken_branch_is_free(self):
        _, stats = run_both("""
            ADDI T1, 1
            BNE  T0, 0, away
            ADDI T2, 1
        away:
            HALT
        """)
        assert stats.control_flush_bubbles == 0
        assert stats.not_taken_branches == 1

    def test_branch_after_comp_uses_id_forwarding(self):
        pipeline, stats = run_both("""
            LIW T1, 4
            LIW T2, 9
            MV  T3, T1
            COMP T3, T2
            BEQ T3, -1, less
            ADDI T4, 1
        less:
            HALT
        """)
        assert stats.load_use_stalls == 0
        assert pipeline.register_snapshot()["T4"] == 0
        assert stats.id_forwards > 0

    def test_jump_and_link(self):
        pipeline, stats = run_both("""
            LIW T1, 3
            JAL T8, callee
            ADD T1, T1
            HALT
        callee:
            ADDI T1, 4
            JALR T6, T8, 0
        """)
        assert pipeline.register_snapshot()["T1"] == 14
        assert stats.jumps == 2

    def test_cpi_reported(self):
        _, stats = run_both("ADDI T1, 1\nHALT")
        assert stats.cpi == stats.cycles / stats.instructions_committed


class TestPredecodedRun:
    """A run reads only the per-PC records built when the simulator is."""

    @pytest.fixture(scope="class")
    def dhrystone(self):
        return SoftwareFramework().compile_workload(get_workload("dhrystone"))[0]

    @pytest.mark.parametrize("machine", ["paper3stage", "btfn4"])
    def test_run_never_consults_the_spec_or_renders(self, dhrystone, machine,
                                                   monkeypatch):
        pipeline = PipelineSimulator(dhrystone, machine=machine)
        calls = Counter()
        spec, render = Instruction.spec, Instruction.render

        def counted_spec(instruction):
            calls["spec"] += 1
            return spec.fget(instruction)

        def counted_render(instruction):
            calls["render"] += 1
            return render(instruction)

        monkeypatch.setattr(Instruction, "spec", property(counted_spec))
        monkeypatch.setattr(Instruction, "render", counted_render)
        stats = pipeline.run(max_cycles=CYCLE_BUDGET)
        # The load-use stall and redirect paths both ran.
        assert stats.load_use_stalls > 0 and stats.control_flush_bubbles > 0
        assert (calls["spec"], calls["render"]) == (0, 0)

    @pytest.mark.parametrize("machine", ["paper3stage", "btfn4"])
    def test_the_clock_makes_few_calls_per_cycle(self, dhrystone, machine):
        # The stages, the HDU, the forwarding muxes, the TDM port and the
        # branch decision are sections of one loop; what calls remain are
        # the TALU's trit-level algorithms, their result words and the
        # word properties the datapath reads (about 1.64 per cycle).  A
        # stage, mux or wrapper call per cycle would add at least 1, a TDM
        # port call about 0.3, a branch-unit call about 0.12.
        pipeline = PipelineSimulator(dhrystone, machine=machine)
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            if event == "call":
                calls += 1

        previous = sys.getprofile()
        sys.setprofile(count)
        try:
            stats = pipeline.run(max_cycles=CYCLE_BUDGET)
        finally:
            sys.setprofile(previous)
        assert calls <= 1.7 * stats.cycles, calls / stats.cycles

    def test_the_tdm_port_checks_the_stored_word_width(self):
        # The MEM section writes the TDM's cells itself; a word that is not
        # 9 trits wide is refused as TernaryMemory.write refuses it.
        word = TernaryWord(5, 6)
        with pytest.raises(ValueError) as expected:
            TernaryMemory(name="TDM").write(3, word)
        pipeline = PipelineSimulator(assemble("STORE T1, T0, 3\nHALT"))
        pipeline.registers.words[1] = word
        with pytest.raises(ValueError) as excinfo:
            pipeline.run()
        assert str(excinfo.value) == str(expected.value) == (
            "TDM: word width 6 does not match memory width 9")
        assert pipeline.tdm.contents() == {}


def test_pipeline_imports_no_analytic_engine():
    """The structural reference shares no code with what it checks."""
    root = Path(sys.modules[PipelineSimulator.__module__].__file__).parent
    forbidden = {"repro.sim.timing", "repro.sim.engine", "repro.sim.compiled"}
    sources = sorted(root.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                names = {node.module or ""}
                if node.module == "repro.sim":
                    names |= {f"repro.sim.{alias.name}"
                              for alias in node.names}
            else:
                continue
            assert not names & forbidden, (path.name, names & forbidden)


class TestErrorHandling:
    def test_empty_program_rejected(self):
        with pytest.raises(SimulationError):
            PipelineSimulator(Program()).run()

    def test_runaway_program_detected(self):
        pipeline = PipelineSimulator(assemble("loop:\nJAL T6, loop"))
        with pytest.raises(SimulationError):
            pipeline.run(max_cycles=200)
        # The clock's counters and PC are stored when it stops on a budget:
        # ID resolved 100 jumps, two of them still short of WB.
        stats = pipeline.stats
        assert not pipeline.halted and pipeline.pc == 0
        assert (stats.cycles, stats.jumps, stats.instructions_committed,
                stats.control_flush_bubbles) == (200, 100, 98, 100)

    def test_summary_is_printable(self):
        pipeline = PipelineSimulator(assemble("HALT"))
        stats = pipeline.run()
        assert "cycles" in stats.summary()


@pytest.mark.parametrize("name", ["bubble_sort", "gemm", "sobel", "dhrystone"])
def test_bundled_workload_halts_within_the_cycle_budget(name):
    """``CYCLE_BUDGET`` stops a looping fault fast but never a default-size
    bundled workload, translated either way, on any built-in machine."""
    workload = get_workload(name)
    for optimize in (True, False):
        program, _ = SoftwareFramework(optimize=optimize).compile_workload(
            workload)
        for machine in machine_names():
            pipeline = PipelineSimulator(program, machine=machine)
            pipeline.run(max_cycles=CYCLE_BUDGET)
            assert pipeline.halted, (machine, optimize)


# ---------------------------------------------------------------------------
# Property-based equivalence: the pipelined core must be architecturally
# identical to the functional reference model for arbitrary hazard patterns.
# ---------------------------------------------------------------------------

_REGS = st.integers(min_value=1, max_value=8)


def _random_body(draw):
    instructions = []
    choice = draw(st.lists(st.integers(min_value=0, max_value=6), min_size=5, max_size=30))
    for kind in choice:
        if kind == 0:
            instructions.append(Instruction("ADDI", ta=draw(_REGS), imm=draw(st.integers(-13, 13))))
        elif kind == 1:
            instructions.append(Instruction("ADD", ta=draw(_REGS), tb=draw(_REGS)))
        elif kind == 2:
            instructions.append(Instruction("SUB", ta=draw(_REGS), tb=draw(_REGS)))
        elif kind == 3:
            instructions.append(Instruction("MV", ta=draw(_REGS), tb=draw(_REGS)))
        elif kind == 4:
            instructions.append(Instruction("STORE", ta=draw(_REGS), tb=0, imm=draw(st.integers(0, 13))))
        elif kind == 5:
            instructions.append(Instruction("LOAD", ta=draw(_REGS), tb=0, imm=draw(st.integers(0, 13))))
        else:
            instructions.append(Instruction("COMP", ta=draw(_REGS), tb=draw(_REGS)))
    return instructions


@st.composite
def random_programs(draw):
    program = Program(name="random")
    for instruction in _random_body(draw):
        program.append(instruction)
    # A short forward branch keeps control flow interesting but always halts.
    program.append(Instruction("BNE", tb=draw(_REGS), branch_trit=0, imm=2))
    program.append(Instruction("ADDI", ta=draw(_REGS), imm=1))
    program.append(Instruction("HALT"))
    return program


class TestPipelineEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(random_programs())
    def test_matches_functional_simulator(self, program):
        functional = FunctionalSimulator(program)
        functional.run(max_instructions=10_000)
        pipeline = PipelineSimulator(program)
        stats = pipeline.run(max_cycles=100_000)
        assert pipeline.register_snapshot() == functional.registers.snapshot()
        assert stats.instructions_committed == functional.instructions_executed
        # Cycle count is committed instructions + pipeline fill + hazards.
        assert stats.cycles == stats.instructions_committed + 4 + stats.stall_cycles
