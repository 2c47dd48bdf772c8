"""Differential validation of the fast execution engine.

Three layers of evidence that ``repro.sim.engine`` is a faithful drop-in for
the object-model simulators:

* operation-level cross-checks of the integer arithmetic against the
  trit-by-trit reference implementations in ``repro.ternary``;
* whole-program equivalence on all four bundled workloads (registers,
  memory, PC, instruction mix **and** every pipeline statistic);
* a 500-program seeded fuzzing sweep through ``repro.testing``.
"""

import pytest

from repro.framework import HardwareFramework, SoftwareFramework
from repro.isa.assembler import assemble
from repro.isa.instructions import Instruction
from repro.isa.program import Program
from repro.sim import FastEngine, FunctionalSimulator, PipelineSimulator, SimulationError
from repro.sim import timing
from repro.sim.engine import HALF, MOD, wrap
from repro.sim.machine import machine_names
from repro.ternary.arithmetic import (
    add_words,
    compare_words,
    shift_left,
    shift_right,
    sub_words,
)
from repro.ternary.logic import word_and, word_nti, word_or, word_pti, word_xor
from repro.ternary.word import TernaryWord
from repro.testing import fuzz, generate_program, run_differential
from repro.testing.differential import STATS_FIELDS
from repro.workloads import all_workloads

# Deterministic operand sample spanning small values, extremes and wrap edges.
_SAMPLE = (
    0, 1, -1, 2, -2, 3, -3, 13, -13, 40, -40, 121, -121, 364, -364,
    1093, -1093, 4000, -4000, 9000, -9000, 9840, -9840, 9841, -9841,
)


class TestWrapArithmetic:
    def test_wrap_matches_ternary_word_constructor(self):
        for value in range(-3 * MOD, 3 * MOD, 97):
            assert wrap(value) == TernaryWord(value).value

    @pytest.mark.parametrize("a", _SAMPLE)
    @pytest.mark.parametrize("b", (0, 1, -1, 121, -121, 9841, -9841))
    def test_add_sub_comp_match_trit_reference(self, a, b):
        wa, wb = TernaryWord(a), TernaryWord(b)
        assert wrap(a + b) == add_words(wa, wb).value
        assert wrap(a - b) == sub_words(wa, wb).value
        assert (a > b) - (a < b) == compare_words(wa, wb)

    @pytest.mark.parametrize("amount", range(9))
    def test_shifts_match_trit_reference(self, amount):
        for value in _SAMPLE:
            word = TernaryWord(value)
            assert wrap(value * 3 ** amount) == shift_left(word, amount).value
            p = 3 ** amount
            h = (p - 1) // 2
            expected = (value - ((value + h) % p - h)) // p
            assert expected == shift_right(word, amount).value

    def test_gates_match_trit_reference(self):
        ops = {"AND": word_and, "OR": word_or, "XOR": word_xor}
        for mnemonic, reference in ops.items():
            for a in _SAMPLE[:12]:
                for b in _SAMPLE[:12]:
                    program = _register_program(
                        a, b, Instruction(mnemonic, ta=1, tb=2)
                    )
                    result = FastEngine(program).run()
                    expected = reference(TernaryWord(a), TernaryWord(b)).value
                    assert result.register("T1") == expected, (mnemonic, a, b)

    def test_inverters_match_trit_reference(self):
        for mnemonic, reference in (("PTI", word_pti), ("NTI", word_nti)):
            for value in _SAMPLE:
                program = _register_program(0, value, Instruction(mnemonic, ta=1, tb=2))
                result = FastEngine(program).run()
                assert result.register("T1") == reference(TernaryWord(value)).value


def _register_program(a, b, *instructions) -> Program:
    """A program that materialises T1=a, T2=b then runs ``instructions``."""
    from repro.isa.assembler import split_constant

    program = Program(name="unit")
    for reg, value in ((1, a), (2, b)):
        high, low = split_constant(value)
        program.append(Instruction("LUI", ta=reg, imm=high))
        program.append(Instruction("LI", ta=reg, imm=low))
    program.extend(instructions)
    program.append(Instruction("HALT"))
    return program


@pytest.fixture(scope="module")
def translated_workloads():
    software = SoftwareFramework()
    return {
        name: software.compile_workload(workload)[0]
        for name, workload in all_workloads().items()
    }


@pytest.mark.parametrize("name", ["bubble_sort", "gemm", "sobel", "dhrystone"])
class TestWorkloadEquivalence:
    def test_execution_result_is_bit_identical(self, name, translated_workloads):
        program = translated_workloads[name]
        fast = FastEngine(program).run()
        reference = FunctionalSimulator(program).run()
        assert fast.registers == reference.registers
        assert fast.memory == reference.memory
        assert fast.pc == reference.pc
        assert fast.halted and reference.halted
        assert fast.instructions_executed == reference.instructions_executed
        assert fast.instruction_mix == reference.instruction_mix

    def test_pipeline_stats_are_bit_identical(self, name, translated_workloads):
        program = translated_workloads[name]
        fast_stats = FastEngine(program).run_with_stats()
        pipeline_stats = PipelineSimulator(program).run()
        for field in STATS_FIELDS:
            assert getattr(fast_stats, field) == getattr(pipeline_stats, field), field
        assert fast_stats.instruction_mix == pipeline_stats.instruction_mix

    def test_workload_results_check_out_on_the_engine(self, name, translated_workloads):
        workload = all_workloads()[name]
        engine = FastEngine(translated_workloads[name])
        engine.run()
        assert [engine.tdm.read_int(workload.result_base + 4 * index)
                for index in range(workload.result_count)] == \
            workload.expected_results


class TestHardwareFrameworkEngines:
    def test_both_engines_report_identical_cycles(self, translated_workloads):
        program = translated_workloads["bubble_sort"]
        framework = HardwareFramework()
        fast = framework.simulate(program, engine="fast")
        pipe = framework.simulate(program, engine="pipeline")
        assert fast.cycles == pipe.cycles
        assert fast.stall_cycles == pipe.stall_cycles

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            HardwareFramework(engine="quantum")
        with pytest.raises(ValueError):
            HardwareFramework().simulate(Program(instructions=[Instruction("HALT")]),
                                         engine="quantum")


class TestEngineContract:
    def test_runaway_program_raises(self):
        program = assemble("loop:\nJAL T6, loop")
        with pytest.raises(SimulationError):
            FastEngine(program).run(max_instructions=500)

    def test_pc_escape_raises(self):
        program = assemble("ADDI T1, 1")  # no HALT
        with pytest.raises(SimulationError):
            FastEngine(program).run()

    def test_empty_program_rejected_by_timing_model(self):
        with pytest.raises(SimulationError):
            FastEngine(Program()).run_with_stats()

    def test_single_halt_costs_five_cycles(self):
        stats = FastEngine(assemble("HALT")).run_with_stats()
        assert stats.cycles == 5
        assert stats.instructions_committed == 1

    def test_timing_model_rejects_consumed_engine_state(self):
        program = assemble("ADDI T1, 1\nHALT")
        engine = FastEngine(program)
        engine.run()
        with pytest.raises(SimulationError):
            engine.run_with_stats()

    def test_reduced_depth_memory_fault_matches_functional(self):
        from repro.sim import MemoryError_

        program = assemble("LI T2, 100\nSTORE T1, T2, 0\nHALT")
        with pytest.raises(MemoryError_):
            FastEngine(program, tdm_depth=64).run()
        with pytest.raises(MemoryError_):
            FunctionalSimulator(program, tdm_depth=64).run()
        fast = FastEngine(program, tdm_depth=64)
        functional = FunctionalSimulator(program, tdm_depth=64)
        for simulator in (fast, functional):
            with pytest.raises(MemoryError_):
                simulator.run()
        assert fast.instructions_executed == functional.instructions_executed == 1

    def test_memory_view_matches_functional_tdm(self):
        program = assemble(
            "LI T1, 77\nLI T2, 5\nSTORE T1, T2, 0\nSTORE T1, T2, 1\nHALT"
        )
        engine = FastEngine(program)
        engine.run()
        functional = FunctionalSimulator(program)
        functional.run()
        assert engine.tdm.read_int(5) == functional.tdm.read_int(5) == 77
        assert engine.tdm.dump(5, 2) == functional.tdm.dump(5, 2)
        assert engine.tdm.contents() == functional.tdm.contents()


class TestRunTiming:
    """``run_with_stats()`` applies the timing model once per straight-line run.

    A run starts at the first instruction and after every control
    transfer, and ends at the next BEQ, BNE, JAL, JALR or HALT.  A run's
    second end splits it into the prefix stepped every time and the folded
    exits, so each program below runs every shape it names at least three
    times.
    """

    PROGRAMS = {
        # Runs of 2 (loop), 1 (BNE), 2 (LOAD, JAL) and 3 (tail), each ending
        # both ways where it can; the 1-instruction HALT run ends it.
        "short-runs": """
                LIW T2, 5
        loop:   ADDI T1, 1
                BEQ T1, 0, tail        # taken at T1 = 3
                BNE T1, 1, tail        # taken at T1 = 2, 5
                LOAD T6, T0, 0
                JAL T8, tail
        tail:   MV T5, T1              # T5 = sign(T1 - T2)
                COMP T5, T2
                BNE T5, 0, loop
                HALT
        """,
        # A long run that ends in HALT, with a load-use stall inside.
        "halt-run": """
                LIW T2, 3
        loop:   ADDI T1, 1
                MV T5, T1
                COMP T5, T2
                BNE T5, 0, loop
                STORE T1, T0, 3
                LOAD T4, T0, 3
                ADD T4, T4
                ADDI T4, 1
                HALT
        """,
        # JALR lands on `mid`, which no branch targets: the run from there
        # starts inside the static stretch from `stretch`, and both run.
        "jalr-mid-stretch": """
                LIW T7, mid
                LIW T2, 7
        loop:   ADDI T1, 1
                BEQ T1, 0, stretch     # taken at T1 = 3, 6
                JALR T8, T7, 0
        stretch: ADDI T3, 1
                LOAD T4, T0, 0
        mid:    ADD T4, T1             # load-use after `stretch`
                MV T5, T1
                COMP T5, T2
                BNE T5, 0, loop
                HALT
        """,
        # The run from `loop` is longer than the carried prefix and leaves
        # taken, taken, then not taken, so its plan uses both exits.
        "loop-both-exits": """
                LIW T2, 4
        loop:   STORE T1, T0, 2
                LOAD T3, T0, 2
                ADD T3, T3
                ADDI T1, 1
                MV T5, T1
                COMP T5, T2
                BNE T5, 0, loop
                HALT
        """,
    }

    @pytest.mark.parametrize("machine", machine_names())
    @pytest.mark.parametrize("shape", sorted(PROGRAMS))
    def test_run_shape_matches_the_pipeline(self, shape, machine):
        program = assemble(self.PROGRAMS[shape], name=shape)
        stats = FastEngine(program, machine=machine).run_with_stats()
        assert stats == PipelineSimulator(program, machine=machine).run()
        assert stats.taken_branches and stats.not_taken_branches

    @pytest.mark.parametrize("machine", ["paper3stage", "btfn4"])
    def test_few_model_steps_per_instruction(self, translated_workloads,
                                             machine, monkeypatch):
        # One step per committed instruction would read 1.0; stepping only
        # each run's carried prefix reads about 0.2 on Dhrystone.
        steps = 0
        step = timing.step

        def counted_step(*args):
            nonlocal steps
            steps += 1
            step(*args)

        monkeypatch.setattr(timing, "step", counted_step)
        program = translated_workloads["dhrystone"]
        stats = FastEngine(program, machine=machine).run_with_stats()
        assert stats.cycles == PipelineSimulator(program, machine=machine).run().cycles
        assert steps <= 0.3 * stats.instructions_committed, (
            steps / stats.instructions_committed)


class TestDifferentialFuzzing:
    def test_500_seeded_programs_agree_across_all_executors(self):
        report = fuzz(count=500, seed=0)
        assert report.ok, "\n".join(
            f"{failure.program_name}: {failure.mismatches}"
            for failure in report.failures
        )
        assert report.programs_run == 500
        assert report.instructions_executed > 5_000

    def test_generator_is_deterministic(self):
        first = generate_program(42)
        second = generate_program(42)
        assert [i.render() for i in first.instructions] == [
            i.render() for i in second.instructions
        ]

    def test_one_engine_of_each_kind_per_program(self, monkeypatch):
        """The run compared with the functional simulator is the run whose
        stats are compared with the pipeline."""
        from repro.testing import differential

        built = []

        def counting(cls):
            def build(*args, **kwargs):
                built.append(cls.__name__)
                return cls(*args, **kwargs)
            return build

        for name in ("FastEngine", "CompiledEngine"):
            monkeypatch.setattr(differential, name,
                                counting(getattr(differential, name)))
        for seed in range(3):
            built.clear()
            assert run_differential(generate_program(seed)).ok
            assert sorted(built) == ["CompiledEngine", "FastEngine"]

    def test_run_differential_reports_clean_outcome(self):
        outcome = run_differential(generate_program(7))
        assert outcome.ok
        assert outcome.cycles is not None

    def test_exhausted_budget_is_agreement_not_a_crash(self):
        # Both executors must fail the budget identically; that agreement is
        # reported, not raised.
        outcome = run_differential(generate_program(7), max_instructions=1)
        assert outcome.ok
        assert outcome.budget_exhausted
        report = fuzz(count=3, seed=7, max_instructions=1)
        assert report.ok
        assert report.budget_exhausted == 3
        assert "hit the instruction budget" in report.summary()
