"""Program cases for the ID stage of the structural pipeline.

The branch decision (the target adder and the condition checker) and the
hazard detection unit are sections of the pipeline's clock, so each of
their decisions is pinned by a small program: which arm of a branch wrote
its marker register, the link a jump left, and the
``taken_branches``/``not_taken_branches``/``jumps`` and
``load_use_stalls`` counts (the load-use stall is the only stall source of
the ART-9 pipeline).
"""

import pytest

from repro.isa import assemble
from repro.sim import PipelineSimulator, SimulationError
from repro.sim.machine import machine_names

#: ``paper3stage`` predicts every branch not taken and redirects each JAL
#: in ID; ``btfn4`` predicts backward branches taken and folds JAL at fetch.
BRANCH_MACHINES = ("paper3stage", "btfn4")


def run_pipeline(source, machine):
    simulator = PipelineSimulator(assemble(source), machine=machine)
    stats = simulator.run()
    return simulator, stats


@pytest.mark.parametrize("machine", BRANCH_MACHINES)
class TestBranchDecision:
    """BEQ/BNE compare the low trit of Tb with the branch trit; JAL jumps
    to ``PC + imm``, JALR to ``(Tb + imm) mod 3**9``, and both link
    ``PC + 1``."""

    #: ``(Tb value, branch trit)`` pairs whose low trits match.
    MATCHING = [(0, 0), (1, 1), (-1, -1), (3, 0), (4, 1), (-4, -1)]
    DIFFERING = [(1, 0), (0, 1), (-1, 1), (2, 0)]

    #: T3 marks the fall-through arm, T4 the target arm.
    CONDITIONAL = """
        LIW T2, {value}
        {mnemonic} T2, {trit}, target
        ADDI T3, 1
        HALT
    target:
        ADDI T4, 1
        HALT
    """

    @pytest.mark.parametrize("mnemonic", ["BEQ", "BNE"])
    @pytest.mark.parametrize("value,trit", MATCHING + DIFFERING)
    def test_condition_checker(self, machine, mnemonic, value, trit):
        # BNE inverts BEQ's decision.
        taken = ((value, trit) in self.MATCHING) == (mnemonic == "BEQ")
        source = self.CONDITIONAL.format(value=value, trit=trit,
                                         mnemonic=mnemonic)
        simulator, stats = run_pipeline(source, machine)
        registers = simulator.register_snapshot()
        assert (registers["T3"], registers["T4"]) == (
            (0, 1) if taken else (1, 0))
        assert (stats.taken_branches, stats.not_taken_branches) == (
            (1, 0) if taken else (0, 1))

    def test_backward_branch(self, machine):
        simulator, stats = run_pipeline("""
            ADDI T2, 1
        loop:
            ADDI T2, -1        # 0 on the first pass, -1 on the second
            ADDI T5, 1
            BEQ  T2, 0, loop   # back once, then falls through
            HALT
        """, machine)
        registers = simulator.register_snapshot()
        assert (registers["T2"], registers["T5"]) == (-1, 2)
        assert (stats.taken_branches, stats.not_taken_branches) == (1, 1)

    def test_jal_target_and_link(self, machine):
        simulator, stats = run_pipeline("""
            NOP
            NOP
            JAL  T8, callee    # PC 2
            ADDI T3, 1
            HALT
        callee:
            ADDI T4, 1
            HALT
        """, machine)
        registers = simulator.register_snapshot()
        assert (registers["T8"], registers["T3"], registers["T4"]) == (3, 0, 1)
        assert (stats.jumps, stats.taken_branches) == (1, 0)

    def test_jalr_target_is_base_plus_offset(self, machine):
        simulator, stats = run_pipeline("""
            LIW  T5, 3
            JALR T6, T5, 2     # PC 2, to 3 + 2
            ADDI T3, 1
            HALT
            ADDI T4, 1         # PC 5
            HALT
        """, machine)
        registers = simulator.register_snapshot()
        assert (registers["T6"], registers["T3"], registers["T4"]) == (3, 0, 1)
        assert (stats.jumps, stats.taken_branches) == (1, 0)

    def test_jalr_wraps_a_negative_base(self, machine):
        # (-2 + 1) mod 3**9: the unsigned window of a 9-trit register.
        simulator = PipelineSimulator(
            assemble("LIW T5, -2\nJALR T6, T5, 1\nHALT"), machine=machine)
        with pytest.raises(SimulationError) as excinfo:
            simulator.run()
        assert str(excinfo.value) == (
            "PC 19682 outside program of 4 instructions")


class TestStallThenBranch:
    """A load-use consumer in EX and one in ID, then a taken branch."""

    SOURCE = """
        LIW T1, 9
        STORE T1, T0, 1
        LOAD T2, T0, 1
        ADD T3, T2             # load-use stall where the TALU has no bypass
        LOAD T4, T0, 1
        BEQ T4, 0, skip        # ID consumer: stalls everywhere, then taken
        ADDI T5, 1             # squashed
    skip:
        ADDI T6, 2
        STORE T6, T0, 2
        HALT
    """

    #: (cycles, load-use stalls, control flush bubbles) per machine.
    EXPECTED = {
        "paper3stage": (17, 2, 1),
        "btfn4": (16, 2, 1),
        "ideal2": (12, 1, 0),
        "predictnt": (17, 2, 1),
        "slowfetch5": (20, 2, 3),
    }

    @pytest.mark.parametrize("machine", machine_names())
    def test_registers_memory_and_stats(self, machine):
        simulator, stats = run_pipeline(self.SOURCE, machine)
        assert simulator.register_snapshot() == {
            "T0": 0, "T1": 9, "T2": 9, "T3": 9, "T4": 9, "T5": 0, "T6": 2,
            "T7": 0, "T8": 0}
        assert simulator.tdm.contents() == {1: 9, 2: 2}
        cycles, stalls, bubbles = self.EXPECTED[machine]
        assert stats.to_dict() == {
            "cycles": cycles, "instructions_committed": 10,
            "load_use_stalls": stalls, "control_flush_bubbles": bubbles,
            "taken_branches": 1, "not_taken_branches": 0, "jumps": 0,
            "ex_forwards": 3, "mem_forwards": 2, "id_forwards": 1,
            "instruction_mix": {"LUI": 1, "LI": 1, "STORE": 2, "LOAD": 2,
                                "ADD": 1, "BEQ": 1, "ADDI": 1, "HALT": 1}}


class TestHazardDetection:
    """The HDU's decision for the instruction in ID, one program per case.

    At load-use penalty 1 (``paper3stage``) any reader of the register a
    LOAD in EX writes stalls one cycle; at penalty 0 (``ideal2``) the TALU
    takes the loaded word through the same-cycle MEM bypass, so only the
    ID consumers (the branch condition and the JALR base) stall.
    """

    CASES = {
        # The consumer reads the loaded register through Tb.  After its
        # one stall the inserted bubble is in EX while the consumer is
        # still in ID, so a count of exactly 1 also shows that the HDU
        # does not stall on a bubble.
        "load-use": ("LOAD T3, T1, 0\nADD T2, T3", 1, 0),
        "independent consumer": ("LOAD T3, T1, 0\nADD T2, T4", 0, 0),
        "non-load producer": ("ADD T3, T1\nADD T2, T3", 0, 0),
        # BEQ consumes its condition trit in ID itself.
        "branch reads loaded register": (
            "LOAD T5, T1, 0\nBEQ T5, 0, next\nnext:\nNOP", 1, 1),
        # STORE reads the loaded value as its data operand (Ta).
        "store of loaded value": ("LOAD T5, T1, 0\nSTORE T5, T2, 0", 1, 0),
    }

    @pytest.mark.parametrize("machine", ["paper3stage", "ideal2"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_stall_decision(self, case, machine):
        source, paper3stage, ideal2 = self.CASES[case]
        expected = {"paper3stage": paper3stage, "ideal2": ideal2}[machine]
        simulator = PipelineSimulator(assemble(source + "\nHALT"),
                                      machine=machine)
        assert simulator.run().load_use_stalls == expected
