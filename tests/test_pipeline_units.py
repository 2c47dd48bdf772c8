"""Unit tests for the ID-stage branch unit and the hazard detection rule.

The branch unit is called on its own: taken/not-taken decisions against
the condition trit, JAL/JALR targets and link values.  The hazard
detection unit is a section of the pipeline's clock, so each of its
decisions is pinned by a small program whose ``load_use_stalls`` count
shows whether the consumer stalled (the load-use stall is the only stall
source of the ART-9 pipeline).
"""

import pytest

from repro.isa import assemble
from repro.isa.instructions import Instruction
from repro.sim import PipelineSimulator
from repro.sim.pipeline.branch import BranchUnit
from repro.ternary.word import WORD_TRITS, TernaryWord

MOD = 3 ** WORD_TRITS


def word(value: int) -> TernaryWord:
    return TernaryWord(value)


class TestBranchUnitBranches:
    @pytest.mark.parametrize("value,trit", [(0, 0), (1, 1), (-1, -1),
                                            (3, 0), (4, 1), (-4, -1)])
    def test_beq_taken_when_lst_matches(self, value, trit):
        unit = BranchUnit()
        beq = Instruction("BEQ", tb=2, branch_trit=trit, imm=5)
        outcome = unit.evaluate(beq, pc=10, tb_value=word(value))
        assert outcome.is_control and outcome.taken
        assert outcome.target == 15
        assert outcome.link_value is None

    @pytest.mark.parametrize("value,trit", [(1, 0), (0, 1), (-1, 1), (2, 0)])
    def test_beq_not_taken_when_lst_differs(self, value, trit):
        unit = BranchUnit()
        beq = Instruction("BEQ", tb=2, branch_trit=trit, imm=5)
        outcome = unit.evaluate(beq, pc=10, tb_value=word(value))
        assert outcome.is_control and not outcome.taken
        assert outcome.target is None

    def test_bne_inverts_the_beq_decision(self):
        unit = BranchUnit()
        bne = Instruction("BNE", tb=1, branch_trit=0, imm=-3)
        taken = unit.evaluate(bne, pc=20, tb_value=word(1))
        assert taken.taken and taken.target == 17
        not_taken = unit.evaluate(bne, pc=20, tb_value=word(0))
        assert not not_taken.taken

    def test_backward_branch_target(self):
        unit = BranchUnit()
        beq = Instruction("BEQ", tb=0, branch_trit=0, imm=-8)
        outcome = unit.evaluate(beq, pc=30, tb_value=word(0))
        assert outcome.taken and outcome.target == 22


class TestBranchUnitJumps:
    def test_jal_is_unconditional_with_link(self):
        unit = BranchUnit()
        jal = Instruction("JAL", ta=4, imm=12)
        outcome = unit.evaluate(jal, pc=7, tb_value=None)
        assert outcome.is_control and outcome.taken
        assert outcome.target == 19
        assert outcome.link_value == 8  # PC + 1

    def test_jalr_targets_register_plus_offset(self):
        unit = BranchUnit()
        jalr = Instruction("JALR", ta=3, tb=5, imm=2)
        outcome = unit.evaluate(jalr, pc=40, tb_value=word(100))
        assert outcome.taken and outcome.target == 102
        assert outcome.link_value == 41

    def test_jalr_wraps_into_the_address_space(self):
        unit = BranchUnit()
        jalr = Instruction("JALR", ta=3, tb=5, imm=1)
        outcome = unit.evaluate(jalr, pc=0, tb_value=word(-1))
        # (-1 + 1) mod 3^9 = 0: negative bases wrap like the datapath does.
        assert outcome.target == 0
        outcome = unit.evaluate(jalr, pc=0, tb_value=word(-2))
        assert outcome.target == (MOD - 2 + 1) % MOD

    def test_non_control_instructions_pass_through(self):
        unit = BranchUnit()
        outcome = unit.evaluate(Instruction("ADD", ta=1, tb=2), pc=5,
                                tb_value=word(0))
        assert not outcome.is_control and not outcome.taken


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
