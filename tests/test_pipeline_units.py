"""Direct unit tests for the ID-stage branch unit and hazard detection unit.

Both blocks were previously exercised only through whole-program pipeline
runs; these tests pin their contracts in isolation: branch taken/not-taken
decisions against the condition trit, JAL/JALR targets and link values, and
the load-use stall rule (the only stall source of the ART-9 pipeline).
"""

import pytest

from repro.isa.instructions import Instruction
from repro.sim.pipeline.branch import BranchUnit
from repro.sim.pipeline.hazards import HazardDetectionUnit
from repro.sim.pipeline.stages import DecodeLatch, PredecodedInstruction
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
        assert unit.taken_branches == 1 and unit.not_taken_branches == 0

    @pytest.mark.parametrize("value,trit", [(1, 0), (0, 1), (-1, 1), (2, 0)])
    def test_beq_not_taken_when_lst_differs(self, value, trit):
        unit = BranchUnit()
        beq = Instruction("BEQ", tb=2, branch_trit=trit, imm=5)
        outcome = unit.evaluate(beq, pc=10, tb_value=word(value))
        assert outcome.is_control and not outcome.taken
        assert outcome.target is None
        assert unit.not_taken_branches == 1 and unit.taken_branches == 0

    def test_bne_inverts_the_beq_decision(self):
        unit = BranchUnit()
        bne = Instruction("BNE", tb=1, branch_trit=0, imm=-3)
        taken = unit.evaluate(bne, pc=20, tb_value=word(1))
        assert taken.taken and taken.target == 17
        not_taken = unit.evaluate(bne, pc=20, tb_value=word(0))
        assert not not_taken.taken
        assert unit.taken_branches == 1 and unit.not_taken_branches == 1

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
        assert unit.jumps == 1

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
        assert unit.taken_branches == unit.not_taken_branches == unit.jumps == 0

    def test_reset_statistics(self):
        unit = BranchUnit()
        unit.evaluate(Instruction("JAL", ta=1, imm=1), pc=0, tb_value=None)
        unit.evaluate(Instruction("BEQ", tb=1, branch_trit=0, imm=1), pc=0,
                      tb_value=word(0))
        unit.reset_statistics()
        assert unit.taken_branches == unit.not_taken_branches == unit.jumps == 0


def latch_for(instruction: Instruction) -> DecodeLatch:
    return DecodeLatch(valid=True, pc=0,
                       decoded=PredecodedInstruction(instruction))


class TestHazardDetectionUnit:
    def test_load_use_hazard_stalls_one_cycle(self):
        hdu = HazardDetectionUnit()
        load = Instruction("LOAD", ta=3, tb=1, imm=0)
        consumer = Instruction("ADD", ta=2, tb=3)  # reads T3 via tb
        decision = hdu.check(PredecodedInstruction(consumer), latch_for(load))
        assert decision.stall
        assert "load-use" in decision.reason
        assert hdu.load_use_stalls == 1

    def test_load_followed_by_independent_instruction(self):
        hdu = HazardDetectionUnit()
        load = Instruction("LOAD", ta=3, tb=1, imm=0)
        independent = Instruction("ADD", ta=2, tb=4)
        assert not hdu.check(PredecodedInstruction(independent), latch_for(load)).stall
        assert hdu.load_use_stalls == 0

    def test_non_load_producer_never_stalls(self):
        hdu = HazardDetectionUnit()
        add = Instruction("ADD", ta=3, tb=1)
        consumer = Instruction("ADD", ta=2, tb=3)
        assert not hdu.check(PredecodedInstruction(consumer), latch_for(add)).stall

    def test_bubble_latch_never_stalls(self):
        hdu = HazardDetectionUnit()
        consumer = Instruction("ADD", ta=2, tb=3)
        assert not hdu.check(PredecodedInstruction(consumer), DecodeLatch()).stall

    def test_branch_reading_loaded_register_stalls(self):
        # BEQ consumes its Tb condition trit in ID itself, so a LOAD one
        # slot ahead is a load-use hazard for it too.
        hdu = HazardDetectionUnit()
        load = Instruction("LOAD", ta=5, tb=1, imm=0)
        branch = Instruction("BEQ", tb=5, branch_trit=0, imm=2)
        assert hdu.check(PredecodedInstruction(branch), latch_for(load)).stall
        assert hdu.load_use_stalls == 1

    def test_store_of_loaded_value_stalls(self):
        hdu = HazardDetectionUnit()
        load = Instruction("LOAD", ta=5, tb=1, imm=0)
        store = Instruction("STORE", ta=5, tb=2, imm=0)  # reads T5 as data
        assert hdu.check(PredecodedInstruction(store), latch_for(load)).stall

    def test_reset_statistics(self):
        hdu = HazardDetectionUnit()
        load = Instruction("LOAD", ta=3, tb=1, imm=0)
        hdu.check(PredecodedInstruction(Instruction("ADD", ta=2, tb=3)),
                  latch_for(load))
        hdu.reset_statistics()
        assert hdu.load_use_stalls == 0
