"""Unit and contract tests for the batched vectorized execution engine.

The broad equivalence evidence lives in the 5-way differential suite; this
file pins the batch-specific machinery — lane/lockstep semantics, path-group
divergence and reconvergence, per-lane error capture with FastEngine's exact
messages, construction-time batch validation, and the stats-only fast path
used by the throughput benchmark.
"""

import numpy as np
import pytest

from repro.isa.assembler import assemble
from repro.isa.program import DataSegment, Program
from repro.sim import (
    BatchEngine,
    BatchError,
    FastEngine,
    MemoryError_,
    PipelineSimulator,
    SimulationError,
    batchable_programs,
)
from repro.sim.batch import _Group
from repro.sim.machine import machine_names
from repro.testing import generate_program
from repro.testing.differential import STATS_FIELDS
from repro.testing.generator import generate_data_variants

#: A program whose loop trip count is data-dependent: lanes count down from
#: TDM[0] until the low trit clears, so different initial values halt after
#: different instruction counts.
DIVERGENT_SOURCE = """
LOAD T1, T0, 0
loop:
ADDI T1, -1
BNE T1, 0, loop
HALT
"""


#: A diamond inside a six-iteration loop: each iteration the low trit of the
#: lane's data word picks an arm — a load-use pair, or an EX-forward pair
#: closed by a jump — and both arms join before the loop branch.  Lanes
#: whose trits differ split at the BEQ and, once their timing windows agree
#: again past the join, merge.
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


def _data_program(name, values, source=DIVERGENT_SOURCE):
    program = assemble(source, name=name)
    program.data.append(DataSegment(base_address=0, values=list(values)))
    return program


def _serial_reference(program, machine=None, max_cycles=50_000_000, **kw):
    result = FastEngine(program, machine=machine, **kw).run()
    stats = FastEngine(program, machine=machine, **kw).run_with_stats(
        max_cycles=max_cycles)
    return result, stats


def _assert_lane_matches(outcome, program, machine=None, **kw):
    result, stats = _serial_reference(program, machine=machine, **kw)
    assert outcome.ok
    assert outcome.result.registers == result.registers
    assert outcome.result.memory == result.memory
    assert outcome.result.pc == result.pc
    assert outcome.result.halted == result.halted
    assert outcome.result.instructions_executed == result.instructions_executed
    assert outcome.result.instruction_mix == result.instruction_mix
    assert outcome.stats.to_dict() == stats.to_dict()


class TestLockstepParity:
    def test_identical_lanes_match_fast_engine(self):
        program = generate_program(11)
        engine = BatchEngine([program] * 5)
        outcomes = engine.run_with_stats()
        for outcome in outcomes:
            _assert_lane_matches(outcome, program)

    def test_data_variant_lanes_match_fast_engine(self):
        for seed in (3, 17, 42):
            variants = generate_data_variants(generate_program(seed), 6, seed)
            outcomes = BatchEngine(variants).run_with_stats()
            for outcome, variant in zip(outcomes, variants):
                _assert_lane_matches(outcome, variant)

    @pytest.mark.parametrize("machine", machine_names())
    def test_divergent_lanes_match_on_every_machine(self, machine):
        programs = [_data_program(f"div-{v}", [v]) for v in (1, 3, 9, 2, 9, 5)]
        outcomes = BatchEngine(programs, machine=machine).run_with_stats()
        for outcome, program in zip(outcomes, programs):
            _assert_lane_matches(outcome, program, machine=machine)
        # Lanes really did take different dynamic paths.
        executed = {o.result.instructions_executed for o in outcomes}
        assert len(executed) > 1

    def test_identical_lanes_never_split(self, monkeypatch):
        def refuse(group, *args):
            raise AssertionError("lockstep lanes left their group")

        monkeypatch.setattr(_Group, "split", refuse)
        monkeypatch.setattr(_Group, "merge", refuse)
        program = _data_program("lockstep", [5])
        outcomes = BatchEngine([program] * 4).run_with_stats()
        for outcome in outcomes:
            _assert_lane_matches(outcome, program)

    def test_jalr_lanes_split_one_group_per_target(self, monkeypatch):
        source = """
        LOAD T1, T0, 0
        JALR T2, T1, 0
        ADDI T3, 1
        HALT
        ADDI T4, 2
        HALT
        """
        programs = [_data_program(f"jalr-{v}", [v], source=source)
                    for v in (2, 4, 2, 5, 4)]
        targets = []
        real_split = _Group.split

        def spy(group, lanes):
            twin = real_split(group, lanes)
            targets.append(lanes.tolist())
            return twin

        monkeypatch.setattr(_Group, "split", spy)
        outcomes = BatchEngine(programs).run_with_stats()
        # Three distinct targets: the group keeps one, two twins split off.
        assert sorted(targets) == [[1, 4], [3]]
        for outcome, program in zip(outcomes, programs):
            _assert_lane_matches(outcome, program)

    def test_run_returns_results_without_stats(self):
        program = generate_program(7)
        outcomes = BatchEngine([program, program]).run()
        for outcome in outcomes:
            assert outcome.ok
            assert outcome.result is not None
            assert outcome.stats is None

    def test_stats_only_mode_skips_results(self):
        program = generate_program(7)
        outcomes = BatchEngine([program]).run_with_stats(include_results=False)
        assert outcomes[0].ok
        assert outcomes[0].result is None
        serial_stats = FastEngine(program).run_with_stats()
        assert outcomes[0].stats.to_dict() == serial_stats.to_dict()


class TestReconvergence:
    @pytest.mark.parametrize("machine", machine_names())
    def test_diamond_lanes_merge_and_match_both_references(self, machine,
                                                            monkeypatch):
        programs = [_data_program(f"diamond-{v}", [v, 4], source=DIAMOND_SOURCE)
                    for v in (0, 1, -1, 2, 5, 13, -41, 100)]
        merges = []
        real_merge = _Group.merge

        def spy(group, other):
            merges.append((group.pc, other.pc))
            real_merge(group, other)

        monkeypatch.setattr(_Group, "merge", spy)
        outcomes = BatchEngine(programs, machine=machine).run_with_stats()
        assert merges and all(pc == other_pc for pc, other_pc in merges)
        for outcome, program in zip(outcomes, programs):
            _assert_lane_matches(outcome, program, machine=machine)
            pipeline = PipelineSimulator(program, machine=machine).run()
            assert outcome.stats.to_dict() == pipeline.to_dict()


class TestGroups:
    def test_split_copies_the_timing_state(self):
        group = _Group(7, np.array([0, 1, 2, 3]), [1, 2, 3], max_exec=40)
        twin = group.split(np.array([1, 3]))
        assert twin.pc == 7 and twin.max_exec == 40
        assert twin.lanes.tolist() == [1, 3]
        assert twin.state == group.state and twin.state is not group.state
        twin.state[0] = 99
        assert group.state == [1, 2, 3]

    def test_merge_folds_lanes_in_order_and_keeps_the_larger_bound(self):
        kept = _Group(4, np.array([0, 5]), [1, 1], max_exec=10)
        other = _Group(4, np.array([3, 1, 6]), [1, 1], max_exec=25)
        state = kept.state
        kept.merge(other)
        assert kept.lanes.tolist() == [0, 1, 3, 5, 6]
        assert kept.max_exec == 25
        assert kept.pc == 4 and kept.state is state


class TestErrorParity:
    SPIN_SOURCE = """
    LOAD T1, T0, 0
    loop:
    BEQ T1, 0, loop
    HALT
    """

    def test_instruction_budget_lanes_fail_like_fast_engine(self):
        # TDM[0] = 0 pins the branch trit to zero, so that lane spins
        # forever; the other falls through and must come back intact.
        spinner = _data_program("spin", [0], source=self.SPIN_SOURCE)
        halter = _data_program("halt", [2], source=self.SPIN_SOURCE)
        outcomes = BatchEngine([spinner, halter]).run(max_instructions=500)
        assert not outcomes[0].ok
        assert outcomes[0].error == "program did not halt within 500 instructions"
        assert outcomes[0].error_kind == "SimulationError"
        assert outcomes[1].ok
        with pytest.raises(SimulationError) as excinfo:
            FastEngine(spinner).run(max_instructions=500)
        assert str(excinfo.value) == outcomes[0].error

    def test_cycle_budget_error_matches_fast_engine(self):
        spinner = _data_program("spin", [0], source=self.SPIN_SOURCE)
        outcomes = BatchEngine([spinner]).run_with_stats(max_cycles=300)
        assert outcomes[0].error is not None
        with pytest.raises(SimulationError) as excinfo:
            FastEngine(spinner).run_with_stats(max_cycles=300)
        assert str(excinfo.value) == outcomes[0].error

    def test_pc_escape_matches_fast_engine(self):
        program = assemble("ADDI T1, 1", name="fallthrough")
        outcomes = BatchEngine([program]).run()
        with pytest.raises(SimulationError) as excinfo:
            FastEngine(program).run()
        assert outcomes[0].error == str(excinfo.value)
        assert outcomes[0].error_kind == "SimulationError"

    def test_memory_fault_lane_matches_fast_engine(self):
        source = """
        LI T1, 100
        STORE T1, T1, 0
        HALT
        """
        program = assemble(source, name="fault")
        outcomes = BatchEngine([program], tdm_depth=64).run()
        with pytest.raises(MemoryError_) as excinfo:
            FastEngine(program, tdm_depth=64).run()
        assert outcomes[0].error == str(excinfo.value)
        assert outcomes[0].error_kind == "MemoryError_"

    def test_data_segment_out_of_range_raises_at_construction(self):
        program = _data_program("bigdata", list(range(100)))
        with pytest.raises(MemoryError_) as batch_exc:
            BatchEngine([program], tdm_depth=16)
        with pytest.raises(MemoryError_) as fast_exc:
            FastEngine(program, tdm_depth=16)
        assert str(batch_exc.value) == str(fast_exc.value)

    def test_empty_program_run_with_stats_matches_fast_engine(self):
        program = Program(name="empty")
        with pytest.raises(SimulationError) as excinfo:
            BatchEngine([program]).run_with_stats()
        assert str(excinfo.value) == "cannot simulate an empty program"


class TestBatchValidation:
    def test_empty_batch_rejected(self):
        with pytest.raises(BatchError):
            BatchEngine([])

    def test_mismatched_streams_rejected(self):
        with pytest.raises(BatchError) as excinfo:
            BatchEngine([generate_program(1), generate_program(2)])
        assert "lane 1" in str(excinfo.value)

    def test_single_use(self):
        program = generate_program(5)
        engine = BatchEngine([program])
        engine.run()
        with pytest.raises(SimulationError):
            engine.run()

    def test_batchable_programs_predicate(self):
        program = generate_program(9)
        variants = generate_data_variants(program, 3, 9)
        assert batchable_programs(variants)
        assert not batchable_programs([generate_program(1), generate_program(2)])
        assert not batchable_programs([])


class TestStatsFields:
    @pytest.mark.parametrize("machine", machine_names())
    def test_every_stats_field_pinned(self, machine):
        variants = generate_data_variants(generate_program(23), 4, 23)
        outcomes = BatchEngine(variants, machine=machine).run_with_stats()
        for outcome, variant in zip(outcomes, variants):
            serial = FastEngine(variant, machine=machine).run_with_stats()
            for field_name in STATS_FIELDS:
                assert getattr(outcome.stats, field_name) == getattr(
                    serial, field_name), field_name
