"""Unit and contract tests for the compiled superblock-codegen engine.

The broad equivalence evidence lives in the 4-way differential suite and
the golden traces; this file pins the engine-specific machinery — block
partitioning, the compile rule (a run compiles a block, leader or mid-block
suffix, when it first dispatches it; ``prepare()`` compiles every leader),
the FastEngine-compatible error contract, fault-state restoration, and the
codegen artifact-cache integration.
"""

import pytest

from repro.cache import ArtifactCache
from repro.framework import HardwareFramework, SoftwareFramework
from repro.isa.assembler import assemble
from repro.isa.program import Program
from repro.sim import (
    CompiledEngine,
    FastEngine,
    FunctionalSimulator,
    MemoryError_,
    SimulationError,
)
from repro.sim.compiled import (
    _CODE_MEMO,
    _decode_bundle,
    generate_block_source,
    superblock_leaders,
    superblock_span,
)
from repro.sim import timing
from repro.sim.engine import _predecode
from repro.sim.machine import MACHINES
from repro.testing import generate_program, run_differential
from repro.testing.differential import STATS_FIELDS
from repro.workloads import all_workloads

DIRECTED_SOURCE = """
LUI T1, 7
LI T1, 13
LUI T2, -3
LI T2, -8
ADD T1, T2
SUB T2, T1
AND T1, T2
OR T2, T1
XOR T1, T2
PTI T3, T1
NTI T4, T2
STI T5, T3
ANDI T4, 5
ADDI T5, -4
COMP T3, T4
SLI T1, 2
SRI T1, 1
MV T6, T1
LI T7, 3
SL T6, T7
SR T6, T7
LI T8, 20
STORE T6, T8, 1
LOAD T7, T8, 1
ADD T7, T7
BNE T7, 0, skip
ADDI T5, 1
skip:
HALT
"""


#: Every one of the 25 opcodes.  ``dead`` is a static superblock that no
#: run dispatches (the BEQ never branches), so only ``prepare()`` compiles
#: it; the subroutine at ``sub`` is entered by JAL and left by JALR.
ALL_OPCODES_SOURCE = """
LI T1, 13
LUI T2, -3
ADD T1, T2
SUB T2, T1
AND T1, T2
OR T2, T1
XOR T1, T2
PTI T3, T1
NTI T4, T2
STI T5, T3
ANDI T4, 5
ADDI T5, -4
COMP T3, T4
SLI T1, 2
SRI T1, 1
MV T6, T1
SL T6, T3
SR T6, T3
STORE T6, T7, 5
LOAD T7, T7, 5
JAL T8, sub
BEQ T0, 1, dead
HALT
dead:
ADDI T5, 1
HALT
sub:
BNE T6, 0, back
STI T7, T7
back:
JALR T2, T8, 0
"""

#: A JALR lands at 5, mid-way into the block [2..6] that follows it, so a
#: run dispatches blocks 0 and 5 and never block 2.
MIDBLOCK_JALR_SOURCE = (
    "LI T1, 5\nJALR T2, T1, 0\nADDI T3, 1\nADDI T3, 1\nADDI T3, 1\n"
    "ADDI T4, 2\nHALT\n")


def _marshalled(value, truncate=0):
    """A codegen artifact's ``code`` field holding ``value`` (its last
    ``truncate`` marshal bytes cut off)."""
    import base64
    import marshal

    raw = marshal.dumps(value)
    return base64.b64encode(raw[:len(raw) - truncate]).decode("ascii")


@pytest.fixture
def compiles(monkeypatch):
    """The block names ``repro.sim.compiled`` passes to ``compile``, bundle
    and lazy suffix compiles alike, while the test runs."""
    from repro.sim import compiled

    calls = []

    def counting_compile(source, filename, mode):
        calls.append(filename)
        return compile(source, filename, mode)

    # A module global named ``compile`` shadows the builtin for the module.
    monkeypatch.setattr(compiled, "compile", counting_compile, raising=False)
    return calls


def _leaders(program):
    """The static superblock entries of ``program``."""
    return superblock_leaders(_predecode(program))


@pytest.fixture(scope="module")
def translated_workloads():
    software = SoftwareFramework()
    return {
        name: software.compile_workload(workload)[0]
        for name, workload in all_workloads().items()
    }


class TestSuperblockPartition:
    def test_every_address_is_in_exactly_one_leader_block(self, translated_workloads):
        program = translated_workloads["dhrystone"]
        records = _predecode(program)
        leaders = superblock_leaders(records)
        covered = []
        for entry in sorted(leaders):
            covered.extend(superblock_span(records, leaders, entry))
        assert sorted(covered) == list(range(len(records)))
        assert len(covered) == len(set(covered))

    def test_blocks_end_only_at_control_or_before_a_leader(self, translated_workloads):
        program = translated_workloads["gemm"]
        records = _predecode(program)
        leaders = superblock_leaders(records)
        from repro.sim.compiled import _TERMINALS
        for entry in sorted(leaders):
            span = superblock_span(records, leaders, entry)
            for pc in span[:-1]:  # interior instructions are straight-line
                assert records[pc][0] not in _TERMINALS
            last = span[-1]
            assert (records[last][0] in _TERMINALS
                    or last + 1 >= len(records) or last + 1 in leaders)

    def test_codegen_is_deterministic(self, translated_workloads):
        program = translated_workloads["sobel"]
        records = _predecode(program)
        attrs = timing.attributes(program.instructions, MACHINES["paper3stage"])
        leaders = superblock_leaders(records)
        entry = sorted(leaders)[1]
        span = superblock_span(records, leaders, entry)
        first = generate_block_source(entry, span, records, attrs, 3 ** 9)
        second = generate_block_source(entry, span, records, attrs, 3 ** 9)
        assert first == second


class TestEquivalence:
    @pytest.mark.parametrize("name", sorted(all_workloads()))
    def test_workload_architectural_and_timing_parity(self, name,
                                                      translated_workloads):
        program = translated_workloads[name]
        fast = FastEngine(program).run()
        compiled = CompiledEngine(program, cache=None).run()
        assert compiled.registers == fast.registers
        assert compiled.memory == fast.memory
        assert compiled.pc == fast.pc
        assert compiled.halted and fast.halted
        assert compiled.instructions_executed == fast.instructions_executed
        assert compiled.instruction_mix == fast.instruction_mix
        fast_stats = FastEngine(program).run_with_stats()
        compiled_stats = CompiledEngine(program, cache=None).run_with_stats()
        for field in STATS_FIELDS:
            assert getattr(compiled_stats, field) == getattr(fast_stats, field)

    def test_directed_all_opcode_program(self):
        program = assemble(DIRECTED_SOURCE, name="directed")
        fast = FastEngine(program).run()
        compiled = CompiledEngine(program).run()
        assert compiled.registers == fast.registers
        assert compiled.memory == fast.memory
        assert compiled.instruction_mix == fast.instruction_mix
        reference = FunctionalSimulator(program).run()
        assert compiled.registers == reference.registers

    @pytest.mark.parametrize("variant", [
        {}, {"tdm_depth": 64},
    ], ids=["plain", "fault-guards"])
    def test_prepare_compiles_every_opcode_in_every_variant(self, variant,
                                                            compiles):
        """``run()`` compiles only the blocks it dispatches, so the fuzz
        never compiles dead code; ``prepare()`` compiles every block of a
        program holding all 25 opcodes, with and without the fault guards
        of a reduced TDM depth."""
        program = assemble(ALL_OPCODES_SOURCE, name="all-opcodes")
        records = _predecode(program)
        assert {op for op, *_ in records} == set(range(25))
        dead = f"<art9 block {program.labels['dead']}>"
        _CODE_MEMO.clear()
        result = CompiledEngine(program, cache=None, **variant).run()
        assert compiles and dead not in compiles
        prepared = CompiledEngine(program, cache=None, **variant)
        prepared.prepare()
        assert dead in compiles
        assert set(prepared._table) == _leaders(program)
        depth = variant.get("tdm_depth", 3 ** 9)
        fast = FastEngine(program, tdm_depth=depth).run()
        assert result == fast
        assert prepared.run() == fast
        assert fast.registers == FunctionalSimulator(
            program, tdm_depth=depth).run().registers
        stats = CompiledEngine(program, cache=None,
                               **variant).run_with_stats()
        assert stats == FastEngine(program, tdm_depth=depth).run_with_stats()

    def test_hardware_framework_compiled_engine(self, translated_workloads):
        program = translated_workloads["bubble_sort"]
        framework = HardwareFramework(engine="compiled")
        stats, registers, memory = framework.simulate_with_state(program)
        fast_stats, fast_regs, fast_mem = framework.simulate_with_state(
            program, engine="fast")
        assert stats.cycles == fast_stats.cycles
        assert registers == fast_regs and memory == fast_mem

    def test_blocks_compiled_during_a_run_count_as_codegen(
            self, translated_workloads, monkeypatch):
        """A cold gemm run compiles the suffix blocks of its JALR return
        targets after ``prepare()``; ``simulate_with_state`` charges them
        to ``codegen_s``, not ``execute_s``.  Every ``compile`` takes one
        second of a fake clock and nothing else moves it, so the phases
        are exact."""
        from repro.framework import hwflow
        from repro.sim import compiled

        clock = [0.0]

        def slow_compile(source, filename, mode):
            clock[0] += 1.0
            return compile(source, filename, mode)

        prepared_at = []
        prepare = CompiledEngine.prepare

        def noting_prepare(engine):
            prepare(engine)
            prepared_at.append(clock[0])

        monkeypatch.setenv("ART9_CACHE_DISABLE", "1")
        monkeypatch.setattr(compiled, "compile", slow_compile, raising=False)
        monkeypatch.setattr(compiled, "perf_counter", lambda: clock[0],
                            raising=False)
        monkeypatch.setattr(hwflow, "perf_counter", lambda: clock[0])
        monkeypatch.setattr(CompiledEngine, "prepare", noting_prepare)
        _CODE_MEMO.clear()
        timings = {}
        try:
            HardwareFramework(engine="compiled").simulate_with_state(
                translated_workloads["gemm"], timings=timings)
        finally:
            _CODE_MEMO.clear()
        assert clock[0] > prepared_at[0]  # the run compiled blocks too
        assert timings == {"codegen_s": clock[0], "execute_s": 0.0}

    def test_mid_block_jalr_entry_compiles_a_suffix_block(self):
        # The JALR lands at address 5, the middle of the straight-line block
        # that starts at address 2 — only reachable through the lazy
        # suffix-compilation path.
        program = assemble(
            "LI T1, 5\n"
            "JALR T2, T1, 0\n"
            "ADDI T3, 1\n"
            "ADDI T3, 1\n"
            "ADDI T3, 1\n"
            "ADDI T4, 2\n"
            "HALT\n",
            name="midblock",
        )
        engine = CompiledEngine(program, cache=None)
        result = engine.run()
        fast = FastEngine(program).run()
        assert result.registers == fast.registers
        assert result.registers["T3"] == 0 and result.registers["T4"] == 2
        assert 5 in engine._table  # the suffix entry materialised
        assert 5 not in _leaders(program)  # ...but is not a static leader
        compiled_stats = CompiledEngine(program, cache=None).run_with_stats()
        fast_stats = FastEngine(program).run_with_stats()
        for field in STATS_FIELDS:
            assert getattr(compiled_stats, field) == getattr(fast_stats, field)

    def test_jalr_after_jal_lands_mid_block(self):
        # The JAL at 2 enters the block [4..6]; on the second pass the JALR
        # lands at 5, inside that block and not a leader, so the timing run
        # compiles a suffix block between two statically compiled ones.
        program = assemble(
            "LI T1, 5\n"
            "LI T5, 1\n"
            "JAL T8, tail\n"
            "HALT\n"
            "tail:\n"
            "ADDI T3, 1\n"
            "ADDI T3, 1\n"
            "BNE T5, 0, go\n"
            "LI T1, 3\n"
            "go:\n"
            "LI T5, 0\n"
            "JALR T2, T1, 0\n",
            name="jalr-after-jal",
        )
        engine = CompiledEngine(program, cache=None)
        fast = FastEngine(program)
        fast_stats = fast.run_with_stats()
        stats = engine.run_with_stats()
        for field in STATS_FIELDS:
            assert getattr(stats, field) == getattr(fast_stats, field), field
        assert engine.register_snapshot() == fast.register_snapshot()
        assert engine.register_snapshot()["T3"] == 3
        assert 5 in engine._table and 5 not in _leaders(program)


class TestEngineContract:
    def test_runaway_program_raises_same_message(self):
        program = assemble("loop:\nJAL T6, loop")
        with pytest.raises(SimulationError) as compiled_exc:
            CompiledEngine(program, cache=None).run(max_instructions=500)
        with pytest.raises(SimulationError) as fast_exc:
            FastEngine(program).run(max_instructions=500)
        assert str(compiled_exc.value) == str(fast_exc.value)

    def test_budget_of_one_matches_fast_engine(self):
        program = generate_program(7)
        with pytest.raises(SimulationError) as compiled_exc:
            CompiledEngine(program, cache=None).run(max_instructions=1)
        with pytest.raises(SimulationError) as fast_exc:
            FastEngine(program).run(max_instructions=1)
        assert str(compiled_exc.value) == str(fast_exc.value)

    def test_exact_budget_still_halts(self):
        program = assemble("ADDI T1, 1\nHALT")
        fast = FastEngine(program).run(max_instructions=2)
        compiled = CompiledEngine(program, cache=None).run(max_instructions=2)
        assert fast.halted and compiled.halted
        assert compiled.instructions_executed == 2

    def test_pc_escape_raises_same_message(self):
        program = assemble("ADDI T1, 1")  # no HALT
        with pytest.raises(SimulationError) as compiled_exc:
            CompiledEngine(program, cache=None).run()
        with pytest.raises(SimulationError) as fast_exc:
            FastEngine(program).run()
        assert str(compiled_exc.value) == str(fast_exc.value)

    def test_empty_program_rejected_by_timing_model(self):
        with pytest.raises(SimulationError):
            CompiledEngine(Program(), cache=None).run_with_stats()

    def test_single_halt_costs_five_cycles(self):
        stats = CompiledEngine(assemble("HALT"), cache=None).run_with_stats()
        assert stats.cycles == 5
        assert stats.instructions_committed == 1

    def test_timing_model_rejects_consumed_engine_state(self):
        engine = CompiledEngine(assemble("ADDI T1, 1\nHALT"), cache=None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.run_with_stats()

    def test_reduced_depth_memory_fault_matches_fast_engine(self):
        program = assemble("LI T2, 100\nADDI T3, 1\nSTORE T1, T2, 0\nHALT")
        fast = FastEngine(program, tdm_depth=64)
        compiled = CompiledEngine(program, tdm_depth=64, cache=None)
        with pytest.raises(MemoryError_) as fast_exc:
            fast.run()
        with pytest.raises(MemoryError_) as compiled_exc:
            compiled.run()
        assert str(compiled_exc.value) == str(fast_exc.value)
        assert compiled.instructions_executed == fast.instructions_executed == 2
        assert compiled.pc == fast.pc == 2
        # The prefix state is restored: registers written before the fault
        # stick, the faulting STORE is not in the mix.
        assert compiled.register_snapshot() == fast.register_snapshot()
        assert compiled.instruction_mix() == fast.instruction_mix()

    @pytest.mark.parametrize("method", ["run", "run_with_stats"])
    def test_fault_in_jal_target_block_matches_fast_engine(self, method):
        # The STORE faults in the second block executed (the JAL target),
        # so the restored state must carry the first block's effects plus
        # the faulting block's prefix, with or without the timing model.
        program = assemble(
            "LI T2, 100\nJAL T8, tail\nHALT\n"
            "tail:\nADDI T3, 1\nSTORE T1, T2, 0\nHALT",
            name="fault-after-jal")
        fast = FastEngine(program, tdm_depth=64)
        compiled = CompiledEngine(program, tdm_depth=64, cache=None)
        with pytest.raises(MemoryError_) as fast_exc:
            getattr(fast, method)()
        with pytest.raises(MemoryError_) as compiled_exc:
            getattr(compiled, method)()
        assert str(compiled_exc.value) == str(fast_exc.value)
        assert compiled.pc == fast.pc == 4
        assert compiled.instructions_executed == fast.instructions_executed == 3
        assert compiled.register_snapshot() == fast.register_snapshot()
        assert compiled.register_snapshot()["T8"] == 2
        assert compiled.instruction_mix() == fast.instruction_mix()

    def test_block_profile_charges_a_faulting_block_its_prefix(self):
        """The loop block [1..4] runs four times, then its STORE faults at
        offset 1: the fifth dispatch counts one instruction, not four."""
        program = assemble(
            "LI T2, 60\nloop:\nADDI T3, 1\nSTORE T3, T2, 0\nADDI T2, 1\n"
            "JAL T8, loop", name="profile-fault")
        engine = CompiledEngine(program, tdm_depth=64, cache=None)
        with pytest.raises(MemoryError_):
            engine.run_with_stats()
        assert engine.block_profile() == [
            {"pc": 0, "executions": 1, "length": 1, "instructions": 1},
            {"pc": 1, "executions": 5, "length": 4, "instructions": 17},
        ]
        fast = FastEngine(program, tdm_depth=64)
        with pytest.raises(MemoryError_):
            fast.run_with_stats()
        assert engine.instructions_executed == fast.instructions_executed == 18
        assert engine.instruction_mix() == fast.instruction_mix()

    def test_data_segment_out_of_depth_rejected_like_fast_engine(self):
        from repro.isa.program import DataSegment
        program = assemble("HALT")
        program.data.append(DataSegment(base_address=70, values=[1]))
        with pytest.raises(MemoryError_):
            CompiledEngine(program, tdm_depth=64, cache=None)

    def test_memory_view_and_snapshots(self):
        program = assemble(
            "LI T1, 77\nLI T2, 5\nSTORE T1, T2, 0\nSTORE T1, T2, 1\nHALT")
        engine = CompiledEngine(program, cache=None)
        engine.run()
        assert engine.tdm.read_int(5) == 77
        assert engine.tdm.dump(5, 2) == [77, 77]
        assert engine.register_snapshot()["T1"] == 77


class TestCodegenArtifacts:
    @pytest.fixture(autouse=True)
    def fresh_memo(self):
        # The in-process memo keys on program *records*, which these tests
        # share via DIRECTED_SOURCE; clear it so every test observes the
        # disk-cache path it means to exercise.
        _CODE_MEMO.clear()
        yield
        _CODE_MEMO.clear()

    def test_cache_roundtrip_and_hit(self, tmp_path, compiles):
        program = assemble(DIRECTED_SOURCE, name="cache-roundtrip")
        cache = ArtifactCache(str(tmp_path / "artifacts"))
        first = CompiledEngine(program, cache=cache)
        baseline = first.run_with_stats()
        assert cache.disk_stats()["kinds"]["codegen"]["entries"] == 1
        assert compiles
        compiles.clear()
        _CODE_MEMO.clear()  # simulate a fresh process with a warm disk cache
        second = CompiledEngine(program, cache=cache)
        stats = second.run_with_stats()
        assert stats.cycles == baseline.cycles
        assert compiles == []  # nothing regenerated: the artifact was loaded

    @pytest.mark.parametrize("payload", [
        {"code": "not-base64-marshal"},
        # Well-formed artifacts whose marshalled payload is not a dict of
        # int -> code objects: a list, and a dict holding a non-code value.
        {"code": _marshalled([1, 2, 3])},
        {"code": _marshalled({0: 42})},
    ], ids=["not-marshal", "list-payload", "non-code-value"])
    def test_corrupted_artifact_is_regenerated(self, tmp_path, payload,
                                               compiles):
        import json

        program = assemble(DIRECTED_SOURCE, name="cache-corrupt")
        cache = ArtifactCache(str(tmp_path / "artifacts"))
        engine = CompiledEngine(program, cache=cache)
        engine.run_with_stats()
        [path] = [
            cache.path_for("codegen", name.split(".")[0])
            for kind in ["codegen"]
            for sub in sorted((tmp_path / "artifacts" / kind).iterdir())
            for name in sorted(entry.name for entry in sub.iterdir())
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        _CODE_MEMO.clear()
        stats = CompiledEngine(program, cache=cache).run_with_stats()
        fast_stats = FastEngine(program).run_with_stats()
        assert stats.cycles == fast_stats.cycles
        # The junk entry was overwritten by a loadable bundle.
        _CODE_MEMO.clear()
        compiles.clear()
        reloaded = CompiledEngine(program, cache=cache).run_with_stats()
        assert reloaded.cycles == fast_stats.cycles
        assert compiles == []

    @pytest.mark.parametrize("payload", [
        None,  # a cache miss
        {},
        {"code": "!!not base64!!"},
        {"code": _marshalled({0: compile("", "<x>", "exec")}, truncate=3)},
        {"code": _marshalled([1, 2, 3])},
        {"code": _marshalled({"0": compile("", "<x>", "exec")})},
        {"code": _marshalled({0: 42})},
    ], ids=["miss", "no-code", "not-base64", "truncated-marshal",
            "list-payload", "str-entry", "non-code-value"])
    def test_decode_bundle_rejects_junk(self, payload):
        assert _decode_bundle(payload) is None

    def test_decode_bundle_ignores_a_block_source_field(self):
        """Artifacts once stored each block's source beside the code;
        such an entry, whatever that field holds, still loads its code."""
        code = compile("", "<x>", "exec")
        for blocks in ({"0": "pass"}, ["0"], {"zero": "pass"}):
            assert _decode_bundle({"code": _marshalled({0: code}),
                                   "blocks": blocks}) == {0: code}

    def test_decode_bundle_accepts_a_published_bundle(self, tmp_path):
        from types import CodeType

        program = assemble(DIRECTED_SOURCE, name="decode-roundtrip")
        cache = ArtifactCache(str(tmp_path / "artifacts"))
        engine = CompiledEngine(program, cache=cache)
        engine.prepare()
        payload = cache.get_json("codegen", engine._cache_key_material())
        assert set(payload) == {"code"}  # code objects only
        codes = _decode_bundle(payload)
        assert set(codes) == set(engine._bundle) == _leaders(program)
        assert all(isinstance(code, CodeType) for code in codes.values())

    @pytest.mark.parametrize("payload", [
        {"code": "not-base64-marshal"},
        {"code": _marshalled([1, 2, 3])},
        {"code": _marshalled({3: 42})},
    ], ids=["not-marshal", "list-payload", "non-code-value"])
    def test_suffix_publish_replaces_junk_artifact(self, tmp_path, payload,
                                                   compiles):
        """The suffix merge reads the cache entry again; junk found there
        is a miss, and never leaks into the republished bundle."""
        import json

        from repro.cache import cache_key

        program = assemble(
            "LI T1, 5\nJALR T2, T1, 0\nADDI T3, 1\nADDI T3, 1\nADDI T3, 1\n"
            "ADDI T4, 2\nHALT\n", name="suffix-junk")
        cache = ArtifactCache(str(tmp_path / "artifacts"))
        engine = CompiledEngine(program, cache=cache)
        engine.prepare()  # publishes the leader blocks
        key_material = engine._cache_key_material()
        path = cache.path_for("codegen", cache_key(key_material))
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        result = engine.run()  # discovers suffix 5 and republishes
        assert result.registers == FastEngine(program).run().registers
        codes = _decode_bundle(cache.get_json("codegen", key_material))
        assert set(codes) == {0, 2, 5}
        _CODE_MEMO.clear()  # a fresh process installs the republished bundle
        compiles.clear()
        fresh = CompiledEngine(program, cache=cache)
        assert fresh.run().registers == result.registers
        assert compiles == []  # suffix 5 came from the artifact

    def test_suffix_republish_merges_other_workers_discoveries(self, tmp_path):
        """A suffix publisher must not erase suffixes another worker found."""
        import base64
        import marshal

        from repro.sim.compiled import (
            CompiledEngine as CE,
            generate_block_source,
            superblock_span,
        )

        program = assemble(
            "LI T1, 5\nJALR T2, T1, 0\nADDI T3, 1\nADDI T3, 1\nADDI T3, 1\n"
            "ADDI T4, 2\nHALT\n", name="suffix-merge")
        cache = ArtifactCache(str(tmp_path / "artifacts"))
        engine = CE(program, cache=cache)
        engine.run()  # discovers and publishes suffix entry 5
        key_material = engine._cache_key_material()
        codes = _decode_bundle(cache.get_json("codegen", key_material))
        assert 5 in codes

        # Simulate another worker's artifact: suffix 5 missing, but a
        # different (valid) suffix at address 3 present.
        other_source = generate_block_source(
            3, superblock_span(engine._records, engine._leaders, 3),
            engine._records, engine._attrs, engine.tdm_depth)
        del codes[5]
        codes[3] = compile(other_source, "<other worker>", "exec")
        cache.put_json("codegen", key_material, {
            "code": base64.b64encode(marshal.dumps(codes)).decode("ascii"),
        })

        _CODE_MEMO.clear()  # fresh "process" rediscovers suffix 5...
        CE(program, cache=cache).run()
        merged = _decode_bundle(cache.get_json("codegen", key_material))
        # ...and its republish keeps the other worker's suffix 3 too.
        assert {3, 5} <= set(merged)

    def test_in_process_memo_shares_codegen_between_engines(self):
        program = assemble(DIRECTED_SOURCE, name="memo-check")
        _CODE_MEMO.clear()
        CompiledEngine(program, cache=None).run()
        memo_size = len(_CODE_MEMO)
        CompiledEngine(program, cache=None).run()
        assert len(_CODE_MEMO) == memo_size  # second engine reused the entry

    def test_run_and_run_with_stats_share_one_codegen(self, compiles):
        """``run()`` executes the timed bundle, so a fresh engine's timing
        run on the same program compiles nothing."""
        program = assemble(DIRECTED_SOURCE, name="one-codegen")
        _CODE_MEMO.clear()
        CompiledEngine(program, cache=None).run()
        compiled = len(compiles)
        assert compiled > 0
        CompiledEngine(program, cache=None).run_with_stats()
        assert len(compiles) == compiled

    def test_a_suffix_joins_the_shared_bundle(self, compiles):
        """``run()`` compiles the blocks it dispatches, a mid-block suffix
        among them, and no other; a later engine takes them from the
        shared bundle."""
        program = assemble(MIDBLOCK_JALR_SOURCE, name="suffix-shared")
        first = CompiledEngine(program, cache=None)
        result = first.run()
        # Block 2, the leader after the JALR, is never dispatched.
        assert sorted(compiles) == ["<art9 block 0>", "<art9 block 5>"]
        second = CompiledEngine(program, cache=None)
        assert second.run().registers == result.registers
        assert 5 in second._table
        assert len(compiles) == 2

    def test_prepare_compiles_every_static_leader(self, compiles):
        """``prepare()`` compiles every leader a run skipped, and only
        those; a suffix block waits for its first dispatch."""
        program = assemble(MIDBLOCK_JALR_SOURCE, name="prepare-leaders")
        CompiledEngine(program, cache=None).run()  # compiles blocks 0 and 5
        compiles.clear()
        engine = CompiledEngine(program, cache=None)
        engine.prepare()
        assert compiles == ["<art9 block 2>"]
        assert set(engine._table) == _leaders(program) == {0, 2}
        _CODE_MEMO.clear()
        compiles.clear()
        CompiledEngine(program, cache=None).prepare()
        assert compiles == ["<art9 block 0>", "<art9 block 2>"]

    def test_a_run_publishes_its_new_blocks_once(self, tmp_path,
                                                 monkeypatch):
        """One ``run()`` that compiles a leader and a suffix writes the
        codegen artifact once, holding both; a run that compiles nothing
        writes nothing."""
        program = assemble(MIDBLOCK_JALR_SOURCE, name="publish-once")
        cache = ArtifactCache(str(tmp_path / "artifacts"))
        puts = []
        put_json = cache.put_json

        def counting_put(kind, key_material, payload):
            puts.append(kind)
            return put_json(kind, key_material, payload)

        monkeypatch.setattr(cache, "put_json", counting_put)
        engine = CompiledEngine(program, cache=cache)
        engine.run()
        assert puts == ["codegen"]
        codes = _decode_bundle(
            cache.get_json("codegen", engine._cache_key_material()))
        assert set(codes) == {0, 5}
        CompiledEngine(program, cache=cache).run()  # all from the memo
        assert puts == ["codegen"]

    @pytest.mark.parametrize("machine", sorted(MACHINES))
    def test_differential_compiles_each_block_once(self, machine, compiles):
        """The differential harness compiles each block its compiled
        engine dispatches exactly once."""
        for seed in range(3):
            program = generate_program(seed)
            _CODE_MEMO.clear()
            compiles.clear()
            outcome = run_differential(program, machine=machine)
            assert outcome.ok and not outcome.budget_exhausted
            engine = CompiledEngine(program, cache=None, machine=machine)
            engine.prepare()  # compiles only the leaders no run dispatched
            assert sorted(compiles) == sorted(
                f"<art9 block {entry}>" for entry in engine._bundle)
