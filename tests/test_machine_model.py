"""Property tests for the declarative machine (microarchitecture) model.

Covers the :mod:`repro.sim.machine` schema itself (validation, registry,
digests, branch-prediction semantics) and the timing-model properties the
issue pins:

* a deeper pipeline never makes a branch-heavy trace *faster* (all other
  parameters held);
* the zero-penalty corner (``ideal2``) degenerates to
  ``cycles == instructions + fill``;
* the cycle identity ``cycles == instructions + fill + stalls + flushes``
  holds for every built-in config;
* the codegen artifact cache is keyed by the machine digest, so compiled
  artifacts can never cross configs (the cache-poisoning regression);
* :mod:`repro.sim.timing` is the only analytic-timing code: no other
  simulator module outside the config and the structural pipeline reads
  the config's timing fields.
"""

import ast
from pathlib import Path

import pytest

import repro.sim

from repro.cache import ArtifactCache
from repro.framework import SoftwareFramework
from repro.isa.assembler import assemble
from repro.sim import timing
from repro.sim.compiled import _CODE_MEMO, CompiledEngine
from repro.sim.engine import FastEngine
from repro.sim.machine import (
    BRANCH_POLICIES,
    DEFAULT_MACHINE_NAME,
    MACHINES,
    MachineConfig,
    MachineError,
    get_machine,
    machine_names,
    resolve_machine,
)
from repro.testing import generate_program
from repro.testing.generator import GeneratorConfig


class TestValidation:
    def test_defaults_are_the_paper_machine(self):
        config = MachineConfig()
        assert config.name == DEFAULT_MACHINE_NAME
        assert config.depth == 5
        assert config.branch_policy == "flush-on-taken"
        assert config.load_use_penalty == 1
        assert config.redirect_penalty == 1
        assert config.fill_cycles == 4

    @pytest.mark.parametrize("depth", [0, 1, 6, 99])
    def test_depth_bounds(self, depth):
        with pytest.raises(MachineError):
            MachineConfig(depth=depth)

    def test_unknown_branch_policy(self):
        with pytest.raises(MachineError, match="branch policy"):
            MachineConfig(branch_policy="oracle")

    @pytest.mark.parametrize("field,value", [
        ("load_use_penalty", -1),
        ("load_use_penalty", 2),
        ("branch_penalty", -1),
        ("branch_penalty", 5),
        ("fetch_latency", -1),
        ("fetch_latency", 3),
    ])
    def test_penalty_bounds(self, field, value):
        with pytest.raises(MachineError):
            MachineConfig(**{field: value})

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(MachineError, match="unknown"):
            MachineConfig.from_dict({"depth": 3, "btb_entries": 64})

    def test_round_trips_through_dict(self):
        config = MachineConfig(name="corner", depth=3,
                               branch_policy="static-btfn",
                               load_use_penalty=0, branch_penalty=2,
                               fetch_latency=1)
        assert MachineConfig.from_dict(config.to_dict()) == config


class TestRegistry:
    def test_default_listed_first(self):
        names = machine_names()
        assert names[0] == DEFAULT_MACHINE_NAME
        assert sorted(names[1:]) == list(names[1:])
        assert set(names) == set(MACHINES)

    def test_every_builtin_validates_and_matches_its_key(self):
        for name, config in MACHINES.items():
            assert config.name == name
            assert config.branch_policy in BRANCH_POLICIES

    def test_get_machine_unknown_lists_known(self):
        with pytest.raises(MachineError, match=DEFAULT_MACHINE_NAME):
            get_machine("nonexistent9")

    def test_resolve_machine_forms(self):
        assert resolve_machine(None).name == DEFAULT_MACHINE_NAME
        assert resolve_machine("btfn4") is MACHINES["btfn4"]
        config = MachineConfig(depth=2, load_use_penalty=0, branch_penalty=0)
        assert resolve_machine(config) is config
        with pytest.raises(MachineError):
            resolve_machine(42)


class TestDigest:
    def test_name_is_a_label_not_an_identity(self):
        a = MachineConfig(name="a", depth=3)
        b = MachineConfig(name="b", depth=3)
        assert a.digest() == b.digest()

    def test_every_parameter_changes_the_digest(self):
        base = MachineConfig()
        variants = [
            MachineConfig(depth=4),
            MachineConfig(branch_policy="predict-not-taken"),
            MachineConfig(load_use_penalty=0),
            MachineConfig(branch_penalty=2),
            MachineConfig(fetch_latency=1),
        ]
        digests = {base.digest()} | {v.digest() for v in variants}
        assert len(digests) == 1 + len(variants)

    def test_builtin_digests_are_distinct(self):
        digests = {config.digest() for config in MACHINES.values()}
        assert len(digests) == len(MACHINES)


class TestBranchPrediction:
    def test_flush_on_taken_never_predicts(self):
        config = MACHINES[DEFAULT_MACHINE_NAME]
        assert not config.folds_jal
        for mnemonic in ("BEQ", "BNE", "JAL", "JALR"):
            assert not config.predicts_taken(mnemonic, -4)

    def test_predict_not_taken_folds_jal_only(self):
        config = MACHINES["predictnt"]
        assert config.folds_jal
        assert config.predicts_taken("JAL", 7)
        assert not config.predicts_taken("BEQ", -4)
        assert not config.predicts_taken("JALR", 0)

    def test_btfn_predicts_backward_conditionals(self):
        config = MACHINES["btfn4"]
        assert config.predicts_taken("BEQ", -4)
        assert config.predicts_taken("BNE", 0)
        assert not config.predicts_taken("BEQ", 4)
        assert config.predicts_taken("JAL", 9)  # direct jumps are folded
        assert not config.predicts_taken("JALR", -4)  # indirect never


    #: (mnemonic, imm, taken) -> redirect gap with a 3-bubble penalty.
    REDIRECT_GAPS = {
        "flush-on-taken": {
            ("BEQ", 4, True): 3, ("BEQ", 4, False): 0,
            ("BNE", -4, True): 3, ("BNE", -4, False): 0,
            ("JAL", 5, False): 3, ("JALR", -2, False): 3, ("ADD", 0, False): 0,
        },
        "predict-not-taken": {
            ("BEQ", 4, True): 3, ("BEQ", 4, False): 0,
            ("BNE", -4, True): 3, ("BNE", -4, False): 0,
            ("JAL", 5, False): 0, ("JALR", -2, False): 3, ("ADD", 0, False): 0,
        },
        "static-btfn": {
            ("BEQ", 4, True): 3, ("BEQ", 4, False): 0,
            ("BNE", -4, True): 0, ("BNE", -4, False): 3,
            ("BEQ", 0, True): 0, ("BEQ", 0, False): 3,
            ("JAL", 5, False): 0, ("JALR", -2, False): 3, ("ADD", 0, False): 0,
        },
    }

    @pytest.mark.parametrize("policy", BRANCH_POLICIES)
    def test_redirect_gap_is_the_timing_models_redirect_rule(self, policy):
        config = MachineConfig(branch_policy=policy, branch_penalty=2,
                               fetch_latency=1)
        assert config.redirect_penalty == 3
        cases = self.REDIRECT_GAPS[policy]
        for (mnemonic, imm, taken), gap in cases.items():
            assert config.redirect_gap(mnemonic, imm, taken) == gap, (
                mnemonic, imm, taken)
        # The timing model's per-PC gaps after a taken and a not-taken
        # outcome come from the same rule.
        program = assemble("BEQ T1, 0, 4\nBNE T1, 1, -4\nBEQ T1, 0, 0\n"
                           "JAL T2, 5\nJALR T2, T3, -2\nADD T1, T2")
        for instruction, attrs in zip(program.instructions,
                                      timing.attributes(program.instructions,
                                                        config)):
            mnemonic, imm = instruction.mnemonic, instruction.imm
            assert attrs[8:10] == (config.redirect_gap(mnemonic, imm, True),
                                   config.redirect_gap(mnemonic, imm, False))


BRANCH_HEAVY_SEEDS = [2, 5, 11, 17, 23]


def _branch_heavy_program(seed):
    return generate_program(seed, GeneratorConfig())


class TestTimingProperties:
    @pytest.mark.parametrize("seed", BRANCH_HEAVY_SEEDS)
    def test_deeper_pipeline_never_decreases_cycles(self, seed):
        program = _branch_heavy_program(seed)
        previous = None
        for depth in range(2, 6):
            config = MachineConfig(name=f"depth{depth}", depth=depth)
            stats = FastEngine(program, machine=config).run_with_stats()
            if previous is not None:
                assert stats.cycles >= previous, (
                    f"seed {seed}: depth {depth} ran in {stats.cycles} "
                    f"cycles, fewer than depth {depth - 1}'s {previous}")
            previous = stats.cycles

    def test_zero_penalty_machine_is_cycles_equals_instructions_plus_fill(self):
        program, _, _ = SoftwareFramework(optimize=True).compile_named_workload(
            "bubble_sort", {})
        config = MACHINES["ideal2"]
        stats = FastEngine(program, machine=config).run_with_stats()
        assert stats.cycles == (stats.instructions_committed
                                + config.fill_cycles)
        assert stats.load_use_stalls == 0
        assert stats.control_flush_bubbles == 0

    @pytest.mark.parametrize("machine", sorted(MACHINES))
    def test_cycle_identity_holds_for_every_builtin(self, machine):
        program = _branch_heavy_program(seed=7)
        config = MACHINES[machine]
        stats = FastEngine(program, machine=config).run_with_stats()
        assert stats.cycles == (stats.instructions_committed
                                + config.fill_cycles
                                + stats.load_use_stalls
                                + stats.control_flush_bubbles)

    def test_slow_fetch_pays_latency_only_on_redirects(self):
        # A straight-line program redirects zero times, so the only fetch
        # latency it pays is the single fill-time stream start.
        program = assemble("ADDI T1, 1\nADDI T2, 2\nADDI T3, 3\nHALT")
        config = MACHINES["slowfetch5"]
        stats = FastEngine(program, machine=config).run_with_stats()
        assert stats.control_flush_bubbles == 0
        assert stats.cycles == (stats.instructions_committed
                                + config.fill_cycles)


CACHE_POISON_SOURCE = "\n".join(
    ["LI T1, 10", "loop:", "ADDI T2, 3", "ADDI T1, -1", "BNE T1, 0, loop",
     "HALT"]
)


class TestCacheKeying:
    @pytest.fixture(autouse=True)
    def fresh_memo(self):
        _CODE_MEMO.clear()
        yield
        _CODE_MEMO.clear()

    def test_config_change_is_a_cache_miss(self, tmp_path):
        """Artifacts built under one machine must never serve another."""
        program = assemble(CACHE_POISON_SOURCE, name="machine-cache-poison")
        cache = ArtifactCache(str(tmp_path / "artifacts"))
        default_engine = CompiledEngine(program, cache=cache)
        default_engine.run_with_stats()
        assert cache.entry_count("codegen") == 1

        other = CompiledEngine(program, cache=cache, machine="slowfetch5")
        assert cache.get_json(
            "codegen", other._cache_key_material()) is None
        _CODE_MEMO.clear()
        other_stats = other.run_with_stats()
        # Both artifacts now coexist; the timings differ, proving the
        # second run did not deserialise the default machine's code.
        assert cache.entry_count("codegen") == 2
        default_stats = FastEngine(program).run_with_stats()
        slow_stats = FastEngine(program, machine="slowfetch5").run_with_stats()
        assert other_stats.cycles == slow_stats.cycles
        assert other_stats.cycles != default_stats.cycles

    def test_same_parameters_share_artifacts_across_names(self, tmp_path):
        """The digest keys on parameters, so a renamed config still hits."""
        program = assemble(CACHE_POISON_SOURCE, name="machine-cache-alias")
        cache = ArtifactCache(str(tmp_path / "artifacts"))
        expected = CompiledEngine(program, cache=cache,
                                  machine=MACHINES["btfn4"]).run_with_stats()
        _CODE_MEMO.clear()
        alias = MachineConfig(name="renamed-btfn4", depth=4,
                              branch_policy="static-btfn")
        assert alias.digest() == MACHINES["btfn4"].digest()
        stats = CompiledEngine(program, cache=cache,
                               machine=alias).run_with_stats()
        assert stats.to_dict() == expected.to_dict()
        assert cache.entry_count("codegen") == 1  # one artifact serves both


#: The config's timing fields.  Only the analytic model, the config itself
#: and the structural pipeline (the independent reference) may read them.
TIMING_FIELDS = {"redirect_penalty", "load_use_penalty", "branch_policy",
                 "folds_jal", "predicts_taken", "redirect_gap", "fill_cycles"}
TIMING_OWNERS = ("timing.py", "machine.py", "pipeline/")


def test_only_the_timing_model_reads_machine_timing_fields():
    sim_dir = Path(repro.sim.__file__).parent
    readers = []
    for path in sorted(sim_dir.rglob("*.py")):
        relative = path.relative_to(sim_dir).as_posix()
        if relative.startswith(TIMING_OWNERS):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        readers.extend(f"{relative}:{node.lineno} reads .{node.attr}"
                       for node in ast.walk(tree)
                       if isinstance(node, ast.Attribute)
                       and node.attr in TIMING_FIELDS)
    assert not readers, "\n".join(readers)
