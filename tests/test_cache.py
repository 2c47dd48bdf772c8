"""The cross-process artifact cache: store semantics and layer integration.

Covers the :mod:`repro.cache` store itself (addressing, atomicity-adjacent
behaviour, corruption tolerance, environment plumbing), Program
serialisation round-trips, the cached translation path of
:class:`SoftwareFramework`, and the worker-level integration that makes a
fresh process reuse another process's translations.
"""

import json
import os

import pytest

from repro.cache import (
    ArtifactCache,
    CACHE_DIR_ENV,
    CACHE_DISABLE_ENV,
    cache_key,
    default_cache,
    reset_default_cache,
)
from repro.framework import SoftwareFramework, TranslationSummary
from repro.runner import SweepJob, execute_job
from repro.runner.worker import reset_caches
from repro.sim import FastEngine
from repro.isa.program import Program


@pytest.fixture
def cache(tmp_path):
    return ArtifactCache(str(tmp_path / "artifacts"))


@pytest.fixture
def isolated_default_cache(tmp_path, monkeypatch):
    """Point the process-wide default cache at a private directory."""
    root = str(tmp_path / "default-cache")
    monkeypatch.setenv(CACHE_DIR_ENV, root)
    monkeypatch.delenv(CACHE_DISABLE_ENV, raising=False)
    reset_default_cache()
    reset_caches()
    yield root
    reset_default_cache()
    reset_caches()


class TestArtifactCacheStore:
    def test_roundtrip(self, cache):
        material = {"kind": "unit", "value": 7}
        assert cache.get_json("probe", material) is None
        cache.put_json("probe", material, {"answer": 42})
        assert cache.get_json("probe", material) == {"answer": 42}

    def test_key_material_addresses_the_content(self, cache):
        cache.put_json("probe", {"v": 1}, {"payload": "one"})
        assert cache.get_json("probe", {"v": 2}) is None
        assert cache.get_json("probe", {"v": 1}) == {"payload": "one"}
        assert cache_key({"v": 1}) != cache_key({"v": 2})
        # Canonicalisation: key order never matters.
        assert cache_key({"a": 1, "b": 2}) == cache_key({"b": 2, "a": 1})

    def test_corrupted_entry_is_a_miss(self, cache):
        material = {"torn": True}
        cache.put_json("probe", material, {"fine": 1})
        path = cache.path_for("probe", cache_key(material))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"trunca')
        assert cache.get_json("probe", material) is None

    def test_non_dict_entry_is_a_miss(self, cache):
        material = {"shape": "wrong"}
        cache.put_json("probe", material, {"fine": 1})
        path = cache.path_for("probe", cache_key(material))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("[1, 2, 3]")
        assert cache.get_json("probe", material) is None

    def test_failed_write_is_swallowed_and_not_counted(self, tmp_path):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("a file where the cache root should be")
        cache = ArtifactCache(str(blocker / "artifacts"))
        path = cache.put_json("probe", {"i": 1}, {"kept": False})
        assert path == cache.path_for("probe", cache_key({"i": 1}))
        assert cache.get_json("probe", {"i": 1}) is None

    def test_entry_count_kinds_and_clear(self, cache):
        cache.put_json("alpha", {"i": 1}, {})
        cache.put_json("alpha", {"i": 2}, {})
        cache.put_json("beta", {"i": 1}, {})
        assert cache.kinds() == ["alpha", "beta"]
        assert cache.entry_count() == 3
        assert cache.entry_count("alpha") == 2
        assert cache.clear() == 3
        assert cache.entry_count() == 0

    def test_default_cache_env_dir_and_disable(self, tmp_path, monkeypatch):
        root = str(tmp_path / "from-env")
        monkeypatch.setenv(CACHE_DIR_ENV, root)
        monkeypatch.delenv(CACHE_DISABLE_ENV, raising=False)
        reset_default_cache()
        assert default_cache().root == root
        monkeypatch.setenv(CACHE_DISABLE_ENV, "1")
        assert default_cache() is None
        monkeypatch.setenv(CACHE_DISABLE_ENV, "0")
        assert default_cache().root == root
        reset_default_cache()


class TestCacheGrowthControl:
    """disk_stats() and prune(): the ``art9 cache`` maintenance surface."""

    @staticmethod
    def _age(cache, kind, material, seconds_ago):
        """Backdate one entry's mtime so LRU order is deterministic."""
        path = cache.path_for(kind, cache_key(material))
        stamp = os.stat(path).st_mtime - seconds_ago
        os.utime(path, (stamp, stamp))

    def test_disk_stats_counts_entries_and_bytes_per_kind(self, cache):
        cache.put_json("alpha", {"i": 1}, {"pad": "x" * 64})
        cache.put_json("alpha", {"i": 2}, {"pad": "y" * 64})
        cache.put_json("beta", {"i": 1}, {})
        stats = cache.disk_stats()
        assert stats["root"] == cache.root
        assert stats["entries"] == 3
        assert set(stats["kinds"]) == {"alpha", "beta"}
        assert stats["kinds"]["alpha"]["entries"] == 2
        assert stats["kinds"]["beta"]["entries"] == 1
        assert stats["bytes"] == (stats["kinds"]["alpha"]["bytes"]
                                  + stats["kinds"]["beta"]["bytes"])
        assert stats["kinds"]["alpha"]["bytes"] > stats["kinds"]["beta"]["bytes"]

    def test_disk_stats_on_missing_root_is_empty(self, tmp_path):
        stats = ArtifactCache(str(tmp_path / "never-written")).disk_stats()
        assert stats["entries"] == 0 and stats["bytes"] == 0
        assert stats["kinds"] == {}

    def test_prune_evicts_oldest_first_until_under_budget(self, cache):
        for index in range(4):
            cache.put_json("probe", {"i": index}, {"pad": "z" * 100})
        # Oldest → newest: 0, 1, 2, 3.
        for index in range(4):
            self._age(cache, "probe", {"i": index}, seconds_ago=(4 - index) * 60)
        total = cache.disk_stats()["bytes"]
        per_entry = total // 4
        summary = cache.prune(max_bytes=total - per_entry)
        assert summary["removed"] == 1
        assert summary["kept"] == 3
        # The oldest entry went; the newest three survive.
        assert cache.get_json("probe", {"i": 0}) is None
        for index in (1, 2, 3):
            assert cache.get_json("probe", {"i": index}) is not None
        assert cache.disk_stats()["bytes"] <= total - per_entry

    def test_prune_zero_clears_everything_and_shard_dirs(self, cache):
        cache.put_json("alpha", {"i": 1}, {})
        cache.put_json("beta", {"i": 1}, {})
        summary = cache.prune(max_bytes=0)
        assert summary["removed"] == 2 and summary["kept"] == 0
        assert summary["kept_bytes"] == 0
        assert cache.entry_count() == 0
        for kind in ("alpha", "beta"):
            base = os.path.join(cache.root, kind)
            assert os.listdir(base) == []  # emptied shard dirs removed

    def test_prune_under_budget_is_a_no_op(self, cache):
        cache.put_json("probe", {"i": 1}, {"keep": True})
        summary = cache.prune(max_bytes=10**9)
        assert summary["removed"] == 0
        assert cache.get_json("probe", {"i": 1}) == {"keep": True}

    def test_prune_rejects_negative_budget(self, cache):
        with pytest.raises(ValueError, match="max_bytes"):
            cache.prune(max_bytes=-1)

    def test_prune_leaves_in_flight_temp_files_alone(self, cache):
        cache.put_json("probe", {"i": 1}, {})
        shard = os.path.dirname(cache.path_for("probe",
                                               cache_key({"i": 1})))
        temp = os.path.join(shard, "writerXYZ.tmp")
        with open(temp, "w", encoding="utf-8") as handle:
            handle.write("{partial")
        cache.prune(max_bytes=0)
        assert os.path.exists(temp)  # the in-flight writer's file survives
        assert cache.get_json("probe", {"i": 1}) is None


class TestProgramSerialisation:
    @pytest.fixture(scope="class")
    def translated(self):
        software = SoftwareFramework()
        return software.compile_named_workload("gemm", {"n": 2})

    def test_roundtrip_is_exact(self, translated):
        program, _, _ = translated
        rebuilt = Program.from_dict(program.to_dict())
        assert rebuilt.to_dict() == program.to_dict()
        assert rebuilt.listing() == program.listing()
        assert rebuilt.content_digest() == program.content_digest()

    def test_rebuilt_program_executes_identically(self, translated):
        program, _, _ = translated
        rebuilt = Program.from_dict(json.loads(json.dumps(program.to_dict())))
        original = FastEngine(program).run()
        replayed = FastEngine(rebuilt).run()
        assert replayed.registers == original.registers
        assert replayed.memory == original.memory

    def test_digest_tracks_content(self, translated):
        program, _, _ = translated
        modified = program.copy()
        modified.instructions[0].imm = (modified.instructions[0].imm or 0) + 1
        assert modified.content_digest() != program.content_digest()


class TestCachedTranslation:
    def test_miss_then_cross_instance_hit(self, cache):
        first = SoftwareFramework()
        program_a, summary_a, workload_a = first.compile_named_workload_cached(
            "bubble_sort", {"length": 8}, cache=cache)
        assert cache.entry_count("xlate") == 1
        assert first.last_compile_source == "built"
        second = SoftwareFramework()  # fresh in-process memo: must hit disk
        program_b, summary_b, workload_b = second.compile_named_workload_cached(
            "bubble_sort", {"length": 8}, cache=cache)
        assert second.last_compile_source == "cache"
        assert program_b.to_dict() == program_a.to_dict()
        assert summary_b == summary_a
        assert workload_b.name == workload_a.name

    def test_summary_matches_the_full_report(self, cache):
        software = SoftwareFramework()
        program, report, _ = software.compile_named_workload("sobel", None)
        _, summary, _ = software.compile_named_workload_cached(
            "sobel", None, cache=cache)
        assert isinstance(summary, TranslationSummary)
        assert summary.final_instructions == report.final_instructions
        assert summary.instruction_expansion == report.instruction_expansion
        assert summary.ternary_memory_trits == report.ternary_memory_trits
        assert summary.memory_cell_ratio == report.memory_cell_ratio

    def test_optimize_flag_is_part_of_the_key(self, cache):
        SoftwareFramework(optimize=True).compile_named_workload_cached(
            "bubble_sort", {"length": 8}, cache=cache)
        SoftwareFramework(optimize=False).compile_named_workload_cached(
            "bubble_sort", {"length": 8}, cache=cache)
        assert cache.entry_count("xlate") == 2

    def test_workload_source_change_invalidates(self, cache, monkeypatch):
        SoftwareFramework().compile_named_workload_cached(
            "bubble_sort", {"length": 8}, cache=cache)
        import repro.framework.swflow as swflow
        from repro.workloads import get_workload as real_get_workload

        def tweaked(name, **params):
            workload = real_get_workload(name, **params)
            workload.rv_source = "# builder edited\n" + workload.rv_source
            return workload

        monkeypatch.setattr(swflow, "get_workload", tweaked)
        SoftwareFramework().compile_named_workload_cached(
            "bubble_sort", {"length": 8}, cache=cache)
        assert cache.entry_count("xlate") == 2  # old entry no longer addressed

    def test_translator_version_invalidates(self, cache, monkeypatch):
        SoftwareFramework().compile_named_workload_cached(
            "bubble_sort", {"length": 8}, cache=cache)
        import repro.framework.swflow as swflow
        monkeypatch.setattr(swflow, "TRANSLATOR_VERSION", 999)
        SoftwareFramework().compile_named_workload_cached(
            "bubble_sort", {"length": 8}, cache=cache)
        assert cache.entry_count("xlate") == 2

    def test_compile_source_names_where_the_program_came_from(self, cache):
        software = SoftwareFramework()
        assert software.last_compile_source is None
        software.compile_named_workload_cached(
            "bubble_sort", {"length": 8}, cache=cache)
        assert software.last_compile_source == "built"
        software.compile_named_workload_cached(
            "bubble_sort", {"length": 8}, cache=cache)
        assert software.last_compile_source == "memo"
        fresh = SoftwareFramework()
        fresh.compile_named_workload_cached(
            "bubble_sort", {"length": 8}, cache=cache)
        assert fresh.last_compile_source == "cache"
        bypass = SoftwareFramework()
        bypass.compile_named_workload_cached(
            "bubble_sort", {"length": 8}, cache=None)
        assert bypass.last_compile_source == "built"

    @pytest.mark.parametrize("junk", [
        None,  # the built program without its summary
        {"program": {"instructions": "junk"}},  # rows that are not rows
        {"program": 5},
        {"program": []},
    ], ids=["no-summary", "string-instructions", "int-program",
            "list-program"])
    def test_malformed_artifact_is_rebuilt_and_replaced(self, cache, junk):
        built = SoftwareFramework()
        program, summary, _ = built.compile_named_workload_cached(
            "bubble_sort", {"length": 8}, cache=cache)
        [shard] = os.listdir(os.path.join(cache.root, "xlate"))
        [name] = os.listdir(os.path.join(cache.root, "xlate", shard))
        path = os.path.join(cache.root, "xlate", shard, name)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(junk or {"program": program.to_dict()}, handle)
        rebuilt = SoftwareFramework()
        program_b, summary_b, _ = rebuilt.compile_named_workload_cached(
            "bubble_sort", {"length": 8}, cache=cache)
        assert rebuilt.last_compile_source == "built"
        assert program_b.to_dict() == program.to_dict()
        assert summary_b == summary
        reader = SoftwareFramework()  # the rewritten entry loads again
        reader.compile_named_workload_cached(
            "bubble_sort", {"length": 8}, cache=cache)
        assert reader.last_compile_source == "cache"

    def test_cache_none_bypasses_the_disk(self, tmp_path):
        software = SoftwareFramework()
        software.compile_named_workload_cached("bubble_sort", {"length": 8},
                                               cache=None)
        assert not os.path.exists(str(tmp_path / "artifacts"))


class TestWorkerIntegration:
    JOB = SweepJob("bubble_sort", "compiled", True, params=(("length", 8),))

    def test_execute_job_populates_and_reuses_the_cache(
            self, isolated_default_cache):
        record = execute_job(self.JOB)
        assert record["status"] == "ok" and record["verified"]
        shared = default_cache()
        assert shared.entry_count("xlate") >= 1
        assert shared.entry_count("codegen") >= 1
        # A "new process": drop every in-process memo, keep the disk.
        reset_caches()
        reset_default_cache()
        from repro.sim.compiled import _CODE_MEMO
        _CODE_MEMO.clear()
        again = execute_job(self.JOB)
        assert again["status"] == "ok"
        assert again["cycles"] == record["cycles"]
        assert again["state_digest"] == record["state_digest"]
        assert not record["cache_hit"] and again["cache_hit"]

    def test_compiled_and_fast_jobs_produce_identical_numbers(
            self, isolated_default_cache):
        compiled = execute_job(self.JOB)
        fast = execute_job(SweepJob("bubble_sort", "fast", True,
                                    params=(("length", 8),)))
        assert compiled["cycles"] == fast["cycles"]
        assert compiled["stats"] == fast["stats"]
        assert compiled["state_digest"] == fast["state_digest"]
        assert compiled["translated_instructions"] == fast["translated_instructions"]

    def test_record_cache_hit_follows_the_translation_source(
            self, isolated_default_cache, monkeypatch):
        assert execute_job(self.JOB)["cache_hit"] is False     # built
        assert execute_job(self.JOB)["cache_hit"] is True      # memo
        reset_caches()  # a "new process" on the warm disk cache
        assert execute_job(self.JOB)["cache_hit"] is True      # cache
        monkeypatch.setenv(CACHE_DISABLE_ENV, "1")
        reset_default_cache()
        reset_caches()
        assert execute_job(self.JOB)["cache_hit"] is False     # built again
