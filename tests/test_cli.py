"""End-to-end coverage of the ``art9`` command-line interface.

Every subcommand is driven through ``main(argv)`` with temporary-file
sources, asserting both the exit code and the key lines of the output.
"""

import pytest

from repro.cli import build_parser, main

_RV_SOURCE = """\
li a0, 5
li a1, 7
add a0, a0, a1
ecall
"""


@pytest.fixture
def rv_file(tmp_path):
    source = tmp_path / "prog.s"
    source.write_text(_RV_SOURCE)
    return str(source)


class TestTranslate:
    def test_translate_prints_report(self, rv_file, capsys):
        assert main(["translate", rv_file]) == 0
        out = capsys.readouterr().out
        assert "translation of" in out

    def test_translate_listing_shows_instructions(self, rv_file, capsys):
        assert main(["translate", rv_file, "--listing"]) == 0
        out = capsys.readouterr().out
        assert "HALT" in out

    def test_translate_no_optimize(self, rv_file, capsys):
        assert main(["translate", rv_file, "--no-optimize"]) == 0
        assert "translation of" in capsys.readouterr().out


class TestRun:
    def test_run_default_engine_prints_cycle_summary(self, rv_file, capsys):
        assert main(["run", rv_file]) == 0
        out = capsys.readouterr().out
        assert "cycles" in out
        assert "instructions committed" in out

    def test_run_engines_agree_on_cycles(self, rv_file, capsys):
        assert main(["run", rv_file, "--engine", "fast"]) == 0
        fast_out = capsys.readouterr().out
        assert main(["run", rv_file, "--engine", "pipeline"]) == 0
        pipeline_out = capsys.readouterr().out

        def cycles_line(text):
            return next(line for line in text.splitlines() if line.startswith("cycles"))

        assert cycles_line(fast_out) == cycles_line(pipeline_out)

    def test_run_compiled_engine_matches_fast(self, rv_file, capsys):
        assert main(["run", rv_file, "--engine", "compiled"]) == 0
        compiled_out = capsys.readouterr().out
        assert main(["run", rv_file, "--engine", "fast"]) == 0
        assert compiled_out == capsys.readouterr().out  # bit-identical summary

    def test_unknown_engine_rejected_by_argparse(self, rv_file):
        with pytest.raises(SystemExit):
            main(["run", rv_file, "--engine", "quantum"])


class TestBench:
    def test_bench_single_workload(self, capsys):
        assert main(["bench", "bubble_sort"]) == 0
        out = capsys.readouterr().out
        assert "bubble_sort" in out
        assert "PicoRV32" in out and "VexRiscv" in out

    def test_bench_pipeline_engine_matches_fast(self, capsys):
        assert main(["bench", "bubble_sort", "--engine", "fast"]) == 0
        fast_out = capsys.readouterr().out
        assert main(["bench", "bubble_sort", "--engine", "pipeline"]) == 0
        pipeline_out = capsys.readouterr().out
        assert fast_out == pipeline_out

    def test_bench_compiled_engine_matches_fast(self, capsys):
        assert main(["bench", "bubble_sort", "--engine", "compiled"]) == 0
        compiled_out = capsys.readouterr().out
        assert main(["bench", "bubble_sort", "--engine", "fast"]) == 0
        assert compiled_out == capsys.readouterr().out


class TestFuzz:
    def test_fuzz_reports_clean_run(self, capsys):
        assert main(["fuzz", "--count", "10", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "10 programs" in out
        assert "OK" in out

    def test_batch_lanes_is_not_an_option(self, capsys):
        # Fuzzing checks the four executors that serve users; there is no
        # multi-lane executor to widen a seed into.
        with pytest.raises(SystemExit) as exit_info:
            main(["fuzz", "--count", "2", "--batch-lanes", "4"])
        assert exit_info.value.code == 2
        assert ("unrecognized arguments: --batch-lanes 4"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("argv,message", [
        (["--count", "-5"], "--count must be >= 1, got -5"),
        (["--count", "0"], "--count must be >= 1, got 0"),
        (["--max-instructions", "-1"], "--max-instructions must be >= 1, got -1"),
        (["--max-instructions", "0"], "--max-instructions must be >= 1, got 0"),
    ], ids=["negative-count", "zero-count", "negative-budget", "zero-budget"])
    def test_fuzz_rejects_a_run_that_checks_nothing(self, capsys, argv,
                                                     message):
        # Zero programs, or a budget no program can run in, would print
        # "OK" without comparing a single instruction.
        assert main(["fuzz", "--count", "3", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"art9 fuzz: {message}\n"


class TestSweepInputValidation:
    def test_params_malformed_json_is_a_spec_error(self, tmp_path, capsys):
        assert main(["sweep", "--out", str(tmp_path / "run"),
                     "--workloads", "bubble_sort",
                     "--params", "{not json"]) == 2
        err = capsys.readouterr().err
        assert "art9 sweep:" in err
        assert "--params is not valid JSON" in err
        assert "{not json" in err  # names the offending text

    def test_params_non_dict_json_is_a_spec_error(self, tmp_path, capsys):
        assert main(["sweep", "--out", str(tmp_path / "run"),
                     "--workloads", "bubble_sort",
                     "--params", "[1,2]"]) == 2
        err = capsys.readouterr().err
        assert "art9 sweep:" in err
        assert "--params must be a JSON object" in err
        assert "[1,2]" in err

    def test_batch_flag_is_not_an_option(self, tmp_path, capsys):
        # Every sweep job runs one way; there is no batched sweep mode.
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "--out", str(tmp_path / "run"),
                  "--workloads", "bubble_sort", "--batch"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --batch" in capsys.readouterr().err


class TestMetaCommands:
    def test_workloads_lists_all_four(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("bubble_sort", "gemm", "sobel", "dhrystone"):
            assert name in out

    def test_hw_prints_gate_and_fpga_reports(self, capsys):
        assert main(["hw"]) == 0
        out = capsys.readouterr().out
        assert "ternary gates" in out
        assert "ALMs" in out

    def test_no_command_prints_help_and_fails(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().out.lower()

    def test_parser_exposes_all_subcommands(self):
        parser = build_parser()
        text = parser.format_help()
        for command in ("translate", "run", "bench", "fuzz", "hw", "workloads"):
            assert command in text


class TestStatus:
    @pytest.fixture
    def run_dir(self, tmp_path):
        out = str(tmp_path / "run")
        assert main(["sweep", "--out", out, "--workloads", "bubble_sort",
                     "--engines", "fast", "--optimize", "on",
                     "--params", '{"bubble_sort": [{"length": 8}]}',
                     "--jobs", "1"]) == 0
        return out

    def test_run_dir_summary_reports_phases_and_cache(self, run_dir, capsys):
        capsys.readouterr()
        assert main(["status", run_dir]) == 0
        out = capsys.readouterr().out
        assert "jobs      1/1 ok" in out
        assert "xlate" in out and "execute" in out
        assert "translation cache hits" in out
        assert "slowest jobs:" in out
        assert "bubble_sort[length=8]/fast/opt" in out

    def test_traced_run_dir_reports_span_count(self, tmp_path, capsys,
                                               monkeypatch):
        from repro.obs import trace

        out = str(tmp_path / "run")
        assert main(["sweep", "--out", out, "--workloads", "bubble_sort",
                     "--engines", "fast", "--optimize", "on",
                     "--params", '{"bubble_sort": [{"length": 8}]}',
                     "--jobs", "1", "--trace"]) == 0
        trace.configure(None)  # --trace enabled it process-wide; undo
        monkeypatch.delenv(trace.TRACE_ENV, raising=False)
        monkeypatch.delenv(trace.TRACE_FILE_ENV, raising=False)
        capsys.readouterr()
        assert main(["status", out]) == 0
        captured = capsys.readouterr().out
        assert "spans.jsonl" in captured
        assert "trace" in captured

    def test_rejects_neither_or_both_modes(self, run_dir, capsys):
        assert main(["status"]) == 2
        assert "exactly one" in capsys.readouterr().err
        assert main(["status", run_dir, "--connect", "127.0.0.1:1"]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_non_run_directory_fails_cleanly(self, tmp_path, capsys):
        assert main(["status", str(tmp_path / "nope")]) == 2
        assert "not a sweep run directory" in capsys.readouterr().err

    def test_unreachable_coordinator_fails_cleanly(self, capsys):
        assert main(["status", "--connect", "127.0.0.1:1"]) == 2
        assert "cannot query coordinator" in capsys.readouterr().err

    def test_malformed_connect_address(self, capsys):
        assert main(["status", "--connect", "nonsense"]) == 2
        assert "HOST:PORT" in capsys.readouterr().err


class TestProfile:
    def test_hot_block_table_sums_to_dynamic_instructions(self, capsys):
        assert main(["profile", "dhrystone"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        header = lines[0]
        # "dhrystone: 10380 cycles, 8443 instructions, ..."
        executed = int(header.split(" cycles, ")[1].split(" instructions")[0])
        shown = 0
        for line in lines[4:]:
            cells = line.split()
            if not cells or not cells[0].isdigit():
                break
            shown += int(cells[3])
        assert 0 < shown <= executed
        assert "cumulative" in out

    def test_top_truncation_reports_the_remainder(self, capsys):
        assert main(["profile", "dhrystone", "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert "more blocks accounting for" in out

    @staticmethod
    def _profile_table(capsys, top):
        """(executed, superblocks, shown rows, remainder line) of a
        ``profile dhrystone --top top`` run."""
        assert main(["profile", "dhrystone", "--top", str(top)]) == 0
        lines = capsys.readouterr().out.splitlines()
        # "dhrystone: 10380 cycles, 8443 instructions, CPI 1.229, 18 ..."
        fields = lines[0].split(", ")
        executed = int(fields[1].split()[0])
        superblocks = int(fields[3].split()[0])
        rows = [line.split() for line in lines[4:]
                if not line.startswith("...")]
        remainder = [line for line in lines[4:] if line.startswith("...")]
        return executed, superblocks, rows, remainder

    @pytest.mark.parametrize("top", [0, 1, 17])
    def test_remainder_line_accounts_for_the_hidden_rows(self, capsys, top):
        executed, superblocks, rows, remainder = \
            self._profile_table(capsys, top)
        assert len(rows) == top
        shown = sum(int(row[3]) for row in rows)
        rest = executed - shown
        assert remainder == [
            f"... {superblocks - top} more blocks accounting for {rest} "
            f"instructions ({rest / executed:.1%})"]

    def test_top_covering_every_block_prints_no_remainder(self, capsys):
        _, superblocks, _, _ = self._profile_table(capsys, 0)
        executed, _, rows, remainder = self._profile_table(capsys,
                                                           superblocks)
        assert remainder == []
        assert len(rows) == superblocks
        assert sum(int(row[3]) for row in rows) == executed

    def test_negative_top_is_rejected(self, capsys):
        assert main(["profile", "dhrystone", "--top", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "art9 profile: --top must be >= 0, got -1\n"

    def test_profile_respects_params_and_machine(self, capsys):
        assert main(["profile", "gemm", "--params", '{"n": 2}',
                     "--machine", "ideal2"]) == 0
        assert "superblocks executed" in capsys.readouterr().out

    def test_unknown_workload_fails_cleanly(self, capsys):
        assert main(["profile", "not_a_workload"]) == 2
        assert "art9 profile:" in capsys.readouterr().err

    def test_malformed_params_fail_cleanly(self, capsys):
        assert main(["profile", "gemm", "--params", "{oops"]) == 2
        assert "--params" in capsys.readouterr().err

    def test_profile_json_document(self, capsys):
        import json

        assert main(["profile", "bubble_sort", "--params", '{"length": 8}',
                     "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["workload"] == "bubble_sort"
        assert document["accounted"] is True
        assert document["instructions"] == sum(
            row["instructions"] for row in document["blocks"])
        assert document["superblocks"] == len(document["blocks"])
        for row in document["blocks"]:
            assert row["instructions"] == row["executions"] * row["length"]

    def test_dhrystone_json_rows_are_pinned(self, capsys):
        import json

        assert main(["profile", "dhrystone", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        blocks = document.pop("blocks")
        assert document == {
            "accounted": True, "cpi": 1.229421, "cycles": 10380,
            "instructions": 8443, "machine": "paper3stage",
            "optimize": True, "params": {}, "superblocks": 18,
            "workload": "dhrystone"}
        # (pc, executions, length, instructions), hottest first.
        assert [(row["pc"], row["executions"], row["length"],
                 row["instructions"]) for row in blocks] == [
            (11, 49, 43, 2107), (166, 50, 37, 1850), (72, 50, 14, 700),
            (88, 50, 14, 700), (131, 50, 13, 650), (62, 50, 10, 500),
            (149, 50, 10, 500), (54, 50, 8, 400), (144, 50, 5, 250),
            (203, 17, 9, 153), (161, 50, 3, 150), (102, 49, 3, 147),
            (159, 50, 2, 100), (164, 50, 2, 100), (0, 1, 54, 54),
            (212, 50, 1, 50), (105, 1, 26, 26), (86, 3, 2, 6)]

    def test_profile_reuses_the_sweep_jobs_build(self, tmp_path, monkeypatch,
                                                 capsys):
        """``art9 profile`` runs the translation and build a compiled sweep
        job published: it translates and compiles nothing and adds no
        codegen artifact."""
        from repro.cache import ArtifactCache, reset_default_cache
        from repro.runner import SweepJob
        from repro.runner.worker import execute_job
        from repro.sim import compiled
        from repro.xlate import TernaryTranslator

        root = str(tmp_path / "artifacts")
        monkeypatch.setenv("ART9_CACHE_DIR", root)
        reset_default_cache()
        compiled._CODE_MEMO.clear()
        try:
            record = execute_job(SweepJob("gemm", "compiled", True))
            assert record["status"] == "ok", record
            codegen = ArtifactCache(root).disk_stats()["kinds"]["codegen"]
            assert codegen["entries"] == 1
            compiled._CODE_MEMO.clear()  # a fresh process: disk cache only
            calls = []

            def counting_compile(source, filename, mode):
                calls.append(filename)
                return compile(source, filename, mode)

            monkeypatch.setattr(compiled, "compile", counting_compile,
                                raising=False)
            translations = []
            translate = TernaryTranslator.translate

            def counting_translate(translator, rv_program):
                translations.append(rv_program)
                return translate(translator, rv_program)

            monkeypatch.setattr(TernaryTranslator, "translate",
                                counting_translate)
            assert main(["profile", "gemm"]) == 0
            assert f"{record['cycles']} cycles" in capsys.readouterr().out
            assert calls == [] and translations == []
            codegen = ArtifactCache(root).disk_stats()["kinds"]["codegen"]
            assert codegen["entries"] == 1
        finally:
            compiled._CODE_MEMO.clear()
            reset_default_cache()


class TestCacheCommand:
    @pytest.fixture
    def populated_root(self, tmp_path):
        from repro.cache import ArtifactCache

        root = str(tmp_path / "cache")
        cache = ArtifactCache(root)
        for index in range(3):
            cache.put_json("probe", {"i": index}, {"pad": "x" * 200})
        return root

    def test_stats_table(self, populated_root, capsys):
        assert main(["cache", "stats", "--dir", populated_root]) == 0
        out = capsys.readouterr().out
        assert populated_root in out
        assert "probe" in out and "total" in out

    def test_stats_json(self, populated_root, capsys):
        import json

        assert main(["cache", "stats", "--dir", populated_root,
                     "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 3
        assert stats["kinds"]["probe"]["entries"] == 3
        assert stats["bytes"] > 0

    def test_prune_to_zero(self, populated_root, capsys):
        assert main(["cache", "prune", "--max-bytes", "0",
                     "--dir", populated_root]) == 0
        assert "pruned 3 entries" in capsys.readouterr().out
        assert main(["cache", "stats", "--dir", populated_root,
                     "--json"]) == 0
        import json

        assert json.loads(capsys.readouterr().out)["entries"] == 0

    def test_prune_rejects_negative_budget(self, populated_root, capsys):
        assert main(["cache", "prune", "--max-bytes", "-5",
                     "--dir", populated_root]) == 2
        assert "max_bytes" in capsys.readouterr().err

    def test_bare_cache_command_fails_with_usage(self, capsys):
        assert main(["cache"]) == 2
        assert "stats | prune" in capsys.readouterr().err
