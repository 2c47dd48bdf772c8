"""Integration tests: workloads, framework facades, baselines and the CLI."""

import dataclasses

import pytest

from repro.baselines import PicoRV32Model, VexRiscvModel
from repro.cli import main as cli_main
from repro.framework import HardwareFramework, SoftwareFramework, swflow
from repro.riscv.simulator import RVSimulator
from repro.runner import SweepJob, execute_job, worker
from repro.sim import FunctionalSimulator, PipelineSimulator
from repro.workloads import all_workloads, get_workload
from repro.workloads.base import lcg_values
from repro.workloads.dhrystone import _reference as dhrystone_reference
from repro.workloads.gemm import _reference as gemm_reference
from repro.workloads.sobel import _reference as sobel_reference


class TestWorkloadDefinitions:
    def test_registry_contains_the_four_paper_benchmarks(self):
        assert set(all_workloads()) == {"bubble_sort", "gemm", "sobel", "dhrystone"}

    def test_unknown_workload_rejected(self):
        with pytest.raises(KeyError):
            get_workload("fft")

    def test_lcg_is_deterministic(self):
        assert lcg_values(5, seed=3) == lcg_values(5, seed=3)
        assert lcg_values(5, seed=3) != lcg_values(5, seed=4)

    def test_gemm_reference_matches_numpy_style_definition(self):
        a = list(range(16))
        b = list(range(16, 32))
        expected = []
        for i in range(4):
            for j in range(4):
                expected.append(sum(a[i * 4 + k] * b[k * 4 + j] for k in range(4)))
        assert gemm_reference(a, b) == expected

    def test_sobel_reference_flat_image_has_zero_gradient(self):
        assert sobel_reference([7] * 64) == [0] * 36

    def test_dhrystone_reference_scales_with_iterations(self):
        short, _ = dhrystone_reference(5)
        long, _ = dhrystone_reference(25)
        assert short != long

    def test_mismatch_detection(self, monkeypatch):
        """A run whose result words differ from the reference is reported
        unverified, on an ART-9 engine and on a baseline core alike."""
        def off_by_one(name, **params):
            workload = get_workload(name, **params)
            return dataclasses.replace(workload, expected_results=[
                value + 1 for value in workload.expected_results])

        monkeypatch.setattr(swflow, "get_workload", off_by_one)
        monkeypatch.setattr(worker, "get_workload", off_by_one)
        worker.reset_caches()  # drop workloads memoised by earlier tests
        try:
            records = [execute_job(SweepJob("bubble_sort", engine, True))
                       for engine in ("fast", "picorv32")]
        finally:
            worker.reset_caches()  # nor leak the tampered ones
        assert [(record["status"], record["verified"])
                for record in records] == [("ok", False), ("ok", False)]


@pytest.mark.parametrize("name", ["bubble_sort", "gemm", "sobel", "dhrystone"])
class TestWorkloadEquivalence:
    def test_rv_reference_and_translation_agree(self, name):
        workload = get_workload(name)
        expected = workload.expected_results
        reference = RVSimulator(workload.rv_program())
        reference.run()
        assert reference.memory_words(
            workload.result_base, workload.result_count) == expected

        software = SoftwareFramework()
        program, report = software.compile_workload(workload)
        assert report.final_instructions > 0

        functional = FunctionalSimulator(program)
        functional.run(max_instructions=5_000_000)
        assert _ternary_results(workload, functional) == expected

        pipeline = PipelineSimulator(program)
        stats = pipeline.run(max_cycles=10_000_000)
        assert _ternary_results(workload, pipeline) == expected
        assert stats.instructions_committed == functional.instructions_executed


def _ternary_results(workload, simulator):
    """The result words of a finished ART-9 run.

    The translated program keeps the RV byte addresses, so result word
    ``i`` lives at TDM address ``result_base + 4 * i``.
    """
    return [simulator.tdm.read_int(workload.result_base + 4 * index)
            for index in range(workload.result_count)]


class TestFrameworkFacades:
    def test_software_framework_accepts_raw_assembly(self):
        software = SoftwareFramework()
        program, report = software.compile_riscv_assembly("li a0, 5\necall", name="inline")
        assert report.rv_instructions == 2
        sim = FunctionalSimulator(program)
        sim.run()

    def test_software_framework_native_assembly(self):
        program = SoftwareFramework.assemble_ternary("ADDI T1, 3\nHALT")
        assert len(program) == 2

    def test_hardware_framework_full_evaluation(self):
        workload = get_workload("bubble_sort")
        software = SoftwareFramework()
        program, _ = software.compile_workload(workload)
        hardware = HardwareFramework()
        evaluation = hardware.evaluate(program, iterations=workload.iterations)
        assert evaluation.pipeline_stats.cycles > 0
        assert evaluation.gate_report.total_gates > 500
        assert evaluation.fpga_report.ram_bits == 9216
        assert evaluation.cntfet_performance.dmips_per_watt > evaluation.fpga_performance.dmips_per_watt
        assert "CNTFET" in evaluation.summary()

    def test_art9_beats_picorv32_on_bubble_sort_cycles(self):
        # The Table III headline: the translated ART-9 code needs fewer
        # cycles than the non-pipelined PicoRV32 baseline.
        workload = get_workload("bubble_sort")
        program, _ = SoftwareFramework().compile_workload(workload)
        art9_cycles = HardwareFramework().simulate(program).cycles
        pico_cycles = PicoRV32Model().run(workload.rv_program()).cycles
        assert art9_cycles < pico_cycles

    def test_vexriscv_beats_art9_in_dmips_per_mhz(self):
        # Table II ordering: VexRiscv > ART-9 in DMIPS/MHz.
        workload = get_workload("dhrystone")
        program, _ = SoftwareFramework().compile_workload(workload)
        art9_cycles = HardwareFramework().simulate(program).cycles
        vex_cycles = VexRiscvModel().run(workload.rv_program()).cycles
        assert vex_cycles < art9_cycles


class TestCLI:
    def test_workloads_listing(self, capsys):
        assert cli_main(["workloads"]) == 0
        captured = capsys.readouterr().out
        assert "dhrystone" in captured

    def test_hw_subcommand(self, capsys):
        assert cli_main(["hw"]) == 0
        captured = capsys.readouterr().out
        assert "ternary gates" in captured and "ALMs" in captured

    def test_translate_and_run_subcommands(self, tmp_path, capsys):
        source = tmp_path / "prog.s"
        source.write_text("li a0, 5\nadd a0, a0, a0\necall\n")
        assert cli_main(["translate", str(source), "--listing"]) == 0
        assert "translation of" in capsys.readouterr().out
        assert cli_main(["run", str(source)]) == 0
        assert "cycles" in capsys.readouterr().out

    def test_bench_subcommand_single_workload(self, capsys):
        assert cli_main(["bench", "bubble_sort"]) == 0
        captured = capsys.readouterr().out
        assert "bubble_sort" in captured and "PicoRV32" in captured

    def test_no_command_prints_help(self, capsys):
        assert cli_main([]) == 1
