"""Hardware-level framework facade: programs in, implementation metrics out."""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Dict, Optional, Tuple

from repro.hweval.analyzer import GateLevelAnalyzer, GateLevelReport
from repro.hweval.cntfet import cntfet_32nm_library
from repro.hweval.estimator import DhrystoneMetrics, PerformanceEstimator, PerformanceReport
from repro.hweval.fpga import FPGAEmulationModel, FPGAResourceReport, stratix_v_model
from repro.hweval.technology import TechnologyLibrary
from repro.isa.program import Program
from repro.sim.compiled import CompiledEngine
from repro.sim.engine import FastEngine
from repro.sim.machine import MachineConfig, resolve_machine
from repro.sim.pipeline import PipelineSimulator, PipelineStats

#: Known cycle-accurate execution engines of :meth:`HardwareFramework.simulate`.
SIMULATION_ENGINES = ("fast", "pipeline", "compiled")


@dataclass
class EvaluationResult:
    """Everything the hardware-level framework produced for one program."""

    program_name: str
    pipeline_stats: PipelineStats
    gate_report: GateLevelReport
    fpga_report: FPGAResourceReport
    cntfet_performance: PerformanceReport
    fpga_performance: PerformanceReport
    memory_cells_trits: int

    def summary(self) -> str:
        """Multi-line report combining the cycle, gate and system metrics."""
        parts = [
            f"=== {self.program_name} ===",
            self.pipeline_stats.summary(),
            "",
            self.gate_report.summary(),
            "",
            self.fpga_report.summary(),
            "",
            "-- CNTFET implementation --",
            self.cntfet_performance.summary(),
            "",
            "-- FPGA emulation --",
            self.fpga_performance.summary(),
        ]
        return "\n".join(parts)


class HardwareFramework:
    """The hardware-level evaluation framework as one object.

    It runs the cycle-accurate simulator on the given program, analyses the
    ART-9 datapath netlist against the requested technology libraries and
    combines everything through the performance estimator.

    Three interchangeable execution engines back :meth:`simulate`:

    * ``"fast"`` (the default) — the pre-decoded integer engine of
      :mod:`repro.sim.engine`, applying the analytic timing model of
      :mod:`repro.sim.timing` once per straight-line run.  It
      produces bit-identical :class:`PipelineStats` to the stage-by-stage
      simulator (asserted continuously by the differential test suite) at a
      fraction of the cost, which is what makes large workload sweeps viable.
    * ``"pipeline"`` — the structural 5-stage model, kept as the
      independent check on the analytic model.  Its one timed ``run()``
      clocks the five stages each cycle, with the forwarding muxes, the
      HDU and the ID branch decision as sections of one loop and a
      trit-level TALU: the blocks the gate-level analyzer attributes
      against.  A simulator runs once, so each call builds a fresh one.
    * ``"compiled"`` — the superblock code-generating engine of
      :mod:`repro.sim.compiled`: the program is compiled once per machine
      config to specialized Python functions with the same timing model
      fused in, about twice as fast again as ``"fast"`` on loop-heavy
      workloads; its codegen artifacts are shared across worker processes
      through :mod:`repro.cache`.
    """

    def __init__(self, technology: Optional[TechnologyLibrary] = None,
                 fpga_model: Optional[FPGAEmulationModel] = None,
                 engine: str = "fast",
                 machine: Optional[MachineConfig] = None):
        if engine not in SIMULATION_ENGINES:
            raise ValueError(
                f"unknown simulation engine {engine!r}; known: {SIMULATION_ENGINES}"
            )
        self.technology = technology or cntfet_32nm_library()
        self.fpga_model = fpga_model or stratix_v_model()
        self.analyzer = GateLevelAnalyzer()
        self.engine = engine
        #: Microarchitecture description shared by all three engines (a
        #: :class:`MachineConfig`, a built-in config name or ``None`` for
        #: the paper's default machine).
        self.machine = resolve_machine(machine)

    def simulate(self, program: Program, max_cycles: int = 50_000_000,
                 engine: Optional[str] = None,
                 machine: Optional[MachineConfig] = None) -> PipelineStats:
        """Run the cycle-accurate simulation with the selected engine."""
        stats, _, _ = self.simulate_with_state(program, max_cycles=max_cycles,
                                               engine=engine, machine=machine)
        return stats

    def simulate_with_state(self, program: Program, max_cycles: int = 50_000_000,
                            engine: Optional[str] = None,
                            machine: Optional[MachineConfig] = None,
                            timings: Optional[Dict[str, float]] = None
                            ) -> Tuple[PipelineStats, Dict[str, int], Dict[int, int]]:
        """Simulate and return ``(stats, registers, touched memory)``.

        This is the sweep-runner entry point: every engine exposes the same
        architectural snapshot after a run, so job records can carry a
        digest of the final machine state and regression comparisons can
        catch architectural drift, not just cycle drift.  ``machine``
        overrides the framework's configured machine for this call.

        When a ``timings`` dict is passed it is populated with a
        ``codegen_s`` / ``execute_s`` phase breakdown: engine construction
        plus (for the compiled engine) superblock codegen or bundle
        loading, versus the actual run.  Blocks the compiled engine first
        compiles during the run (a JALR target inside a superblock) count
        as codegen too.  The breakdown observes the clock only —
        simulation behaviour is identical with or without it.
        """
        engine = engine or self.engine
        machine = self.machine if machine is None else resolve_machine(machine)
        built = perf_counter()
        if engine == "fast":
            runner = FastEngine(program, machine=machine)
        elif engine == "compiled":
            runner = CompiledEngine(program, machine=machine)
            runner.prepare()
        elif engine == "pipeline":
            runner = PipelineSimulator(program, machine=machine)
        else:
            raise ValueError(
                f"unknown simulation engine {engine!r}; known: {SIMULATION_ENGINES}"
            )
        prepared_s = runner.codegen_s if engine == "compiled" else 0.0
        started = perf_counter()
        if engine == "pipeline":
            stats = runner.run(max_cycles=max_cycles)
        else:
            stats = runner.run_with_stats(max_cycles=max_cycles)
        finished = perf_counter()
        if timings is not None:
            run_codegen_s = (runner.codegen_s - prepared_s
                             if engine == "compiled" else 0.0)
            timings["codegen_s"] = started - built + run_codegen_s
            timings["execute_s"] = finished - started - run_codegen_s
        return stats, runner.register_snapshot(), runner.tdm.contents()

    def analyze_gates(self) -> GateLevelReport:
        """Run the gate-level analyzer for the configured technology."""
        return self.analyzer.analyze(self.technology)

    def analyze_fpga(self) -> FPGAResourceReport:
        """Run the FPGA emulation resource model."""
        return self.fpga_model.estimate()

    def performance_from_cycles(
        self, cycles: int, iterations: int,
        memory_cells: Optional[int] = None,
    ) -> Tuple[PerformanceReport, PerformanceReport]:
        """``(CNTFET, FPGA)`` performance reports from measured cycle counts.

        This is the report-subsystem entry point: sweep records already
        carry the Dhrystone cycle count and iteration count, so the
        Tables IV/V numbers can be regenerated from stored results without
        re-running any simulation.
        """
        estimator = PerformanceEstimator(
            DhrystoneMetrics(cycles=cycles, iterations=iterations))
        return (
            estimator.for_gate_level(self.analyze_gates(),
                                     memory_cells=memory_cells),
            estimator.for_fpga(self.analyze_fpga(), memory_cells=memory_cells),
        )

    def evaluate(self, program: Program, iterations: int = 1,
                 max_cycles: int = 50_000_000) -> EvaluationResult:
        """Full flow: simulate, analyse and estimate for ``program``.

        ``iterations`` is the number of benchmark iterations the program
        executes (used by the Dhrystone-style DMIPS conversion).
        """
        stats = self.simulate(program, max_cycles=max_cycles)
        gate_report = self.analyze_gates()
        fpga_report = self.analyze_fpga()

        dhrystone = DhrystoneMetrics(
            cycles=stats.cycles,
            iterations=iterations,
            instructions=stats.instructions_committed,
        )
        estimator = PerformanceEstimator(dhrystone)
        memory_cells = program.total_memory_trits()
        return EvaluationResult(
            program_name=program.name,
            pipeline_stats=stats,
            gate_report=gate_report,
            fpga_report=fpga_report,
            cntfet_performance=estimator.for_gate_level(gate_report, memory_cells=memory_cells),
            fpga_performance=estimator.for_fpga(fpga_report, memory_cells=memory_cells),
            memory_cells_trits=memory_cells,
        )
