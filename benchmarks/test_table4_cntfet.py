"""Table IV — CNTFET implementation of the ART-9 datapath.

The paper reports 652 standard ternary gates, 42.7 uW at 0.9 V and
3.06e6 DMIPS/W for the 32 nm CNTFET realisation.  This harness runs the
gate-level analyzer on the ART-9 netlist with the CNTFET technology library
and combines it with the Dhrystone cycle counts through the performance
estimator.
"""

import pytest

from conftest import PIPELINE_BUDGET, print_table
from repro.hweval import (
    DhrystoneMetrics,
    GateLevelAnalyzer,
    PerformanceEstimator,
    cntfet_32nm_library,
)
from repro.sim import PipelineSimulator

PAPER = {"voltage": 0.9, "gates": 652, "power_uw": 42.7, "dmips_per_watt": 3.06e6}


def test_table4_cntfet_implementation(workloads, translated, benchmark):
    analyzer = GateLevelAnalyzer()
    library = cntfet_32nm_library()
    gate_report = benchmark(analyzer.analyze, library)

    program, _ = translated["dhrystone"]
    stats = PipelineSimulator(program).run(max_cycles=PIPELINE_BUDGET)
    estimator = PerformanceEstimator(
        DhrystoneMetrics(cycles=stats.cycles, iterations=workloads["dhrystone"].iterations))
    performance = estimator.for_gate_level(gate_report)

    print_table(
        "Table IV — CNTFET ternary-gate implementation",
        ["metric", "measured", "paper"],
        [
            ("supply voltage (V)", gate_report.supply_voltage, PAPER["voltage"]),
            ("total ternary gates", gate_report.total_gates, PAPER["gates"]),
            ("power (uW)", f"{gate_report.total_power_uw:.1f}", PAPER["power_uw"]),
            ("DMIPS/W", f"{performance.dmips_per_watt:.2e}", f"{PAPER['dmips_per_watt']:.2e}"),
        ],
    )

    assert gate_report.supply_voltage == PAPER["voltage"]
    assert abs(gate_report.total_gates - PAPER["gates"]) / PAPER["gates"] < 0.15
    assert abs(gate_report.total_power_uw - PAPER["power_uw"]) / PAPER["power_uw"] < 0.5
    # Order-of-magnitude agreement on the headline efficiency figure.
    assert 1e6 < performance.dmips_per_watt < 1e8
