"""Table V — FPGA (binary-encoded) implementation of the ART-9 core.

The paper reports 803 ALMs, 339 registers, 9,216 RAM bits, 1.09 W at 150 MHz
and 57.8 DMIPS/W on an Intel Stratix-V.  This harness runs the FPGA resource
model on the same netlist and converts the Dhrystone cycle counts into
DMIPS/W at the 150 MHz operating point.
"""

import pytest

from conftest import PIPELINE_BUDGET, print_table
from repro.hweval import DhrystoneMetrics, PerformanceEstimator, stratix_v_model
from repro.sim import PipelineSimulator

PAPER = {
    "voltage": 0.9, "frequency_mhz": 150, "alms": 803, "registers": 339,
    "ram_bits": 9216, "power_w": 1.09, "dmips_per_watt": 57.8,
}


def test_table5_fpga_implementation(workloads, translated, benchmark):
    model = stratix_v_model()
    fpga_report = benchmark(model.estimate)

    program, _ = translated["dhrystone"]
    stats = PipelineSimulator(program).run(max_cycles=PIPELINE_BUDGET)
    estimator = PerformanceEstimator(
        DhrystoneMetrics(cycles=stats.cycles, iterations=workloads["dhrystone"].iterations))
    performance = estimator.for_fpga(fpga_report)

    print_table(
        "Table V — FPGA-based ternary-logic emulation",
        ["metric", "measured", "paper"],
        [
            ("frequency (MHz)", fpga_report.frequency_mhz, PAPER["frequency_mhz"]),
            ("ALMs", fpga_report.alms, PAPER["alms"]),
            ("registers", fpga_report.registers, PAPER["registers"]),
            ("RAM bits", fpga_report.ram_bits, PAPER["ram_bits"]),
            ("power (W)", f"{fpga_report.total_power_w:.2f}", PAPER["power_w"]),
            ("DMIPS/W", f"{performance.dmips_per_watt:.1f}", PAPER["dmips_per_watt"]),
        ],
    )

    assert fpga_report.frequency_mhz == PAPER["frequency_mhz"]
    assert abs(fpga_report.alms - PAPER["alms"]) / PAPER["alms"] < 0.15
    assert abs(fpga_report.registers - PAPER["registers"]) / PAPER["registers"] < 0.15
    assert fpga_report.ram_bits == PAPER["ram_bits"]
    assert abs(fpga_report.total_power_w - PAPER["power_w"]) / PAPER["power_w"] < 0.25
    # The efficiency stays in the tens of DMIPS/W (paper: 57.8).
    assert 10 < performance.dmips_per_watt < 1000
