"""Table III — processing cycles of the four benchmarks, ART-9 vs PicoRV32.

The paper reports that the pipelined ART-9 core finishes every benchmark in
fewer cycles than the non-pipelined PicoRV32, despite executing more (but
shorter) instructions.  GEMM is the exception in this reproduction: our
software multiply is more expensive than the authors', so PicoRV32's
hardware multiplier wins there.
"""

import pytest

from conftest import PIPELINE_BUDGET, print_table
from repro.baselines import PicoRV32Model, VexRiscvModel
from repro.sim import PipelineSimulator

#: Paper values for reference (ART-9, PicoRV32).
PAPER_CYCLES = {
    "bubble_sort": (2432, 9227),
    "gemm": (10748, 11290),
    "sobel": (7822, 18250),
    "dhrystone": (134200, 186607),
}

#: Workloads where this reproduction preserves the paper's winner.
EXPECT_ART9_WINS = ("bubble_sort", "sobel", "dhrystone")


def _cycles_for(name, workloads, translated):
    program, _ = translated[name]
    stats = PipelineSimulator(program).run(max_cycles=PIPELINE_BUDGET)
    pico = PicoRV32Model().run(workloads[name].rv_program())
    vex = VexRiscvModel().run(workloads[name].rv_program())
    return stats.cycles, pico.cycles, vex.cycles


@pytest.mark.parametrize("name", sorted(PAPER_CYCLES))
def test_table3_cycle_counts(name, workloads, translated, benchmark):
    art9, pico, vex = benchmark(_cycles_for, name, workloads, translated)
    paper_art9, paper_pico = PAPER_CYCLES[name]
    print_table(
        f"Table III — processing cycles ({name})",
        ["core", "measured cycles", "paper cycles"],
        [
            ("ART-9 (this work)", art9, paper_art9),
            ("PicoRV32", pico, paper_pico),
            ("VexRiscv (extra)", vex, "-"),
        ],
    )
    if name in EXPECT_ART9_WINS:
        assert art9 < pico, f"{name}: ART-9 should need fewer cycles than PicoRV32"
    # Sanity: every core actually ran the workload.
    assert art9 > 100 and pico > 100 and vex > 100
