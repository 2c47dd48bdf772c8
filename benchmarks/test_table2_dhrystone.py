"""Table II — Dhrystone comparison of ART-9, VexRiscv and PicoRV32.

The paper reports DMIPS/MHz and program memory cells for the three cores
running Dhrystone.  The absolute DMIPS figures of this reproduction are
higher than the paper's because the Dhrystone-like kernel iteration is
smaller than a genuine Dhrystone iteration, but the ordering
— VexRiscv fastest per MHz, ART-9 in the middle, PicoRV32 last — and the
memory-cell advantage of the ternary ISA are the reproduced claims.
"""

import pytest

from conftest import print_table
from repro.baselines import PicoRV32Model, VexRiscvModel
from repro.hweval import DhrystoneMetrics


def _dmips_per_mhz(cycles, iterations):
    return DhrystoneMetrics(cycles=cycles, iterations=iterations).dmips_per_mhz


def test_table2_dhrystone_comparison(workloads, translated, hardware_framework, benchmark):
    workload = workloads["dhrystone"]
    program, report = translated["dhrystone"]

    stats = benchmark(hardware_framework.simulate, program)
    pico = PicoRV32Model().run(workload.rv_program())
    vex = VexRiscvModel().run(workload.rv_program())

    art9_dmips = _dmips_per_mhz(stats.cycles, workload.iterations)
    vex_dmips = _dmips_per_mhz(vex.cycles, workload.iterations)
    pico_dmips = _dmips_per_mhz(pico.cycles, workload.iterations)

    rows = [
        ("ART-9 (this work)", 24, 5, "no", f"{art9_dmips:.2f}",
         f"{report.ternary_memory_trits} trits"),
        ("VexRiscv", 40, 5, "yes", f"{vex_dmips:.2f}",
         f"{workload.rv_program().instruction_memory_bits()} bits"),
        ("PicoRV32", 48, 1, "yes", f"{pico_dmips:.2f}",
         f"{workload.rv_program().instruction_memory_bits()} bits"),
    ]
    print_table(
        "Table II — Dhrystone simulation results",
        ["core", "# instructions", "stages", "multiplier", "DMIPS/MHz", "memory cells"],
        rows,
    )

    # Reproduced ordering (paper: 0.65 > 0.42 > 0.31 DMIPS/MHz).
    assert vex_dmips > art9_dmips > pico_dmips
    # Reproduced memory claim: fewer ternary cells than RV-32I bits.
    assert report.ternary_memory_trits < workload.rv_program().instruction_memory_bits()
