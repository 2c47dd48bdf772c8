"""Differential test of the translation path: RV-32I vs translated ART-9.

For every bundled workload, the RV-32I program runs on the RISC-V functional
simulator and its translation runs on the ART-9 fast engine; both must agree
on every word of the workload's declared output region (and both must match
the workload's golden expected results).  The translator keeps RV byte
addresses, so result word ``i`` lives at RV address ``result_base + 4*i``
and at the same TDM address on the ternary side.
"""

import pytest

from repro.framework import SoftwareFramework
from repro.riscv.simulator import RVSimulator
from repro.sim import FastEngine
from repro.workloads import all_workloads


@pytest.fixture(scope="module")
def software_framework():
    return SoftwareFramework()


@pytest.mark.parametrize("name", ["bubble_sort", "gemm", "sobel", "dhrystone"])
def test_riscv_and_fast_engine_agree_on_output_locations(name, software_framework):
    workload = all_workloads()[name]

    rv_simulator = RVSimulator(workload.rv_program())
    rv_simulator.run()
    rv_outputs = rv_simulator.memory_words(workload.result_base, workload.result_count)

    program, _ = software_framework.compile_workload(workload)
    engine = FastEngine(program)
    engine.run()
    art9_outputs = [
        engine.tdm.read_int(workload.result_base + 4 * index)
        for index in range(workload.result_count)
    ]

    assert art9_outputs == rv_outputs, (
        f"{name}: translated program diverges from the RV-32I reference "
        f"at {workload.result_count} declared output words"
    )
    assert art9_outputs == workload.expected_results


@pytest.mark.parametrize("name", ["bubble_sort", "sobel"])
def test_translation_without_optimization_also_agrees(name):
    """The redundancy-elimination pass must not be load-bearing for correctness."""
    workload = all_workloads()[name]
    program, _ = SoftwareFramework(optimize=False).compile_workload(workload)
    engine = FastEngine(program)
    engine.run()
    assert [engine.tdm.read_int(workload.result_base + 4 * index)
            for index in range(workload.result_count)] == \
        workload.expected_results
