"""End-to-end tests of the software-level framework: RV-32 -> ART-9 equivalence.

Every test assembles an RV-32 program, runs it on the RV-32 functional
simulator, translates it, runs the result on both ART-9 simulators and
compares the architectural outcomes (registers located through the
translation report, plus the data memory).
"""

import pytest

from repro.riscv import RVSimulator, assemble_riscv
from repro.sim import FunctionalSimulator, PipelineSimulator
from repro.xlate import translate_program
from repro.xlate.translator import locate_rv_register, read_rv_register_from_simulator


def assert_equivalent(source, check_registers=(10,), check_memory=(), name="test"):
    """Translate ``source`` and compare RV-32 and ART-9 architectural results."""
    rv_program = assemble_riscv(source, name=name)
    rv_sim = RVSimulator(rv_program)
    rv_sim.run()

    art9, report = translate_program(rv_program)
    functional = FunctionalSimulator(art9)
    functional.run(max_instructions=2_000_000)
    pipeline = PipelineSimulator(art9)
    stats = pipeline.run(max_cycles=5_000_000)

    for register in check_registers:
        expected = rv_sim.read_reg(register)
        assert read_rv_register_from_simulator(report, functional, register) == expected
        assert read_rv_register_from_simulator(report, pipeline, register) == expected
    for address in check_memory:
        expected = rv_sim.load_word(address)
        assert functional.tdm.read_int(address) == expected
        assert pipeline.tdm.read_int(address) == expected
    return report, stats


class TestArithmeticEquivalence:
    def test_addition_chain(self):
        assert_equivalent("""
            li a0, 100
            li a1, 250
            add a0, a0, a1
            addi a0, a0, -30
            sub a0, a0, a1
            ecall
        """)

    def test_negative_values(self):
        assert_equivalent("""
            li a0, -1200
            li a1, 345
            add a0, a0, a1
            neg a1, a0
            ecall
        """, check_registers=(10, 11))

    def test_shift_left_by_constant(self):
        assert_equivalent("""
            li a0, 37
            slli a1, a0, 4
            slli a2, a1, 1
            ecall
        """, check_registers=(11, 12))

    def test_shift_right_by_constant_positive(self):
        assert_equivalent("""
            li a0, 1000
            srli a1, a0, 3
            srai a2, a0, 1
            ecall
        """, check_registers=(11, 12))

    def test_multiplication(self):
        assert_equivalent("""
            li a0, 123
            li a1, -45
            mul a2, a0, a1
            mul a3, a1, a1
            ecall
        """, check_registers=(12, 13))

    def test_division_and_remainder(self):
        assert_equivalent("""
            li a0, 1234
            li a1, 7
            div a2, a0, a1
            rem a3, a0, a1
            li a4, -100
            div a5, a4, a1
            rem a6, a4, a1
            ecall
        """, check_registers=(12, 13, 15, 16))

    def test_division_table_at_the_edges_of_the_word(self):
        """div and rem over dividends up to the 9-trit limit (+-9841).

        The runtime helper once doubled the divisor past the word range:
        7056 div 84 gave 552, and a dividend of 9841 never halted.
        """
        dividends = (9841, -9841, 9840, -9840, 5200, -5200)
        divisors = (1, -1, 2, -2, 3, -3, 20, 84, -84, 9841, -9841, 0)
        pairs = [(a, b) for a in dividends for b in divisors]
        table = ", ".join(f"{a}, {b}" for a, b in pairs)
        # results[2k], results[2k+1] = div, rem of pair k
        assert_equivalent(f"""
            la   t0, table
            la   t1, results
            li   t2, {len(pairs)}
        loop:
            lw   a0, 0(t0)
            lw   a1, 4(t0)
            div  a2, a0, a1
            rem  a3, a0, a1
            sw   a2, 0(t1)
            sw   a3, 4(t1)
            addi t0, t0, 8
            addi t1, t1, 8
            addi t2, t2, -1
            bnez t2, loop
            ecall
        .data
        results: .zero {2 * len(pairs)}
        table: .word {table}
        """, check_registers=(), check_memory=tuple(range(0, 8 * len(pairs), 4)))

    def test_set_less_than(self):
        assert_equivalent("""
            li a0, 5
            li a1, 9
            slt a2, a0, a1
            slt a3, a1, a0
            slti a4, a0, 5
            ecall
        """, check_registers=(12, 13, 14))


class TestControlFlowEquivalence:
    def test_counting_loop(self):
        assert_equivalent("""
            li a0, 0
            li t0, 1
        loop:
            add a0, a0, t0
            addi t0, t0, 1
            li t1, 30
            ble t0, t1, loop
            ecall
        """)

    def test_nested_branches(self):
        assert_equivalent("""
            li a0, 0
            li t0, -5
        loop:
            bgez t0, positive
            sub a0, a0, t0
            j next
        positive:
            add a0, a0, t0
        next:
            addi t0, t0, 1
            li t1, 5
            blt t0, t1, loop
            ecall
        """)

    def test_function_call_with_stack_frame(self):
        assert_equivalent("""
            li   a0, 6
            jal  ra, triangular
            ecall
        triangular:
            addi sp, sp, -8
            sw   ra, 0(sp)
            sw   a0, 4(sp)
            li   a1, 0
            li   a2, 1
        tri_loop:
            add  a1, a1, a2
            addi a2, a2, 1
            ble  a2, a0, tri_loop
            mv   a0, a1
            lw   ra, 0(sp)
            addi sp, sp, 8
            ret
        """)

    def test_memory_traffic(self):
        assert_equivalent("""
            la   t0, buffer
            li   t1, 0
            li   t2, 11
        fill:
            slli t3, t1, 2
            add  t3, t3, t0
            sw   t1, 0(t3)
            addi t1, t1, 1
            blt  t1, t2, fill
            lw   a0, 20(t0)
            ecall
        .data
        buffer: .zero 12
        """, check_memory=tuple(range(0, 48, 4)))


class TestTranslationReport:
    def test_report_counts_are_consistent(self):
        report, _ = assert_equivalent("""
            li a0, 3
            li a1, 4
            mul a2, a0, a1
            ecall
        """, check_registers=(12,))
        assert report.final_instructions == report.pass_sizes["redundancy_checking"] or \
            report.final_instructions >= report.optimized_instructions
        assert report.helpers_used == ("mul",)
        assert report.rv_instructions == 4
        assert report.instruction_expansion > 1.0
        assert "translation of" in report.summary()

    def test_redundancy_pass_never_grows_code(self):
        report, _ = assert_equivalent("li a0, 700\nadd a0, a0, a0\necall")
        assert report.optimized_instructions <= report.renamed_instructions

    def test_locate_reports_register_or_slot(self):
        report, _ = assert_equivalent("li a0, 1\necall")
        kind, where = locate_rv_register(report, 10)
        assert kind in ("reg", "slot")

    def test_unoptimized_translation_still_correct(self):
        rv_program = assemble_riscv("li a0, 55\nadd a0, a0, a0\necall")
        rv_sim = RVSimulator(rv_program)
        rv_sim.run()
        art9, report = translate_program(rv_program, optimize=False)
        sim = FunctionalSimulator(art9)
        sim.run()
        assert read_rv_register_from_simulator(report, sim, 10) == 110
