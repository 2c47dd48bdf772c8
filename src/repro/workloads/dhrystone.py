"""Dhrystone-like synthetic integer benchmark.

The original Dhrystone 2.1 cannot run on a 9-trit datapath (it needs 32-bit
integers, C strings and a libc), so this workload keeps Dhrystone's
*statement mix* at a scale the ART-9 core can execute: every iteration
performs

* global variable updates (``Int_Glob`` / ``Bool_Glob`` stand-ins),
* a record assignment through a helper procedure (``proc_copy``),
* a call chain with stack save/restore and a nested call
  (``func_max`` calling ``func_inc``),
* array element updates with a data-dependent conditional (``proc_array``),
* and loop-carried index arithmetic with wrap-around.

The per-iteration cycle count of this kernel is what the performance
estimator converts into DMIPS/MHz and DMIPS/W for Tables II, IV and V.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.workloads.base import Workload, register_workload

#: Number of benchmark iterations executed by the default build.
DEFAULT_ITERATIONS = 50

#: Data-memory byte addresses of the benchmark's globals.
RESULT_BASE = 0
INT_GLOB_ADDR = 16
BOOL_GLOB_ADDR = 20
ARR1_ADDR = 24
REC_A_ADDR = 88
REC_B_ADDR = 104

#: Length of the global array.
ARR1_LENGTH = 16
#: Wrap-around limit of the array index walked by the benchmark.
INDEX_WRAP = 14


def _reference(iterations: int) -> Tuple[List[int], dict]:
    """Pure-Python model of the kernel; returns (results, final state)."""
    int_glob = 0
    bool_glob = 0
    arr1 = [0] * ARR1_LENGTH
    rec_a = [0] * 4
    rec_b = [0] * 4
    index = 0

    for i in range(1, iterations + 1):
        int_glob = 5
        bool_glob = 0
        rec_a = [i, i + 1, 40 + i, 7]
        rec_b = list(rec_a)
        incremented = i + 1                     # func_inc
        maximum = max(incremented, i + 3)       # func_max
        int_glob += maximum
        arr1[index] = int_glob + index          # proc_array
        arr1[index + 1] = arr1[index] + 2
        if arr1[index + 1] > 50:
            bool_glob = 1
        index = index + 1 if index + 1 < INDEX_WRAP else 0

    results = [int_glob, arr1[3], rec_b[2], bool_glob]
    state = {
        "int_glob": int_glob, "bool_glob": bool_glob,
        "arr1": arr1, "rec_a": rec_a, "rec_b": rec_b, "index": index,
    }
    return results, state


def _source(iterations: int) -> str:
    arr_zeros = ", ".join("0" for _ in range(ARR1_LENGTH))
    return f"""
# Dhrystone-like synthetic integer benchmark, {iterations} iterations.
.text
main:
    li   sp, 8000
    li   s0, 1               # iteration counter
    li   s1, 0               # walking array index
main_loop:
    # --- global updates (Proc_5 style) ---
    la   t0, int_glob
    li   t1, 5
    sw   t1, 0(t0)
    la   t0, bool_glob
    sw   zero, 0(t0)
    # --- record initialisation and assignment (Proc_1 style) ---
    la   t0, rec_a
    sw   s0, 0(t0)
    addi t1, s0, 1
    sw   t1, 4(t0)
    addi t1, s0, 40
    sw   t1, 8(t0)
    li   t1, 7
    sw   t1, 12(t0)
    la   a0, rec_b
    la   a1, rec_a
    jal  ra, proc_copy
    # --- call chain with nested call (Func_1/Func_2 style) ---
    mv   a0, s0
    addi a1, s0, 3
    jal  ra, func_max
    la   t0, int_glob
    lw   t1, 0(t0)
    add  t1, t1, a0
    sw   t1, 0(t0)
    # --- array update with conditional (Proc_8 style) ---
    mv   a0, s1
    jal  ra, proc_array
    # --- walking index with wrap-around ---
    addi s1, s1, 1
    li   t1, {INDEX_WRAP}
    blt  s1, t1, no_wrap
    li   s1, 0
no_wrap:
    addi s0, s0, 1
    li   t1, {iterations + 1}
    blt  s0, t1, main_loop

    # --- publish the results ---
    la   t0, int_glob
    lw   t1, 0(t0)
    la   t0, result
    sw   t1, 0(t0)
    la   t1, arr1
    lw   t1, 12(t1)
    sw   t1, 4(t0)
    la   t1, rec_b
    lw   t1, 8(t1)
    sw   t1, 8(t0)
    la   t1, bool_glob
    lw   t1, 0(t1)
    sw   t1, 12(t0)
    ecall

proc_copy:
    # copy the four-word record at a1 into a0
    lw   t0, 0(a1)
    sw   t0, 0(a0)
    lw   t0, 4(a1)
    sw   t0, 4(a0)
    lw   t0, 8(a1)
    sw   t0, 8(a0)
    lw   t0, 12(a1)
    sw   t0, 12(a0)
    ret

func_max:
    # a0 = max(func_inc(a0), a1)
    addi sp, sp, -8
    sw   ra, 0(sp)
    sw   a1, 4(sp)
    jal  ra, func_inc
    lw   a1, 4(sp)
    bge  a0, a1, func_max_done
    mv   a0, a1
func_max_done:
    lw   ra, 0(sp)
    addi sp, sp, 8
    ret

func_inc:
    addi a0, a0, 1
    ret

proc_array:
    # arr1[a0] = int_glob + a0; arr1[a0+1] = arr1[a0] + 2;
    # bool_glob = 1 when the new element exceeds 50
    la   t0, arr1
    slli t1, a0, 2
    add  t0, t0, t1
    la   t2, int_glob
    lw   t2, 0(t2)
    add  t2, t2, a0
    sw   t2, 0(t0)
    addi t2, t2, 2
    sw   t2, 4(t0)
    li   t1, 50
    ble  t2, t1, proc_array_done
    la   t1, bool_glob
    li   t2, 1
    sw   t2, 0(t1)
proc_array_done:
    ret

.data
result:    .word 0, 0, 0, 0
int_glob:  .word 0
bool_glob: .word 0
arr1:      .word {arr_zeros}
rec_a:     .word 0, 0, 0, 0
rec_b:     .word 0, 0, 0, 0
"""


@register_workload("dhrystone")
def build_dhrystone(iterations: int = DEFAULT_ITERATIONS) -> Workload:
    """Build the Dhrystone-like workload (``iterations`` main-loop passes)."""
    results, _ = _reference(iterations)
    return Workload(
        name="dhrystone",
        rv_source=_source(iterations),
        result_base=RESULT_BASE,
        expected_results=results,
        iterations=iterations,
        description=f"Dhrystone-like synthetic integer kernel, {iterations} iterations",
    )
