"""Benchmark workloads used throughout the evaluation (Sec. V-A).

Each workload provides

* the RV-32I assembly source (the input of the software-level framework,
  standing in for compiler output),
* a pure-Python reference model of the computation, and
* the location of the results in data memory, so both the RV-32 baseline
  runs and the translated ART-9 runs can be checked against the reference.

The four workloads mirror the paper: bubble sort, general matrix
multiplication (GEMM), a Sobel edge filter and a Dhrystone-like synthetic
integer benchmark (the original Dhrystone needs 32-bit data and a C string
library; the kernel here keeps its statement mix — record copies, function
calls, conditionals, array traffic — scaled to the 9-trit datapath).
"""

from repro.workloads.base import Workload, all_workloads, get_workload
from repro.workloads.bubble_sort import build_bubble_sort
from repro.workloads.gemm import build_gemm
from repro.workloads.sobel import build_sobel
from repro.workloads.dhrystone import build_dhrystone

__all__ = [
    "Workload",
    "build_bubble_sort",
    "build_gemm",
    "build_sobel",
    "build_dhrystone",
    "all_workloads",
    "get_workload",
]
