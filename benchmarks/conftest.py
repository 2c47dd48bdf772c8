"""Shared fixtures for the table/figure reproduction benchmarks."""

import pytest

from repro.framework import HardwareFramework, SoftwareFramework
from repro.workloads import all_workloads

#: Cycle budget for a paper workload on the structural pipeline.  Every
#: default-size workload takes at most 14,007 cycles on any built-in
#: machine, so a fault that makes one loop fails in well under a second
#: instead of spinning out the 50,000,000-cycle default.
PIPELINE_BUDGET = 100_000


@pytest.fixture(scope="session")
def software_framework():
    return SoftwareFramework()


@pytest.fixture(scope="session")
def hardware_framework():
    return HardwareFramework()


@pytest.fixture(scope="session")
def workloads():
    """All four paper workloads, built once per session."""
    return all_workloads()


@pytest.fixture(scope="session")
def translated(workloads, software_framework):
    """name -> (art9_program, translation_report) for every workload."""
    return {
        name: software_framework.compile_workload(workload)
        for name, workload in workloads.items()
    }


def print_table(title, headers, rows):
    """Render a small aligned comparison table to stdout (visible with -s)."""
    widths = [max(len(str(cell)) for cell in column) for column in zip(headers, *rows)]
    lines = [title, "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)))
    print("\n" + "\n".join(lines))
