"""Common infrastructure for the benchmark workloads."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.riscv.assembler import assemble_riscv
from repro.riscv.program import RVProgram


def lcg_values(count: int, seed: int = 7, modulus: int = 97) -> List[int]:
    """Deterministic pseudo-random values in ``[0, modulus)``.

    A tiny linear congruential generator keeps the workloads reproducible
    without importing :mod:`random` (the same sequence is embedded in the
    assembly data sections and in the Python reference models).
    """
    values = []
    state = seed
    for _ in range(count):
        state = (state * 48271 + 11) % 2147483647
        values.append(state % modulus)
    return values


@dataclass
class Workload:
    """One benchmark: its RV-32 source, reference results and metadata.

    Attributes
    ----------
    name:
        Short identifier used in tables ("bubble_sort", "dhrystone", ...).
    rv_source:
        RV-32I assembly text, the input of the software-level framework.
    result_base:
        Byte address of the first result word in data memory.
    expected_results:
        The values the result region must hold after a correct run.
    iterations:
        Number of benchmark iterations executed (used by the DMIPS
        calculation for the Dhrystone workload; 1 for the others).
    description:
        One-line description for reports.
    """

    name: str
    rv_source: str
    result_base: int
    expected_results: List[int]
    iterations: int = 1
    description: str = ""
    _rv_program: Optional[RVProgram] = field(default=None, repr=False)

    @property
    def result_count(self) -> int:
        """Number of result words."""
        return len(self.expected_results)

    def rv_program(self) -> RVProgram:
        """Assemble (and cache) the RV-32 program."""
        if self._rv_program is None:
            self._rv_program = assemble_riscv(self.rv_source, name=self.name)
        return self._rv_program


_BUILDERS: Dict[str, Callable[[], Workload]] = {}


def register_workload(name: str):
    """Decorator registering a workload builder under ``name``."""

    def decorator(builder: Callable[[], Workload]):
        _BUILDERS[name] = builder
        return builder

    return decorator


def get_workload(name: str, **params) -> Workload:
    """Build the workload registered under ``name``.

    Keyword ``params`` are forwarded to the workload builder, so callers can
    size a benchmark instance declaratively (e.g. ``get_workload("gemm",
    n=8)`` or ``get_workload("dhrystone", iterations=200)``).  Unknown
    parameters raise ``TypeError`` from the builder itself.
    """
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise KeyError(f"unknown workload {name!r}; known: {sorted(_BUILDERS)}") from None
    return builder(**params)


def all_workloads() -> Dict[str, Workload]:
    """Build every registered workload (name → workload)."""
    return {name: builder() for name, builder in sorted(_BUILDERS.items())}
