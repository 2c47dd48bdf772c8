"""High-level driver for the software-level compiling framework.

:func:`translate_program` runs the complete pass pipeline of Fig. 2 —
instruction mapping, operand conversion (with register renaming), redundancy
checking and final layout — and returns both the executable ART-9
:class:`~repro.isa.program.Program` and a :class:`TranslationReport`
describing what happened (instruction counts after each pass, the register
allocation, memory-cell footprints of the source and the result).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.isa.program import Program
from repro.riscv.program import RVProgram, RV_INSTRUCTION_BITS
from repro.ternary.word import WORD_TRITS
from repro.xlate.ir import TranslationUnit, VirtualRegisterFile
from repro.xlate.layout import RelaxationNeedsScratchError, emit_program
from repro.xlate.mapping import InstructionMapper
from repro.xlate.operands import convert_operands
from repro.xlate.redundancy import remove_redundancies
from repro.xlate.regalloc import RegisterAllocation, RegisterAllocator
from repro.xlate.runtime import append_runtime_helpers

#: Version of the translation pipeline's observable output.  Part of the
#: artifact-cache key for cached translations (:mod:`repro.cache`): bump it
#: whenever a pass change can alter the emitted program or the report
#: numbers, and every stale cached translation stops being addressed.
#: (Workload-side changes need no bump — the cache key also digests the
#: workload's generated RV-32 source.)  v2: ``__t_div`` no longer
#: overflows on dividends past about 4,920.
TRANSLATOR_VERSION = 2


def instruction_expansion_ratio(final_instructions: int,
                                rv_instructions: int) -> float:
    """Ratio of ART-9 instructions to the original RV-32 instructions.

    Shared by :class:`TranslationReport` and the cache-facing
    ``TranslationSummary`` so the two surfaces can never disagree on the
    definition (including the nan-on-empty guard).
    """
    if rv_instructions == 0:
        return float("nan")
    return final_instructions / rv_instructions


def memory_cell_ratio(ternary_memory_trits: int, rv_memory_bits: int) -> float:
    """Ternary memory cells relative to binary memory cells (Fig. 5 metric)."""
    if rv_memory_bits == 0:
        return float("nan")
    return ternary_memory_trits / rv_memory_bits


@dataclass
class TranslationReport:
    """Everything the framework learned while translating one program."""

    source_name: str
    rv_instructions: int
    mapped_instructions: int
    converted_instructions: int
    renamed_instructions: int
    optimized_instructions: int
    final_instructions: int
    helpers_used: tuple
    allocation: RegisterAllocation
    rv_memory_bits: int
    ternary_memory_trits: int
    pass_sizes: Dict[str, int] = field(default_factory=dict)

    @property
    def instruction_expansion(self) -> float:
        """Ratio of ART-9 instructions to the original RV-32 instructions."""
        return instruction_expansion_ratio(self.final_instructions,
                                           self.rv_instructions)

    @property
    def memory_cell_ratio(self) -> float:
        """Ternary memory cells relative to binary memory cells (Fig. 5 metric)."""
        return memory_cell_ratio(self.ternary_memory_trits, self.rv_memory_bits)

    @property
    def memory_saving_percent(self) -> float:
        """Percentage of memory cells saved versus the RV-32I program."""
        return 100.0 * (1.0 - self.memory_cell_ratio)

    def summary(self) -> str:
        """Multi-line human-readable report."""
        lines = [
            f"translation of {self.source_name}",
            f"  RV-32 instructions        : {self.rv_instructions}",
            f"  after instruction mapping : {self.mapped_instructions}",
            f"  after operand conversion  : {self.converted_instructions}",
            f"  after register renaming   : {self.renamed_instructions}",
            f"  after redundancy checking : {self.optimized_instructions}",
            f"  final ART-9 instructions  : {self.final_instructions}",
            f"  instruction expansion     : {self.instruction_expansion:.2f}x",
            f"  runtime helpers           : {', '.join(self.helpers_used) or 'none'}",
            f"  RV-32 memory cells        : {self.rv_memory_bits} bits",
            f"  ART-9 memory cells        : {self.ternary_memory_trits} trits",
            f"  memory cells saved        : {self.memory_saving_percent:.1f}%",
        ]
        return "\n".join(lines)


class TernaryTranslator:
    """The software-level compiling framework, as a reusable object."""

    def __init__(self, optimize: bool = True):
        self.optimize = optimize

    def _rename_and_emit(self, allocator: RegisterAllocator, converted: TranslationUnit):
        """Run renaming, redundancy checking and layout, retrying with scratch
        registers reserved when branch relaxation needs them."""
        for force_scratch in (False, True):
            renamed, allocation = allocator.rewrite(converted, force_scratch=force_scratch)
            optimized = remove_redundancies(renamed) if self.optimize else renamed
            try:
                program = emit_program(optimized, allow_scratch_clobber=allocation.uses_scratch)
            except RelaxationNeedsScratchError:
                continue
            return renamed, allocation, optimized, program
        raise RelaxationNeedsScratchError("relaxation failed even with scratch registers reserved")

    def translate(self, rv_program: RVProgram):
        """Translate ``rv_program``; returns ``(art9_program, report)``."""
        vregs = VirtualRegisterFile()
        mapper = InstructionMapper(vregs)

        mapped = mapper.map_program(rv_program)
        append_runtime_helpers(mapped, vregs)
        mapped_count = mapped.instruction_count()

        converted = convert_operands(mapped, vregs)
        converted_count = converted.instruction_count()

        allocator = RegisterAllocator(vregs)
        renamed, allocation, optimized, program = self._rename_and_emit(allocator, converted)
        renamed_count = renamed.instruction_count()
        optimized_count = optimized.instruction_count()
        program.name = f"{rv_program.name} (ART-9)"

        report = TranslationReport(
            source_name=rv_program.name,
            rv_instructions=len(rv_program.instructions),
            mapped_instructions=mapped_count,
            converted_instructions=converted_count,
            renamed_instructions=renamed_count,
            optimized_instructions=optimized_count,
            final_instructions=len(program.instructions),
            helpers_used=tuple(sorted(mapped.required_helpers)),
            allocation=allocation,
            rv_memory_bits=len(rv_program.instructions) * RV_INSTRUCTION_BITS,
            ternary_memory_trits=len(program.instructions) * WORD_TRITS,
            pass_sizes={
                "mapping": mapped_count,
                "operand_conversion": converted_count,
                "register_renaming": renamed_count,
                "redundancy_checking": optimized_count,
            },
        )
        return program, report


def translate_program(rv_program: RVProgram, optimize: bool = True):
    """Convenience wrapper: translate ``rv_program`` with default settings."""
    return TernaryTranslator(optimize=optimize).translate(rv_program)


def locate_rv_register(report: TranslationReport, rv_register: int):
    """Where the translated program keeps RV register ``rv_register``.

    Returns ``("reg", physical_index)`` or ``("slot", tdm_address)``; used by
    the equivalence tests to compare final architectural state between the
    RV-32 reference run and the translated ART-9 run.
    """
    return report.allocation.locate(rv_register)


def read_rv_register_from_simulator(report: TranslationReport, simulator, rv_register: int) -> int:
    """Read the final value of RV register ``rv_register`` from an ART-9 simulator.

    ``simulator`` may be either the functional or the pipeline simulator;
    both expose ``registers`` (a :class:`TernaryRegisterFile`) and ``tdm``.
    """
    kind, where = locate_rv_register(report, rv_register)
    if kind == "reg":
        return simulator.registers.read_int(where)
    return simulator.tdm.read_int(where)
