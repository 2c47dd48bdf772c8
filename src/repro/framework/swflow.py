"""Software-level framework facade: RV-32 sources in, ART-9 programs out."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from repro.cache import default_cache
from repro.obs import trace
from repro.isa.assembler import assemble
from repro.isa.program import Program
from repro.riscv.assembler import assemble_riscv
from repro.riscv.program import RVProgram
from repro.workloads.base import Workload, get_workload
from repro.xlate.translator import (
    TRANSLATOR_VERSION,
    TernaryTranslator,
    TranslationReport,
    instruction_expansion_ratio,
    memory_cell_ratio,
)

#: Pure-data key identifying one compiled workload instance.
WorkloadKey = Tuple[str, Tuple[Tuple[str, object], ...]]


def frozen_params(params: Optional[Mapping[str, object]] = None
                  ) -> Tuple[Tuple[str, object], ...]:
    """Canonical hashable form of a workload-parameter mapping.

    This is the single canonicalizer shared by the compile cache below and
    the sweep runner's content-addressed job identities
    (:mod:`repro.runner.spec`); keeping one definition keeps the
    translate-once-per-worker cache key and the job IDs in agreement.
    """
    return tuple(sorted((params or {}).items()))


def workload_key(name: str, params: Optional[Mapping[str, object]] = None) -> WorkloadKey:
    """Canonical hashable identity of a (workload, params) pair."""
    return name, frozen_params(params)


@dataclass(frozen=True)
class TranslationSummary:
    """The numeric slice of a :class:`TranslationReport` that survives the
    artifact cache.

    Sweep records only consume the counters below (plus the two derived
    ratios), so a cached translation does not need to resurrect the full
    report object — in particular the register allocation, which is an
    artifact of *running* the allocator, not data worth shipping between
    processes.  The property names match ``TranslationReport`` exactly, so
    the two are drop-in interchangeable for record building.
    """

    source_name: str
    rv_instructions: int
    final_instructions: int
    rv_memory_bits: int
    ternary_memory_trits: int
    helpers_used: Tuple[str, ...] = ()

    @property
    def instruction_expansion(self) -> float:
        """Ratio of ART-9 instructions to the original RV-32 instructions."""
        return instruction_expansion_ratio(self.final_instructions,
                                           self.rv_instructions)

    @property
    def memory_cell_ratio(self) -> float:
        """Ternary memory cells relative to binary memory cells (Fig. 5 metric)."""
        return memory_cell_ratio(self.ternary_memory_trits, self.rv_memory_bits)

    @classmethod
    def from_report(cls, report: TranslationReport) -> "TranslationSummary":
        return cls(
            source_name=report.source_name,
            rv_instructions=report.rv_instructions,
            final_instructions=report.final_instructions,
            rv_memory_bits=report.rv_memory_bits,
            ternary_memory_trits=report.ternary_memory_trits,
            helpers_used=tuple(report.helpers_used),
        )

    def to_dict(self) -> dict:
        return {
            "source_name": self.source_name,
            "rv_instructions": self.rv_instructions,
            "final_instructions": self.final_instructions,
            "rv_memory_bits": self.rv_memory_bits,
            "ternary_memory_trits": self.ternary_memory_trits,
            "helpers_used": list(self.helpers_used),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "TranslationSummary":
        return cls(
            source_name=str(data["source_name"]),
            rv_instructions=int(data["rv_instructions"]),
            final_instructions=int(data["final_instructions"]),
            rv_memory_bits=int(data["rv_memory_bits"]),
            ternary_memory_trits=int(data["ternary_memory_trits"]),
            helpers_used=tuple(str(h) for h in data.get("helpers_used", ())),
        )


class SoftwareFramework:
    """The software-level compiling framework as one object.

    The three entry points correspond to the three kinds of input a user has:

    * ``compile_riscv_assembly`` — RV-32I assembly text (what a binary
      compiler tool chain emits);
    * ``compile_workload`` — one of the bundled benchmark workloads;
    * ``assemble_ternary`` — native ART-9 assembly, bypassing translation
      (useful for hand-written ternary kernels and for tests).

    ``compile_named_workload`` is the sweep-oriented fourth entry point: it
    accepts a pure-data workload description (registry name plus builder
    parameters) and memoises the assembled/translated result, so a
    long-lived framework instance — e.g. one per sweep worker process —
    translates each distinct workload instance exactly once no matter how
    many engine/grid jobs reference it.
    """

    def __init__(self, optimize: bool = True):
        self.optimize = optimize
        self.translator = TernaryTranslator(optimize=optimize)
        self._workload_cache: Dict[
            WorkloadKey, Tuple[Program, TranslationReport, Workload]] = {}
        self._summary_cache: Dict[
            WorkloadKey, Tuple[Program, TranslationSummary, Workload]] = {}
        #: Provenance of the most recent ``compile_named_workload_cached``
        #: result: ``"memo"`` (in-process), ``"cache"`` (artifact cache),
        #: or ``"built"`` (translated from scratch).  Sweep workers read
        #: this to stamp a ``cache_hit`` flag on their records.
        self.last_compile_source: Optional[str] = None

    def compile_riscv_assembly(self, source: str, name: str = "program"
                               ) -> Tuple[Program, TranslationReport]:
        """Assemble RV-32 ``source`` and translate it to an ART-9 program."""
        rv_program = assemble_riscv(source, name=name)
        return self.translator.translate(rv_program)

    def compile_riscv_program(self, rv_program: RVProgram
                              ) -> Tuple[Program, TranslationReport]:
        """Translate an already-assembled RV-32 program."""
        return self.translator.translate(rv_program)

    def compile_workload(self, workload: Workload) -> Tuple[Program, TranslationReport]:
        """Translate one of the bundled benchmark workloads."""
        return self.translator.translate(workload.rv_program())

    def compile_named_workload(
        self, name: str, params: Optional[Mapping[str, object]] = None,
    ) -> Tuple[Program, TranslationReport, Workload]:
        """Build and translate a registered workload from pure data, cached.

        ``name`` is a workload registry name and ``params`` the keyword
        arguments of its builder (both picklable, so jobs referencing them
        can cross process boundaries).  Repeated calls with the same
        identity return the cached (program, report, workload) triple.
        """
        key = workload_key(name, params)
        cached = self._workload_cache.get(key)
        if cached is None:
            workload = get_workload(name, **dict(params or {}))
            program, report = self.translator.translate(workload.rv_program())
            cached = (program, report, workload)
            self._workload_cache[key] = cached
        return cached

    def compile_named_workload_cached(
        self, name: str, params: Optional[Mapping[str, object]] = None,
        cache: object = "default",
    ) -> Tuple[Program, TranslationSummary, Workload]:
        """Cache-assisted :meth:`compile_named_workload` for sweep workers.

        Consults the cross-process artifact cache (:mod:`repro.cache`)
        before translating: the key is (workload, params, a digest of the
        workload's generated RV-32 source, optimize,
        :data:`TRANSLATOR_VERSION`), the payload the serialised program
        plus its :class:`TranslationSummary`.  A whole worker fleet on one
        cache therefore translates each grid point exactly once — the
        first worker to reach it pays, everyone else deserialises.
        Digesting the RV source means editing a workload *builder*
        invalidates its entries automatically; only translation-pass
        changes need a ``TRANSLATOR_VERSION`` bump.

        ``cache`` accepts an explicit :class:`ArtifactCache`, ``None``
        (bypass the disk entirely), or the default marker.
        """
        if cache == "default":
            cache = default_cache()
        key = workload_key(name, params)
        memo = self._summary_cache.get(key)
        if memo is not None:
            self.last_compile_source = "memo"
            return memo
        workload = get_workload(name, **dict(params or {}))
        key_material = {
            "workload": name,
            "params": [[param, value] for param, value in key[1]],
            "rv_source_sha256": hashlib.sha256(
                workload.rv_source.encode("utf-8")).hexdigest(),
            "optimize": self.optimize,
            "translator_version": TRANSLATOR_VERSION,
        }
        if cache is not None:
            hit = cache.get_json("xlate", key_material)
            if hit is not None:
                try:
                    resolved = (
                        Program.from_dict(hit["program"]),
                        TranslationSummary.from_dict(hit["summary"]),
                        workload,
                    )
                except (KeyError, TypeError, ValueError):
                    resolved = None  # malformed artifact: fall through
                if resolved is not None:
                    self._summary_cache[key] = resolved
                    self.last_compile_source = "cache"
                    return resolved
        with trace.span("xlate", workload=name):
            program, report, workload = self.compile_named_workload(name, params)
        summary = TranslationSummary.from_report(report)
        if cache is not None:
            cache.put_json("xlate", key_material, {
                "program": program.to_dict(),
                "summary": summary.to_dict(),
            })
        resolved = (program, summary, workload)
        self._summary_cache[key] = resolved
        self.last_compile_source = "built"
        return resolved

    @staticmethod
    def assemble_ternary(source: str, name: str = "program") -> Program:
        """Assemble native ART-9 assembly text (no translation involved)."""
        return assemble(source, name=name)
