"""ART-9 instruction definitions (Table I of the paper).

Every instruction is described by an :class:`InstructionSpec` that records
its category (R/I/B/M/SYS), the operand fields it uses, the width of its
immediate field (in trits) and a short description of its operation.  The
:class:`Instruction` dataclass is the in-memory representation used by the
assembler, the translation framework and both simulators; the trit-level
encoding lives in :mod:`repro.isa.formats`.

The 24 instructions of Table I are all present.  One extension, ``HALT``, is
added by the evaluation framework to terminate simulation runs; it is not
counted as part of the 24-instruction ISA when reproducing Table II.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.isa.registers import register_name

# Instruction categories, matching the "Type" column of Table I.
R_TYPE = "R"
I_TYPE = "I"
B_TYPE = "B"
M_TYPE = "M"
SYS_TYPE = "SYS"


@dataclass(frozen=True)
class InstructionSpec:
    """Static description of one ART-9 instruction.

    Attributes
    ----------
    mnemonic:
        Upper-case assembly mnemonic (``ADD``, ``BEQ``, ...).
    category:
        One of ``R``, ``I``, ``B``, ``M`` or ``SYS``.
    operands:
        Tuple naming the operand fields in assembly order.  Entries are
        ``"ta"``, ``"tb"``, ``"imm"`` or ``"branch_trit"``.
    imm_trits:
        Width of the immediate field in trits (0 when there is none).
    reads_ta / reads_tb / writes_ta:
        Register-file dataflow, used by the hazard detection unit, the
        forwarding logic and the redundancy checker.
    is_branch / is_jump / is_load / is_store:
        Control/memory classification used by the pipeline model.
    description:
        The "Operation" column of Table I, for documentation and tracing.
    """

    mnemonic: str
    category: str
    operands: Tuple[str, ...]
    imm_trits: int = 0
    reads_ta: bool = False
    reads_tb: bool = False
    writes_ta: bool = False
    is_branch: bool = False
    is_jump: bool = False
    is_load: bool = False
    is_store: bool = False
    description: str = ""

    @property
    def is_control(self) -> bool:
        """True for instructions that may redirect the program counter."""
        return self.is_branch or self.is_jump


def _spec(mnemonic, category, operands, **kwargs) -> InstructionSpec:
    return InstructionSpec(mnemonic=mnemonic, category=category, operands=tuple(operands), **kwargs)


#: The complete instruction registry, keyed by mnemonic.
INSTRUCTION_SPECS: Dict[str, InstructionSpec] = {}


def _register(spec: InstructionSpec) -> InstructionSpec:
    INSTRUCTION_SPECS[spec.mnemonic] = spec
    return spec


# --- R-type -----------------------------------------------------------------
_register(_spec("MV", R_TYPE, ("ta", "tb"), reads_tb=True, writes_ta=True,
                description="TRF[Ta] = TRF[Tb]"))
_register(_spec("PTI", R_TYPE, ("ta", "tb"), reads_tb=True, writes_ta=True,
                description="TRF[Ta] = PTI(TRF[Tb])"))
_register(_spec("NTI", R_TYPE, ("ta", "tb"), reads_tb=True, writes_ta=True,
                description="TRF[Ta] = NTI(TRF[Tb])"))
_register(_spec("STI", R_TYPE, ("ta", "tb"), reads_tb=True, writes_ta=True,
                description="TRF[Ta] = STI(TRF[Tb])"))
_register(_spec("AND", R_TYPE, ("ta", "tb"), reads_ta=True, reads_tb=True, writes_ta=True,
                description="TRF[Ta] = TRF[Ta] & TRF[Tb]"))
_register(_spec("OR", R_TYPE, ("ta", "tb"), reads_ta=True, reads_tb=True, writes_ta=True,
                description="TRF[Ta] = TRF[Ta] | TRF[Tb]"))
_register(_spec("XOR", R_TYPE, ("ta", "tb"), reads_ta=True, reads_tb=True, writes_ta=True,
                description="TRF[Ta] = TRF[Ta] ^ TRF[Tb]"))
_register(_spec("ADD", R_TYPE, ("ta", "tb"), reads_ta=True, reads_tb=True, writes_ta=True,
                description="TRF[Ta] = TRF[Ta] + TRF[Tb]"))
_register(_spec("SUB", R_TYPE, ("ta", "tb"), reads_ta=True, reads_tb=True, writes_ta=True,
                description="TRF[Ta] = TRF[Ta] - TRF[Tb]"))
_register(_spec("SR", R_TYPE, ("ta", "tb"), reads_ta=True, reads_tb=True, writes_ta=True,
                description="TRF[Ta] = TRF[Ta] >> TRF[Tb][1:0]"))
_register(_spec("SL", R_TYPE, ("ta", "tb"), reads_ta=True, reads_tb=True, writes_ta=True,
                description="TRF[Ta] = TRF[Ta] << TRF[Tb][1:0]"))
_register(_spec("COMP", R_TYPE, ("ta", "tb"), reads_ta=True, reads_tb=True, writes_ta=True,
                description="TRF[Ta] = compare(TRF[Ta], TRF[Tb])"))

# --- I-type -----------------------------------------------------------------
_register(_spec("ANDI", I_TYPE, ("ta", "imm"), imm_trits=3, reads_ta=True, writes_ta=True,
                description="TRF[Ta] = TRF[Ta] & imm[2:0]"))
_register(_spec("ADDI", I_TYPE, ("ta", "imm"), imm_trits=3, reads_ta=True, writes_ta=True,
                description="TRF[Ta] = TRF[Ta] + imm[2:0]"))
_register(_spec("SRI", I_TYPE, ("ta", "imm"), imm_trits=2, reads_ta=True, writes_ta=True,
                description="TRF[Ta] = TRF[Ta] >> imm[1:0]"))
_register(_spec("SLI", I_TYPE, ("ta", "imm"), imm_trits=2, reads_ta=True, writes_ta=True,
                description="TRF[Ta] = TRF[Ta] << imm[1:0]"))
_register(_spec("LUI", I_TYPE, ("ta", "imm"), imm_trits=4, writes_ta=True,
                description="TRF[Ta] = {imm[3:0], 00000}"))
_register(_spec("LI", I_TYPE, ("ta", "imm"), imm_trits=5, reads_ta=True, writes_ta=True,
                description="TRF[Ta] = {TRF[Ta][8:5], imm[4:0]}"))

# --- B-type -----------------------------------------------------------------
_register(_spec("BEQ", B_TYPE, ("tb", "branch_trit", "imm"), imm_trits=4, reads_tb=True,
                is_branch=True,
                description="PC = PC + imm[3:0] if TRF[Tb][0] == B"))
_register(_spec("BNE", B_TYPE, ("tb", "branch_trit", "imm"), imm_trits=4, reads_tb=True,
                is_branch=True,
                description="PC = PC + imm[3:0] if TRF[Tb][0] != B"))
_register(_spec("JAL", B_TYPE, ("ta", "imm"), imm_trits=5, writes_ta=True, is_jump=True,
                description="TRF[Ta] = PC + 1, PC = PC + imm[4:0]"))
_register(_spec("JALR", B_TYPE, ("ta", "tb", "imm"), imm_trits=3, reads_tb=True,
                writes_ta=True, is_jump=True,
                description="TRF[Ta] = PC + 1, PC = TRF[Tb] + imm[2:0]"))

# --- M-type -----------------------------------------------------------------
_register(_spec("LOAD", M_TYPE, ("ta", "tb", "imm"), imm_trits=3, reads_tb=True,
                writes_ta=True, is_load=True,
                description="TRF[Ta] = TDM[TRF[Tb] + imm[2:0]]"))
_register(_spec("STORE", M_TYPE, ("ta", "tb", "imm"), imm_trits=3, reads_ta=True,
                reads_tb=True, is_store=True,
                description="TDM[TRF[Tb] + imm[2:0]] = TRF[Ta]"))

# --- Framework extension ------------------------------------------------------
_register(_spec("HALT", SYS_TYPE, (),
                description="Stop simulation (framework extension, not part of the 24-instruction ISA)"))

#: Mnemonics of the 24 architecturally defined instructions (Table I).
ARCHITECTURAL_MNEMONICS = tuple(
    m for m, s in INSTRUCTION_SPECS.items() if s.category != SYS_TYPE
)

#: All mnemonics understood by the tool chain, including extensions.
ALL_MNEMONICS = tuple(INSTRUCTION_SPECS)


def spec_for(mnemonic: str) -> InstructionSpec:
    """Look up the :class:`InstructionSpec` for ``mnemonic`` (case-insensitive)."""
    try:
        return INSTRUCTION_SPECS[mnemonic.upper()]
    except KeyError:
        raise ValueError(f"unknown ART-9 instruction: {mnemonic!r}") from None


@dataclass
class Instruction:
    """One ART-9 instruction instance.

    ``ta`` and ``tb`` are register indices 0..8, ``imm`` is a signed balanced
    immediate that must fit the spec's ``imm_trits`` field, ``branch_trit``
    is the 1-trit comparison constant B of the BEQ/BNE instructions.

    ``label`` optionally names a symbolic branch/jump target; the assembler
    and the translation framework resolve labels to concrete immediates
    before encoding.  ``source`` carries provenance (e.g. the original
    RV-32I instruction) for traceability through the translation passes.
    """

    mnemonic: str
    ta: Optional[int] = None
    tb: Optional[int] = None
    imm: Optional[int] = None
    branch_trit: Optional[int] = None
    label: Optional[str] = None
    source: Optional[str] = None

    def __post_init__(self):
        self.mnemonic = self.mnemonic.upper()
        self.spec  # validates the mnemonic

    @property
    def spec(self) -> InstructionSpec:
        """The static spec of this instruction's mnemonic."""
        return spec_for(self.mnemonic)

    # -- dataflow helpers (used by HDU / forwarding / redundancy passes) ----

    def destination(self) -> Optional[int]:
        """Register index written by this instruction, or None."""
        return self.ta if self.spec.writes_ta else None

    def sources(self) -> Tuple[int, ...]:
        """Register indices read by this instruction."""
        spec = self.spec
        sources = []
        if spec.reads_ta and self.ta is not None:
            sources.append(self.ta)
        if spec.reads_tb and self.tb is not None:
            sources.append(self.tb)
        return tuple(sources)

    @classmethod
    def nop(cls) -> "Instruction":
        """The canonical NOP: an ADDI with a zero-valued immediate."""
        return cls("ADDI", ta=0, imm=0)

    # -- rendering ----------------------------------------------------------

    def render(self) -> str:
        """Render back to assembly text."""
        spec = self.spec
        parts = []
        for operand in spec.operands:
            if operand == "ta":
                parts.append(register_name(self.ta))
            elif operand == "tb":
                parts.append(register_name(self.tb))
            elif operand == "branch_trit":
                parts.append(str(self.branch_trit))
            elif operand == "imm":
                if self.label is not None:
                    parts.append(self.label)
                else:
                    parts.append(str(self.imm))
        if parts:
            return f"{self.mnemonic} " + ", ".join(parts)
        return self.mnemonic

    def __str__(self) -> str:
        return self.render()

    def copy(self, **overrides) -> "Instruction":
        """Return a copy with selected fields replaced."""
        values = dict(
            mnemonic=self.mnemonic,
            ta=self.ta,
            tb=self.tb,
            imm=self.imm,
            branch_trit=self.branch_trit,
            label=self.label,
            source=self.source,
        )
        values.update(overrides)
        return Instruction(**values)
