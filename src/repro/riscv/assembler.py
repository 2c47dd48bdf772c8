"""Two-pass assembler for RV-32I (+M) assembly text.

The accepted syntax is the conventional GNU-style one emitted by RISC-V
compilers, restricted to the instructions in :mod:`repro.riscv.isa`:

::

    .text
    main:
        addi  sp, sp, -16
        li    a0, 1200          # pseudo-instruction, expands as needed
        lw    a1, 0(a2)
        beq   a0, a1, done
        jal   ra, helper
        ecall
    .data
    array:  .word 5, -3, 8
    buffer: .zero 16            # sixteen zero words

Like the ART-9 assembler, the machine is Harvard-style: instruction
addresses are byte addresses starting at 0, and the data section occupies a
separate data memory whose word ``i`` lives at byte address ``4 * i``.

Supported pseudo-instructions: ``nop``, ``li``, ``la``, ``mv``, ``not``,
``neg``, ``seqz``, ``snez``, ``sltz``, ``sgtz``, ``j``, ``jr``, ``ret``,
``call``, ``beqz``, ``bnez``, ``blez``, ``bgez``, ``bltz``, ``bgtz``,
``bgt``, ``ble``, ``bgtu``, ``bleu``.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from repro.riscv.isa import RVInstruction, rv_spec_for
from repro.riscv.program import RVDataSegment, RVProgram
from repro.riscv.registers import rv_register_index

_LABEL_RE = re.compile(r"^([A-Za-z_.$][\w.$]*):\s*(.*)$")
_COMMENT_RE = re.compile(r"[#;].*$")
_MEM_OPERAND_RE = re.compile(r"^(-?\w+)\s*\(\s*(\w+)\s*\)$")


class RVAssemblerError(ValueError):
    """Raised for syntax or range errors in RV-32 assembly input."""

    def __init__(self, message: str, line_number: Optional[int] = None, line: str = ""):
        location = f"line {line_number}: " if line_number is not None else ""
        suffix = f"  [{line.strip()}]" if line else ""
        super().__init__(f"{location}{message}{suffix}")
        self.line_number = line_number


def split_hi_lo(value: int) -> Tuple[int, int]:
    """Split a 32-bit constant into (lui_imm, addi_imm) with sign correction.

    ``lui rd, hi`` followed by ``addi rd, rd, lo`` reconstructs ``value``
    because the ADDI immediate is sign extended: when bit 11 of the low part
    is set, the high part is incremented by one to compensate.
    """
    value &= 0xFFFFFFFF
    lo = value & 0xFFF
    if lo >= 0x800:
        lo -= 0x1000
    hi = ((value - lo) >> 12) & 0xFFFFF
    return hi, lo


class _RVAssembler:
    def __init__(self, name: str):
        self.program = RVProgram(name=name)
        self.section = ".text"
        self.data_values: List[int] = []

    # -- operand parsing --------------------------------------------------------

    def _reg(self, token: str, line_number: int, line: str) -> int:
        try:
            return rv_register_index(token)
        except ValueError as exc:
            raise RVAssemblerError(str(exc), line_number, line) from None

    def _int(self, token: str, line_number: int, line: str) -> int:
        try:
            return int(token.strip(), 0)
        except ValueError:
            raise RVAssemblerError(f"bad integer literal {token!r}", line_number, line) from None

    def _imm_or_label(self, token: str, line_number: int, line: str):
        token = token.strip()
        if re.match(r"^-?(0[xXoObB])?\d", token):
            return self._int(token, line_number, line), None
        return None, token

    def _mem_operand(self, token: str, line_number: int, line: str) -> Tuple[int, int]:
        """Parse ``imm(rs1)`` into (imm, rs1)."""
        match = _MEM_OPERAND_RE.match(token.strip())
        if not match:
            raise RVAssemblerError(f"expected imm(reg), got {token!r}", line_number, line)
        imm = self._int(match.group(1), line_number, line)
        rs1 = self._reg(match.group(2), line_number, line)
        return imm, rs1

    def _emit(self, instruction: RVInstruction) -> None:
        self.program.instructions.append(instruction)

    # -- pseudo-instruction expansion ---------------------------------------------

    def _expand_pseudo(self, mnemonic: str, operands: List[str], line_number: int, line: str) -> bool:
        """Expand pseudo-instructions; returns True when handled."""
        m = mnemonic
        if m == "nop":
            self._emit(RVInstruction("addi", rd=0, rs1=0, imm=0))
            return True
        if m == "li":
            rd = self._reg(operands[0], line_number, line)
            value = self._int(operands[1], line_number, line)
            if -2048 <= value <= 2047:
                self._emit(RVInstruction("addi", rd=rd, rs1=0, imm=value))
            else:
                hi, lo = split_hi_lo(value)
                self._emit(RVInstruction("lui", rd=rd, imm=hi))
                if lo != 0:
                    self._emit(RVInstruction("addi", rd=rd, rs1=rd, imm=lo))
            return True
        if m == "la":
            rd = self._reg(operands[0], line_number, line)
            # Data addresses in this substrate are small; resolved after pass 1.
            self._emit(RVInstruction("addi", rd=rd, rs1=0, imm=None, label=f"%abs:{operands[1].strip()}"))
            return True
        if m == "mv":
            rd = self._reg(operands[0], line_number, line)
            rs = self._reg(operands[1], line_number, line)
            self._emit(RVInstruction("addi", rd=rd, rs1=rs, imm=0))
            return True
        if m == "not":
            rd = self._reg(operands[0], line_number, line)
            rs = self._reg(operands[1], line_number, line)
            self._emit(RVInstruction("xori", rd=rd, rs1=rs, imm=-1))
            return True
        if m == "neg":
            rd = self._reg(operands[0], line_number, line)
            rs = self._reg(operands[1], line_number, line)
            self._emit(RVInstruction("sub", rd=rd, rs1=0, rs2=rs))
            return True
        if m == "seqz":
            rd = self._reg(operands[0], line_number, line)
            rs = self._reg(operands[1], line_number, line)
            self._emit(RVInstruction("sltiu", rd=rd, rs1=rs, imm=1))
            return True
        if m == "snez":
            rd = self._reg(operands[0], line_number, line)
            rs = self._reg(operands[1], line_number, line)
            self._emit(RVInstruction("sltu", rd=rd, rs1=0, rs2=rs))
            return True
        if m == "sltz":
            rd = self._reg(operands[0], line_number, line)
            rs = self._reg(operands[1], line_number, line)
            self._emit(RVInstruction("slt", rd=rd, rs1=rs, rs2=0))
            return True
        if m == "sgtz":
            rd = self._reg(operands[0], line_number, line)
            rs = self._reg(operands[1], line_number, line)
            self._emit(RVInstruction("slt", rd=rd, rs1=0, rs2=rs))
            return True
        if m == "j":
            imm, label = self._imm_or_label(operands[0], line_number, line)
            self._emit(RVInstruction("jal", rd=0, imm=imm, label=label))
            return True
        if m == "jr":
            rs = self._reg(operands[0], line_number, line)
            self._emit(RVInstruction("jalr", rd=0, rs1=rs, imm=0))
            return True
        if m == "ret":
            self._emit(RVInstruction("jalr", rd=0, rs1=1, imm=0))
            return True
        if m == "call":
            imm, label = self._imm_or_label(operands[0], line_number, line)
            self._emit(RVInstruction("jal", rd=1, imm=imm, label=label))
            return True
        if m in ("beqz", "bnez", "blez", "bgez", "bltz", "bgtz"):
            rs = self._reg(operands[0], line_number, line)
            imm, label = self._imm_or_label(operands[1], line_number, line)
            mapping = {
                "beqz": ("beq", rs, 0), "bnez": ("bne", rs, 0),
                "blez": ("bge", 0, rs), "bgez": ("bge", rs, 0),
                "bltz": ("blt", rs, 0), "bgtz": ("blt", 0, rs),
            }
            real, rs1, rs2 = mapping[m]
            self._emit(RVInstruction(real, rs1=rs1, rs2=rs2, imm=imm, label=label))
            return True
        if m in ("bgt", "ble", "bgtu", "bleu"):
            rs = self._reg(operands[0], line_number, line)
            rt = self._reg(operands[1], line_number, line)
            imm, label = self._imm_or_label(operands[2], line_number, line)
            mapping = {"bgt": "blt", "ble": "bge", "bgtu": "bltu", "bleu": "bgeu"}
            self._emit(RVInstruction(mapping[m], rs1=rt, rs2=rs, imm=imm, label=label))
            return True
        return False

    # -- architectural instructions ----------------------------------------------

    def _handle_instruction(self, mnemonic: str, operand_text: str, line_number: int, line: str) -> None:
        operands = [tok.strip() for tok in operand_text.split(",") if tok.strip()] if operand_text else []
        mnemonic = mnemonic.lower()

        if self._expand_pseudo(mnemonic, operands, line_number, line):
            return

        try:
            spec = rv_spec_for(mnemonic)
        except ValueError as exc:
            raise RVAssemblerError(str(exc), line_number, line) from None

        if spec.fmt == "SYS":
            self._emit(RVInstruction(mnemonic))
            return
        if spec.fmt == "R":
            rd = self._reg(operands[0], line_number, line)
            rs1 = self._reg(operands[1], line_number, line)
            rs2 = self._reg(operands[2], line_number, line)
            self._emit(RVInstruction(mnemonic, rd=rd, rs1=rs1, rs2=rs2))
            return
        if spec.fmt == "I":
            rd = self._reg(operands[0], line_number, line)
            if spec.is_load or (mnemonic == "jalr" and len(operands) == 2 and "(" in operands[1]):
                imm, rs1 = self._mem_operand(operands[1], line_number, line)
            elif mnemonic == "jalr":
                rs1 = self._reg(operands[1], line_number, line)
                imm = self._int(operands[2], line_number, line) if len(operands) > 2 else 0
            else:
                rs1 = self._reg(operands[1], line_number, line)
                imm = self._int(operands[2], line_number, line)
            self._emit(RVInstruction(mnemonic, rd=rd, rs1=rs1, imm=imm))
            return
        if spec.fmt == "S":
            rs2 = self._reg(operands[0], line_number, line)
            imm, rs1 = self._mem_operand(operands[1], line_number, line)
            self._emit(RVInstruction(mnemonic, rs1=rs1, rs2=rs2, imm=imm))
            return
        if spec.fmt == "B":
            rs1 = self._reg(operands[0], line_number, line)
            rs2 = self._reg(operands[1], line_number, line)
            imm, label = self._imm_or_label(operands[2], line_number, line)
            self._emit(RVInstruction(mnemonic, rs1=rs1, rs2=rs2, imm=imm, label=label))
            return
        if spec.fmt == "U":
            rd = self._reg(operands[0], line_number, line)
            imm = self._int(operands[1], line_number, line)
            self._emit(RVInstruction(mnemonic, rd=rd, imm=imm))
            return
        if spec.fmt == "J":
            rd = self._reg(operands[0], line_number, line)
            imm, label = self._imm_or_label(operands[1], line_number, line)
            self._emit(RVInstruction(mnemonic, rd=rd, imm=imm, label=label))
            return
        raise RVAssemblerError(f"unhandled format {spec.fmt!r}", line_number, line)

    # -- data section --------------------------------------------------------------

    def _handle_data_directive(self, directive: str, rest: str, line_number: int, line: str) -> None:
        if directive == ".word":
            values = [self._int(tok, line_number, line) for tok in rest.split(",") if tok.strip()]
            if not values:
                raise RVAssemblerError(".word needs at least one value", line_number, line)
            self.data_values.extend(values)
        elif directive == ".zero":
            count = self._int(rest, line_number, line)
            if count < 0:
                raise RVAssemblerError(".zero count must be non-negative", line_number, line)
            self.data_values.extend([0] * count)
        else:
            raise RVAssemblerError(f"unknown data directive {directive!r}", line_number, line)

    # -- driver ----------------------------------------------------------------------

    def run(self, text: str) -> RVProgram:
        for line_number, raw_line in enumerate(text.splitlines(), start=1):
            line = _COMMENT_RE.sub("", raw_line).strip()
            if not line:
                continue

            match = _LABEL_RE.match(line)
            while match:
                label, line = match.group(1), match.group(2).strip()
                if self.section == ".text":
                    self.program.labels[label] = 4 * len(self.program.instructions)
                else:
                    self.program.data_labels[label] = 4 * len(self.data_values)
                match = _LABEL_RE.match(line) if line else None
            if not line:
                continue

            if line.startswith("."):
                parts = line.split(None, 1)
                directive = parts[0].lower()
                rest = parts[1] if len(parts) > 1 else ""
                if directive in (".text", ".data"):
                    self.section = directive
                elif directive in (".globl", ".global", ".align", ".section"):
                    continue  # accepted and ignored, like a linker would
                elif self.section == ".data":
                    self._handle_data_directive(directive, rest, line_number, raw_line)
                else:
                    raise RVAssemblerError(
                        f"directive {directive!r} is only valid in .data", line_number, raw_line
                    )
                continue

            if self.section == ".data":
                raise RVAssemblerError(
                    "instructions are not allowed in the .data section", line_number, raw_line
                )

            parts = line.split(None, 1)
            self._handle_instruction(parts[0], parts[1] if len(parts) > 1 else "", line_number, raw_line)

        if self.data_values:
            self.program.data.append(RVDataSegment(base_address=0, values=list(self.data_values)))
        self._resolve()
        return self.program

    def _resolve(self) -> None:
        program = self.program
        for index, instruction in enumerate(program.instructions):
            label = instruction.label
            if label is None:
                continue
            if label.startswith("%abs:"):
                target_name = label[len("%abs:"):]
                if target_name in program.data_labels:
                    target = program.data_labels[target_name]
                elif target_name in program.labels:
                    target = program.labels[target_name]
                else:
                    raise RVAssemblerError(f"undefined label {target_name!r}")
                instruction.imm = target
                instruction.label = None
                continue
            if label in program.labels:
                target = program.labels[label]
            elif label in program.data_labels:
                target = program.data_labels[label]
            else:
                raise RVAssemblerError(f"undefined label {label!r}")
            if instruction.spec.is_branch or instruction.mnemonic == "jal":
                instruction.imm = target - 4 * index
            else:
                instruction.imm = target


def assemble_riscv(text: str, name: str = "rv_program") -> RVProgram:
    """Assemble RV-32 assembly ``text`` into an :class:`RVProgram`."""
    return _RVAssembler(name).run(text)
