"""Branch-target calculator and condition checker of the ID stage.

The ART-9 pipeline resolves every control transfer in ID (Sec. IV-B): a
dedicated adder computes the PC-relative target, the condition checker
compares the forwarded least-significant trit against the instruction's B
constant, and the computed address is forwarded directly to the PC register.
A taken branch or jump therefore squashes exactly one fetched instruction
(one bubble), and a not-taken branch costs nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.isa.instructions import Instruction
from repro.sim.pipeline.stages import PredecodedInstruction
from repro.ternary.word import WORD_TRITS, TernaryWord


@dataclass
class BranchOutcome:
    """Decision of the ID-stage branch unit for one instruction."""

    is_control: bool = False
    taken: bool = False
    target: Optional[int] = None
    link_value: Optional[int] = None  # PC + 1 for JAL/JALR


class BranchUnit:
    """Evaluates B-type instructions (BEQ, BNE, JAL, JALR) in the ID stage.

    The unit is combinational: the pipeline's clock counts the outcomes.
    """

    def evaluate(
        self,
        instruction: Union[Instruction, PredecodedInstruction],
        pc: int,
        tb_value: Optional[TernaryWord],
    ) -> BranchOutcome:
        """Return the control-flow outcome of ``instruction`` at ``pc``.

        ``instruction`` needs only ``mnemonic``, ``imm`` and
        ``branch_trit``; the pipeline passes its predecoded record.
        ``tb_value`` is the forwarded value of the Tb register (None for
        JAL, which has no register source).
        """
        mnemonic = instruction.mnemonic
        if mnemonic in ("BEQ", "BNE"):
            lst = tb_value.lst
            matches = lst == instruction.branch_trit
            taken = matches if mnemonic == "BEQ" else not matches
            return BranchOutcome(
                is_control=True,
                taken=taken,
                target=pc + instruction.imm if taken else None,
            )
        if mnemonic == "JAL":
            return BranchOutcome(
                is_control=True,
                taken=True,
                target=pc + instruction.imm,
                link_value=pc + 1,
            )
        if mnemonic == "JALR":
            target = (tb_value.value + instruction.imm) % (3 ** WORD_TRITS)
            return BranchOutcome(
                is_control=True,
                taken=True,
                target=target,
                link_value=pc + 1,
            )
        return BranchOutcome(is_control=False)
