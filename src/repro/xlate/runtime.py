"""Ternary runtime library appended to translated programs.

The ART-9 ISA has no multiply, divide or binary-shift instructions (Table II
explicitly notes the missing multiplier), so the instruction-mapping pass
lowers the RV-32 ``mul``/``div``/``rem`` instructions and variable binary
shifts into calls to the small runtime library defined here.  The helpers
are emitted in the same virtual-register IR as the mapped user code, so the
later renaming/spilling and redundancy passes treat them like any other
code.

Calling convention (virtual registers, see :class:`VirtualRegisterFile`):

* ``helper_arg0`` / ``helper_arg1`` — input operands
* ``helper_ret`` — primary result (product / quotient / shifted value)
* ``helper_ret2`` — secondary result (remainder, from ``__t_div``)
* ``helper_link`` — return address; pinned to a physical register by the
  register allocator because a spilled link register cannot be written back
  after the jump.

Algorithms
----------

``__t_mul``
    Trit-serial multiply: per iteration the lowest trit of the multiplier is
    extracted as ``b - 3 * (b >> 1)`` (exact in balanced ternary because the
    single-trit right shift rounds to nearest), the multiplicand is added or
    subtracted accordingly, then the multiplicand is tripled and the
    multiplier shifted.  At most 9 iterations.
``__t_div``
    Shift-and-subtract division by repeated doubling of the divisor, with
    explicit sign handling so the quotient truncates toward zero and the
    remainder takes the dividend's sign (the RV-32M convention).  The
    doubling test compares ``a - t`` with ``t`` rather than ``2t`` with
    ``a``: ``t <= a`` holds inside the loop, so no intermediate leaves the
    9-trit range for any dividend and divisor in it.
``__t_sll``
    Left shift by a variable amount, i.e. multiplication by ``2**n`` through
    repeated doubling.
"""

from __future__ import annotations

from typing import List

from repro.isa.instructions import Instruction
from repro.xlate.ir import LabelMarker, TranslationUnit, VirtualRegisterFile, V_ZERO

#: Helper entry labels, keyed by the short name used in ``required_helpers``.
HELPER_LABELS = {
    "mul": "__t_mul",
    "div": "__t_div",
    "sll": "__t_sll",
}


class _Builder:
    """Tiny convenience wrapper for emitting virtual-register instructions."""

    def __init__(self, vregs: VirtualRegisterFile):
        self.items: List = []
        self.vregs = vregs

    def label(self, name: str) -> None:
        self.items.append(LabelMarker(name))

    def emit(self, mnemonic: str, **fields) -> None:
        self.items.append(Instruction(mnemonic, **fields))

    def reg(self, name: str) -> int:
        return self.vregs.named_temp(name)


def _emit_mul(builder: _Builder) -> None:
    reg = builder.reg
    arg0, arg1 = reg("helper_arg0"), reg("helper_arg1")
    ret, link = reg("helper_ret"), reg("helper_link")
    discard = reg("discard")
    # The argument registers double as the working multiplicand/multiplier to
    # keep the helper's register pressure low (they are dead after the call).
    a, b = arg0, arg1
    h, r, c = reg("helper_t0"), reg("helper_t1"), reg("helper_t2")

    builder.label("__t_mul")
    builder.emit("MV", ta=ret, tb=V_ZERO)
    builder.label("__t_mul_loop")
    builder.emit("MV", ta=c, tb=b)
    builder.emit("COMP", ta=c, tb=V_ZERO)
    builder.emit("BEQ", tb=c, branch_trit=0, label="__t_mul_done")
    # h = b >> 1 (round-to-nearest third), r = b - 3h  (the lowest trit of b)
    builder.emit("MV", ta=h, tb=b)
    builder.emit("SRI", ta=h, imm=1)
    builder.emit("MV", ta=r, tb=h)
    builder.emit("SLI", ta=r, imm=1)
    builder.emit("STI", ta=r, tb=r)
    builder.emit("ADD", ta=r, tb=b)
    builder.emit("BNE", tb=r, branch_trit=1, label="__t_mul_try_sub")
    builder.emit("ADD", ta=ret, tb=a)
    builder.label("__t_mul_try_sub")
    builder.emit("BNE", tb=r, branch_trit=-1, label="__t_mul_next")
    builder.emit("SUB", ta=ret, tb=a)
    builder.label("__t_mul_next")
    builder.emit("SLI", ta=a, imm=1)
    builder.emit("MV", ta=b, tb=h)
    builder.emit("JAL", ta=discard, label="__t_mul_loop")
    builder.label("__t_mul_done")
    builder.emit("JALR", ta=discard, tb=link, imm=0)


def _emit_div(builder: _Builder) -> None:
    reg = builder.reg
    arg0, arg1 = reg("helper_arg0"), reg("helper_arg1")
    ret, ret2, link = reg("helper_ret"), reg("helper_ret2"), reg("helper_link")
    discard = reg("discard")
    # Reuse the argument registers as the working dividend/divisor and share
    # the generic helper temporaries with the other runtime routines.
    a, b = reg("div_a"), arg1
    q = reg("helper_ret")
    t, m, c = reg("helper_t0"), reg("helper_t2"), reg("helper_t3")
    sign, rsign = reg("helper_t4"), reg("helper_t5")

    builder.label("__t_div")
    builder.emit("MV", ta=sign, tb=V_ZERO)
    builder.emit("ADDI", ta=sign, imm=1)
    builder.emit("MV", ta=rsign, tb=V_ZERO)
    builder.emit("ADDI", ta=rsign, imm=1)
    builder.emit("MV", ta=a, tb=arg0)
    # Normalise the dividend sign.
    builder.emit("MV", ta=c, tb=a)
    builder.emit("COMP", ta=c, tb=V_ZERO)
    builder.emit("BNE", tb=c, branch_trit=-1, label="__t_div_a_pos")
    builder.emit("STI", ta=a, tb=a)
    builder.emit("STI", ta=sign, tb=sign)
    builder.emit("STI", ta=rsign, tb=rsign)
    builder.label("__t_div_a_pos")
    # Normalise the divisor sign.
    builder.emit("MV", ta=c, tb=b)
    builder.emit("COMP", ta=c, tb=V_ZERO)
    builder.emit("BNE", tb=c, branch_trit=-1, label="__t_div_b_pos")
    builder.emit("STI", ta=b, tb=b)
    builder.emit("STI", ta=sign, tb=sign)
    builder.label("__t_div_b_pos")
    builder.emit("MV", ta=q, tb=V_ZERO)
    # Division by zero follows the RV-32M convention: quotient -1, remainder a.
    builder.emit("MV", ta=c, tb=b)
    builder.emit("COMP", ta=c, tb=V_ZERO)
    builder.emit("BEQ", tb=c, branch_trit=0, label="__t_div_by_zero")
    builder.label("__t_div_outer")
    builder.emit("MV", ta=c, tb=a)
    builder.emit("COMP", ta=c, tb=b)
    builder.emit("BEQ", tb=c, branch_trit=-1, label="__t_div_done")
    builder.emit("MV", ta=t, tb=b)
    builder.emit("MV", ta=m, tb=V_ZERO)
    builder.emit("ADDI", ta=m, imm=1)
    builder.label("__t_div_inner")
    # Stop doubling once 2t > a, tested as a - t < t (no overflow).
    builder.emit("MV", ta=c, tb=a)
    builder.emit("SUB", ta=c, tb=t)
    builder.emit("COMP", ta=c, tb=t)
    builder.emit("BEQ", tb=c, branch_trit=-1, label="__t_div_inner_done")
    builder.emit("ADD", ta=t, tb=t)
    builder.emit("ADD", ta=m, tb=m)
    builder.emit("JAL", ta=discard, label="__t_div_inner")
    builder.label("__t_div_inner_done")
    builder.emit("SUB", ta=a, tb=t)
    builder.emit("ADD", ta=q, tb=m)
    builder.emit("JAL", ta=discard, label="__t_div_outer")
    builder.label("__t_div_done")
    builder.emit("BNE", tb=sign, branch_trit=-1, label="__t_div_qpos")
    builder.emit("STI", ta=q, tb=q)
    builder.label("__t_div_qpos")
    builder.emit("BNE", tb=rsign, branch_trit=-1, label="__t_div_rpos")
    builder.emit("STI", ta=a, tb=a)
    builder.label("__t_div_rpos")
    builder.emit("MV", ta=ret, tb=q)
    builder.emit("MV", ta=ret2, tb=a)
    builder.emit("JALR", ta=discard, tb=link, imm=0)
    builder.label("__t_div_by_zero")
    builder.emit("MV", ta=ret, tb=V_ZERO)
    builder.emit("ADDI", ta=ret, imm=-1)
    builder.emit("MV", ta=ret2, tb=arg0)
    builder.emit("JALR", ta=discard, tb=link, imm=0)


def _emit_sll(builder: _Builder) -> None:
    reg = builder.reg
    arg0, arg1 = reg("helper_arg0"), reg("helper_arg1")
    ret, link = reg("helper_ret"), reg("helper_link")
    discard = reg("discard")
    # The shift count is consumed in place; only one extra temporary is needed.
    n, c = arg1, reg("helper_t0")

    builder.label("__t_sll")
    builder.emit("MV", ta=ret, tb=arg0)
    builder.label("__t_sll_loop")
    builder.emit("MV", ta=c, tb=n)
    builder.emit("COMP", ta=c, tb=V_ZERO)
    builder.emit("BEQ", tb=c, branch_trit=0, label="__t_sll_done")
    builder.emit("BEQ", tb=c, branch_trit=-1, label="__t_sll_done")
    builder.emit("ADD", ta=ret, tb=ret)
    builder.emit("ADDI", ta=n, imm=-1)
    builder.emit("JAL", ta=discard, label="__t_sll_loop")
    builder.label("__t_sll_done")
    builder.emit("JALR", ta=discard, tb=link, imm=0)


_EMITTERS = {
    "mul": _emit_mul,
    "div": _emit_div,
    "sll": _emit_sll,
}


def append_runtime_helpers(unit: TranslationUnit, vregs: VirtualRegisterFile) -> None:
    """Append the runtime helpers named in ``unit.required_helpers``.

    Helpers are appended after the translated user code so that straight-line
    execution never falls into them; every entry is only reachable through an
    explicit JAL emitted by the mapping pass.
    """
    for name in sorted(unit.required_helpers):
        if name not in _EMITTERS:
            raise ValueError(f"unknown runtime helper {name!r}")
        builder = _Builder(vregs)
        _EMITTERS[name](builder)
        unit.extend(builder.items)
