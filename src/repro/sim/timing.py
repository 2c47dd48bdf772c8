"""The analytic pipeline timing model shared by the fast engines.

The ART-9 pipeline stalls only on load-use hazards and on redirected
control transfers (Sec. IV-B), so every :class:`PipelineStats` counter is
a pure function of the committed instruction stream: each instruction's
bubbles and forwarding events depend only on itself and a two-instruction
window of its predecessors.  This module is the one place that rule is
written down.  It has four parts:

:func:`attributes`
    Per-PC static timing attributes of a program under one
    :class:`~repro.sim.machine.MachineConfig`: operand reads, destination,
    load/ALU flags, and the redirect gap the next instruction sees after a
    taken and after a not-taken outcome.
:func:`step`
    Commits one instruction to a timing *state*: charges its gap (pending
    redirect shadow or load-use stall) and its EX/MEM/ID forwarding events,
    then advances the window.
:func:`split_run`
    Splits the timing of a straight-line run, in which only the last
    instruction may be a control transfer.  The run's first :data:`CARRIED`
    instructions see the window carried in and go through :func:`step`
    each time the run executes; :func:`static_exits` folds the rest into
    constant counter increments and the window the run leaves behind, one
    pair per outcome of its last instruction.
:func:`stats`
    Turns a finished state into :class:`PipelineStats`, with
    ``cycles = N + fill + stalls + flushes``.

Both analytic engines time straight-line runs this way.
:class:`~repro.sim.engine.FastEngine` ends a run at each control transfer
and at HALT, so a run's start fixes its end; it splits a run the second
time the run ends (a run executed once is stepped whole).  The compiled
engine's codegen splits each superblock when it generates it.  The
stage-by-stage :class:`~repro.sim.pipeline.PipelineSimulator` does not use
this module: it is the independent reference the differential and golden
suites compare the analytic engines against.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.isa.instructions import Instruction
from repro.sim.machine import MachineConfig
from repro.sim.pipeline.stats import PipelineStats

# A timing state is a flat list of ints (the compiled engine's generated
# code indexes it directly):
#   [0] load-use stalls            [1] control-flush bubbles
#   [2] taken branches             [3] not-taken branches
#   [4] jumps                      [5] EX forwards
#   [6] MEM forwards               [7] ID forwards
#   [8] dest of I(k-1) (-1 none)   [9] I(k-1) is a load
#   [10] I(k-1) is an ALU writer   [11] redirect gap pending behind I(k-1)
#   [12] gap before I(k-1)         [13] dest of I(k-2) (-1 none)
#   [14] nothing committed yet
N_COUNTERS = 8
STATE_LEN = 15
COUNTERS = slice(0, N_COUNTERS)
WINDOW = slice(N_COUNTERS, STATE_LEN)

#: A block's first two instructions see window fields carried in from the
#: previous block; from the third on, the window holds only fields set by
#: the block's own (straight-line) instructions.
CARRIED = 2

# Counter slots bumped by a control instruction's outcome.
_TAKEN, _NOT_TAKEN, _JUMPS = 2, 3, 4


def new_state() -> List[int]:
    """The timing state before the first committed instruction."""
    return [0, 0, 0, 0, 0, 0, 0, 0, -1, 0, 0, 0, 0, -1, 1]


def attributes(instructions: Sequence[Instruction],
               machine: MachineConfig) -> List[tuple]:
    """Per-PC static timing attributes of a (validated) program.

    Each entry is the tuple ``(ex_a, ex_b, id_b, stall_a, stall_b, dest,
    load, alu, gap_taken, gap_fall, slot_taken, slot_fall)``: the registers
    EX reads through Ta and Tb and the one the ID-stage branch unit reads
    (branch condition / JALR base), each -1 when absent; the registers whose
    load-use dependence stalls on this machine; the written register (-1
    none); load and ALU-writer flags (0/1); the redirect gap the next
    instruction sees after a taken and a not-taken outcome; and the counter
    slot each outcome bumps (-1 none).
    """
    table = []
    for instruction in instructions:
        spec = instruction.spec
        mnemonic = instruction.mnemonic
        ex_a = instruction.ta if spec.reads_ta else -1
        ex_b = instruction.tb if spec.reads_tb else -1
        id_b = ex_b if spec.is_control else -1
        if machine.load_use_penalty:
            stall_a, stall_b = ex_a, ex_b
        else:
            # The zero-penalty bypass feeds a fresh load value into EX in the
            # same cycle; ID reads a stage earlier and still stalls.
            stall_a, stall_b = -1, id_b
        dest = instruction.ta if spec.writes_ta else -1
        if spec.is_branch:
            slot_taken, slot_fall = _TAKEN, _NOT_TAKEN
        elif spec.is_jump:
            slot_taken = slot_fall = _JUMPS
        else:
            slot_taken = slot_fall = -1
        table.append((
            ex_a, ex_b, id_b, stall_a, stall_b, dest,
            int(spec.is_load), int(spec.writes_ta and not spec.is_load),
            machine.redirect_gap(mnemonic, instruction.imm, True),
            machine.redirect_gap(mnemonic, instruction.imm, False),
            slot_taken, slot_fall,
        ))
    return table


def step(state: List[int], attrs: tuple, taken) -> None:
    """Commit one instruction with static ``attrs`` and outcome ``taken``."""
    (ex_a, ex_b, id_b, stall_a, stall_b, dest, load, alu,
     gap_taken, gap_fall, slot_taken, slot_fall) = attrs
    p1 = state[8]
    # Bubbles between I(k-1) and this instruction: the redirect shadow
    # behind a redirected transfer, else one load-use bubble when this
    # instruction consumes a fresh load result on a path without bypass.
    if state[14]:
        state[14] = 0
        gap = 0
    elif state[11]:
        gap = state[11]
        state[1] += gap
    elif state[9] and (p1 == stall_a or p1 == stall_b):
        gap = 1
        state[0] += 1
    else:
        gap = 0
    # Occupant of the MEM/WB slot (it feeds both the EX-stage MEM/WB mux and
    # the ID-stage memory-output path): I(k-1) behind one bubble, I(k-2)
    # when both gaps are empty, nobody in a multi-bubble redirect shadow.
    if gap == 1:
        wb = p1
    elif gap == 0 and state[12] == 0:
        wb = state[13]
    else:
        wb = -1
    # EX-stage forwards, one per matched operand read.  An adjacent producer
    # forwards from EX/MEM: an ALU result is an EX forward, a load result
    # (the zero-penalty same-cycle bypass) a MEM forward.
    if ex_a >= 0:
        if gap == 0 and p1 == ex_a:
            state[5 if state[10] else 6] += 1
        elif wb == ex_a:
            state[6] += 1
    if ex_b >= 0:
        if gap == 0 and p1 == ex_b:
            state[5 if state[10] else 6] += 1
        elif wb == ex_b:
            state[6] += 1
    # ID-stage forwards (branch condition / JALR base path).
    if id_b >= 0:
        if gap == 0 and state[10] and p1 == id_b:
            state[7] += 1
        elif wb == id_b:
            state[7] += 1
    if taken:
        state[11] = gap_taken
        slot = slot_taken
    else:
        state[11] = gap_fall
        slot = slot_fall
    if slot >= 0:
        state[slot] += 1
    state[12] = gap
    state[13] = p1
    state[8] = dest
    state[9] = load
    state[10] = alu


def split_run(block: Sequence[tuple]) -> Tuple[tuple, Optional[tuple]]:
    """Split the timing of a straight-line run into run time and fold time.

    ``block`` holds the attributes of a run in which only the last
    instruction may be a control transfer.  Returns ``(prefix, exits)``:
    ``prefix`` is the run's first :data:`CARRIED` attributes (the whole run
    if it is no longer), which see the window carried in and must go
    through :func:`step` each time the run executes; ``exits`` is
    :func:`static_exits` of the run, or ``None`` when nothing is left to
    fold.  A step ignores the outcome of an instruction that is not a
    control transfer, so the whole prefix may be stepped with the run's.
    """
    prefix = tuple(block[:CARRIED])
    if len(block) <= CARRIED:
        return prefix, None
    return prefix, static_exits(block)


def static_exits(block: Sequence[tuple]) -> Tuple[tuple, tuple]:
    """Compile-time timing of a straight-line block past its first two.

    ``block`` holds the attributes of a block of more than :data:`CARRIED`
    instructions in which only the last may be a control transfer.  Returns
    ``((increments, window) if taken, (increments, window) if not taken)``:
    the nonzero counter increments of instructions ``CARRIED..`` as
    ``(slot, delta)`` pairs in slot order, and the window the block leaves
    behind, both independent of the window it was entered with.
    """
    # Neither of the first two is a control transfer, so the window they
    # leave behind depends on them alone: step them from a fresh state and
    # drop their (run-time) counters.
    state = new_state()
    for attrs in block[:CARRIED]:
        step(state, attrs, False)
    state[COUNTERS] = [0] * N_COUNTERS
    for attrs in block[CARRIED:-1]:
        step(state, attrs, False)
    exits = []
    for taken in (True, False):
        end = list(state)
        step(end, block[-1], taken)
        increments = tuple((slot, delta)
                           for slot, delta in enumerate(end[COUNTERS]) if delta)
        exits.append((increments, tuple(end[WINDOW])))
    return exits[0], exits[1]


def stats(state: Sequence[int], committed: int, instruction_mix: dict,
          machine: MachineConfig) -> PipelineStats:
    """The :class:`PipelineStats` of a finished run (only its counters are read)."""
    stalls, flushes, taken, not_taken, jumps, ex, mem, idf = state[COUNTERS]
    return PipelineStats(
        cycles=committed + machine.fill_cycles + stalls + flushes,
        instructions_committed=committed,
        load_use_stalls=stalls,
        control_flush_bubbles=flushes,
        taken_branches=taken,
        not_taken_branches=not_taken,
        jumps=jumps,
        ex_forwards=ex,
        mem_forwards=mem,
        id_forwards=idf,
        instruction_mix=instruction_mix,
    )
