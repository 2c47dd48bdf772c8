"""Batched vectorized execution engine: many program instances, one process.

Batched differential fuzzing (``art9 fuzz --batch-lanes N``) widens each
generated program into many data variants whose instruction streams are
identical and whose inputs differ only in the data segment.  Running those
one at a time leaves most of the interpreter cost — dispatch, bookkeeping,
the Python bytecode loop itself — unamortised.

:class:`BatchEngine` executes B instances ("lanes") of one instruction
stream concurrently.  Architectural state is held in numpy arrays over the
batch dimension:

* registers as a ``(NUM_REGISTERS, B)`` int64 array, so one vectorized op
  retires the same instruction for every lane at once (balanced-ternary
  wraparound is three in-place array ops; the trit-wise gate ops go through
  ``(3**9, 9)`` trit-plane tables, built vectorised from ``np.arange(3**9)``
  when the first engine is constructed);
* data memory as a dense ``(B, depth)`` int16 plane plus a ``touched`` mask
  that reproduces the sparse engines' touched-cell ``memory`` dict exactly.

Control flow diverges per lane (data-dependent branches, JALR targets,
per-lane HALT and errors), so lanes are organised into **path groups**: sets
of lanes that have followed the same control path and therefore sit at the
same PC.  The scheduler always steps the group with the lowest PC, which
drives diverged groups back toward their join point, where they are merged
again.  A divergent branch splits a group in two; a divergent JALR splits by
target; HALT and per-lane errors (instruction budget, PC escape, TDM range
faults) retire lanes out of their group.

The cycle-accurate timing model rides on a key invariant of the analytic
model in :mod:`repro.sim.timing`: every :class:`PipelineStats` quantity is a
pure function of the *committed instruction stream* (opcodes, register
indices and branch outcomes) — never of data values.  Lanes in the same
path group therefore share one timing state, stepped once per group step;
a split copies it, and a group's counter increments move into its lanes'
per-lane counters before its lanes join another group.  Groups merge only
when both PC and timing window coincide, so a merged group remains exact.
The result is bit-identical ``ExecutionResult`` *and* ``PipelineStats`` per
lane — the 5-way differential suite pins every lane against
FastEngine/CompiledEngine/FunctionalSimulator/PipelineSimulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.isa.program import Program
from repro.isa.registers import NUM_REGISTERS, register_name
from repro.sim import timing
from repro.sim.engine import (
    HALF,
    MOD,
    OP_ADD,
    OP_ADDI,
    OP_AND,
    OP_ANDI,
    OP_BEQ,
    OP_BNE,
    OP_COMP,
    OP_JAL,
    OP_JALR,
    OP_LI,
    OP_LOAD,
    OP_LUI,
    OP_MV,
    OP_NTI,
    OP_OR,
    OP_PTI,
    OP_SL,
    OP_SLI,
    OP_SR,
    OP_SRI,
    OP_STI,
    OP_STORE,
    OP_SUB,
    OP_XOR,
    FastEngine,
    _MNEMONIC_OF,
    _POW3,
    wrap,
)
from repro.sim.functional import ExecutionResult, SimulationError
from repro.sim.machine import MachineConfig, resolve_machine
from repro.sim.memory import MemoryError_
from repro.sim.pipeline.stats import PipelineStats
from repro.ternary.word import WORD_TRITS


class BatchError(SimulationError):
    """Raised when a set of programs cannot share one batch."""


# Lazily built numpy value tables shared by every engine instance:
#   trit planes of all 3**9 words, the PTI/NTI word tables, and 3**k.
_NP_TABLES: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = None


def _np_tables() -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    global _NP_TABLES
    if _NP_TABLES is None:
        unsigned = np.arange(MOD, dtype=np.int64)
        value = np.where(unsigned > HALF, unsigned - MOD, unsigned)
        trits = np.empty((MOD, WORD_TRITS), dtype=np.int8)
        for k in range(WORD_TRITS):
            digit = (value + 1) % 3 - 1
            trits[:, k] = digit
            value = (value - digit) // 3
        pow3 = np.array(_POW3, dtype=np.int64)
        _NP_TABLES = (
            trits,
            np.where(trits == 1, -1, 1) @ pow3,
            np.where(trits == -1, 1, -1) @ pow3,
            pow3,
        )
    return _NP_TABLES


@dataclass
class LaneOutcome:
    """Per-lane result of one batched execution.

    Exactly one of ``result``/``error`` is set.  ``error`` carries the
    byte-identical message the fast engine would have raised for the same
    program, and ``error_kind`` its exception class name (``SimulationError``
    or ``MemoryError_``), so the differential harnesses can reproduce the
    serial error contract without re-running the lane.
    """

    lane: int
    result: Optional[ExecutionResult] = None
    stats: Optional[PipelineStats] = None
    error: Optional[str] = None
    error_kind: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


class _Group:
    """One set of lanes sharing a control path (and thus a PC).

    ``state`` is the group's :mod:`repro.sim.timing` state: the timing
    window is a function of the committed stream, which is common to every
    lane in the group.  Its counters hold the increments since they were
    last flushed into the per-lane counter arrays.  ``max_exec``
    conservatively upper-bounds the lanes' executed counts so the per-step
    budget check stays a plain int comparison until the budget is actually
    near.
    """

    __slots__ = ("pc", "lanes", "state", "max_exec")

    def __init__(self, pc: int, lanes: np.ndarray, state: List[int],
                 max_exec: int = 0):
        self.pc = pc
        self.lanes = lanes
        self.state = state
        self.max_exec = max_exec

    def split(self, lanes: np.ndarray) -> "_Group":
        """A new group with a copy of this one's state over a lane subset."""
        return _Group(self.pc, lanes, list(self.state), self.max_exec)

    def merge(self, other: "_Group") -> None:
        """Fold ``other``'s lanes into this group (same PC and window)."""
        self.lanes = np.sort(np.concatenate((self.lanes, other.lanes)))
        self.max_exec = max(self.max_exec, other.max_exec)


class BatchEngine:
    """Vectorized multi-lane interpreter for one shared instruction stream.

    ``programs`` supplies one :class:`Program` per lane; all of them must
    predecode to the same dispatch records (:class:`BatchError` otherwise).
    Like :class:`FastEngine`, an instance is single-use: build a fresh
    engine per batched execution.
    """

    def __init__(self, programs: Sequence[Program], tdm_depth: int = MOD,
                 machine: Optional[MachineConfig] = None):
        if not programs:
            raise BatchError("BatchEngine needs at least one program")
        self.programs: List[Program] = list(programs)
        self.tdm_depth = tdm_depth
        self.machine = resolve_machine(machine)
        base = self.programs[0]
        self._records = FastEngine._predecode(base)
        for index, program in enumerate(self.programs[1:], start=1):
            # Equal instruction lists predecode identically; the comparison
            # is much cheaper than re-predecoding every lane of a large
            # batch (data variants even share the list object).
            if (program.instructions is base.instructions
                    or program.instructions == base.instructions):
                continue
            if FastEngine._predecode(program) != self._records:
                raise BatchError(
                    f"lane {index} ({program.name!r}) does not share lane 0's "
                    f"({base.name!r}) instruction stream"
                )
        _np_tables()

        batch = len(self.programs)
        self._batch = batch
        self._regs = np.zeros((NUM_REGISTERS, batch), dtype=np.int64)
        # int16 keeps the dense memory plane small (values are balanced
        # 9-trit words, |v| <= 9841); ``touched`` reproduces the sparse
        # engines' touched-cell semantics.
        self._mem = np.zeros((batch, tdm_depth), dtype=np.int16)
        self._touched = np.zeros((batch, tdm_depth), dtype=bool)
        self._counts = np.zeros((len(self._records), batch), dtype=np.int64)
        self._executed = np.zeros(batch, dtype=np.int64)
        self._final_pc = np.zeros(batch, dtype=np.int64)
        self._halted = np.zeros(batch, dtype=bool)
        self._errors: List[Optional[str]] = [None] * batch
        self._error_kinds: List[Optional[str]] = [None] * batch
        self._rows = np.arange(batch)
        self._consumed = False
        # Per-lane timing counters (one row per timing-state counter),
        # allocated on the run_with_stats path.
        self._lane_counters: Optional[np.ndarray] = None

        for lane, program in enumerate(self.programs):
            for segment in program.data:
                values = segment.values
                if not values:
                    continue
                base = segment.base_address
                if not 0 <= base < tdm_depth or base + len(values) > tdm_depth:
                    # First offending address, in the same offset order the
                    # scalar engines initialise (and fail) in.
                    first_bad = base if (base < 0 or base >= tdm_depth) else tdm_depth
                    raise MemoryError_(
                        f"TDM: address {first_bad} out of range 0..{tdm_depth - 1}"
                    )
                cells = (np.asarray(values, dtype=np.int64) + HALF) % MOD - HALF
                self._mem[lane, base:base + len(values)] = cells
                self._touched[lane, base:base + len(values)] = True

    # -- entry points -------------------------------------------------------

    def run(self, max_instructions: int = 10_000_000) -> List[LaneOutcome]:
        """Architectural execution of every lane; per-lane ``LaneOutcome``."""
        self._consume()
        self._execute(max_instructions, with_stats=False)
        return self._outcomes(stats_limit=None)

    def run_with_stats(self, max_cycles: int = 50_000_000) -> List[LaneOutcome]:
        """Execution plus per-lane pipeline statistics (fast-engine parity).

        Mirrors :meth:`FastEngine.run_with_stats`: ``max_cycles`` bounds the
        committed-instruction count during execution, and lanes whose final
        cycle count still exceeds it come back with the same
        "did not halt within N cycles" error the fast engine raises.
        Outcomes carry both the ``ExecutionResult`` and the stats.
        """
        if not self.programs[0].instructions:
            raise SimulationError("cannot simulate an empty program")
        self._consume()
        self._execute(max_cycles, with_stats=True)
        return self._outcomes(stats_limit=max_cycles)

    def _consume(self) -> None:
        if self._consumed:
            raise SimulationError(
                "engine state already consumed; build a fresh BatchEngine"
            )
        self._consumed = True

    # -- the vectorized interpreter -----------------------------------------

    def _execute(self, max_instructions: int, with_stats: bool) -> None:
        records = self._records
        program_length = len(records)
        regs = self._regs
        mem = self._mem
        touched = self._touched
        counts = self._counts
        final_pc = self._final_pc
        halted = self._halted
        errors = self._errors
        error_kinds = self._error_kinds
        rows = self._rows
        batch = self._batch
        depth = self.tdm_depth
        check_depth = depth != MOD
        trits_np, pti_np, nti_np, pow3_np = _np_tables()
        scratch = np.empty(batch, dtype=np.int64)
        bool_scratch = np.empty(batch, dtype=bool)

        if with_stats:
            attrs = timing.attributes(self.programs[0].instructions,
                                      self.machine)
            step = timing.step
            lane_counters = self._lane_counters = np.zeros(
                (timing.N_COUNTERS, batch), dtype=np.int64)

        def flush(grp: _Group) -> None:
            # Move a group's counter increments into its lanes' rows.  Due
            # when the group halts or merges; a split needs none, since both
            # halves keep the increments for their own lanes.
            increments = grp.state[timing.COUNTERS]
            if any(increments):
                lane_counters[:, grp.lanes] += np.array(increments)[:, None]
                grp.state[timing.COUNTERS] = [0] * timing.N_COUNTERS

        groups: List[_Group] = [_Group(0, rows.copy(), timing.new_state())]

        while groups:
            if len(groups) == 1:
                group = groups[0]
            else:
                group = min(groups, key=lambda grp: grp.pc)
            pc = group.pc
            lanes = group.lanes
            full = lanes.shape[0] == batch
            sel = slice(None) if full else lanes

            # Instruction budget: cheap scalar bound first (per-lane counts
            # are only materialised from the mix matrix once the bound
            # actually reaches the budget, which keeps the common path free
            # of per-step counter reads).
            if group.max_exec >= max_instructions:
                lane_exec = counts[:, lanes].sum(axis=0)
                over = lane_exec >= max_instructions
                if over.any():
                    bad = lanes[over]
                    final_pc[bad] = pc
                    message = (f"program did not halt within "
                               f"{max_instructions} instructions")
                    for lane in bad.tolist():
                        errors[lane] = message
                        error_kinds[lane] = "SimulationError"
                    lanes = lanes[~over]
                    if lanes.shape[0] == 0:
                        groups.remove(group)
                        continue
                    group.lanes = lanes
                    full = False
                    sel = lanes
                    lane_exec = lane_exec[~over]
                group.max_exec = int(lane_exec.max())

            if pc < 0 or pc >= program_length:
                final_pc[lanes] = pc
                message = f"PC {pc} outside program of {program_length} instructions"
                for lane in lanes.tolist():
                    errors[lane] = message
                    error_kinds[lane] = "SimulationError"
                groups.remove(group)
                continue

            op, ta, tb, imm, bt = records[pc]

            # -- lane-parallel semantics (FastEngine per-opcode code, lifted
            # to arrays; wrap() becomes in-place add/mod/sub).  Full-batch
            # groups — the lockstep common case — run in place on the
            # register rows; partial groups gather/scatter by lane index.
            taken_mask = None
            jalr_targets = None
            halt_now = False
            if op == OP_ADDI:
                if full:
                    row = regs[ta]
                    row += imm + HALF
                    row %= MOD
                    row -= HALF
                else:
                    value = regs[ta][lanes] + (imm + HALF)
                    value %= MOD
                    value -= HALF
                    regs[ta][lanes] = value
            elif op == OP_ADD:
                if full:
                    row = regs[ta]
                    row += regs[tb]
                    row += HALF
                    row %= MOD
                    row -= HALF
                else:
                    value = regs[ta][lanes] + regs[tb][lanes]
                    value += HALF
                    value %= MOD
                    value -= HALF
                    regs[ta][lanes] = value
            elif op == OP_LOAD or op == OP_STORE:
                if full:
                    np.add(regs[tb], imm, out=scratch)
                    scratch %= MOD
                    address = scratch
                else:
                    address = (regs[tb][lanes] + imm) % MOD
                if check_depth:
                    faulted = address >= depth
                    if faulted.any():
                        bad = lanes[faulted]
                        final_pc[bad] = pc
                        for lane, cell in zip(bad.tolist(),
                                              address[faulted].tolist()):
                            errors[lane] = (f"TDM: address {cell} out of "
                                            f"range 0..{depth - 1}")
                            error_kinds[lane] = "MemoryError_"
                        lanes = lanes[~faulted]
                        if lanes.shape[0] == 0:
                            groups.remove(group)
                            continue
                        group.lanes = lanes
                        full = False
                        sel = lanes
                        address = address[~faulted]
                lane_rows = rows if full else lanes
                if op == OP_LOAD:
                    regs[ta][sel] = mem[lane_rows, address]
                else:
                    mem[lane_rows, address] = regs[ta][sel]
                    touched[lane_rows, address] = True
            elif op == OP_BEQ or op == OP_BNE:
                # lst == bt  <=>  (v+1) % 3 == bt+1 (values are congruent
                # mod 3 across the balanced range).
                if full:
                    np.add(regs[tb], 1, out=scratch)
                    scratch %= 3
                    if op == OP_BEQ:
                        np.equal(scratch, bt + 1, out=bool_scratch)
                    else:
                        np.not_equal(scratch, bt + 1, out=bool_scratch)
                    taken_mask = bool_scratch
                else:
                    last_trit = (regs[tb][lanes] + 1) % 3
                    if op == OP_BEQ:
                        taken_mask = last_trit == bt + 1
                    else:
                        taken_mask = last_trit != bt + 1
            elif op == OP_LI:
                if full:
                    row = regs[ta]
                    np.add(row, 121, out=scratch)
                    scratch %= 243
                    scratch -= 121
                    row -= scratch
                    row += imm
                else:
                    value = regs[ta][lanes]
                    regs[ta][lanes] = imm + value - ((value + 121) % 243 - 121)
            elif op == OP_MV:
                if full:
                    np.copyto(regs[ta], regs[tb])
                else:
                    regs[ta][lanes] = regs[tb][lanes]
            elif op == OP_SUB:
                if full:
                    row = regs[ta]
                    row -= regs[tb]
                    row += HALF
                    row %= MOD
                    row -= HALF
                else:
                    value = regs[ta][lanes] - regs[tb][lanes]
                    value += HALF
                    value %= MOD
                    value -= HALF
                    regs[ta][lanes] = value
            elif op == OP_JAL:
                if full:
                    regs[ta].fill(wrap(pc + 1))
                else:
                    regs[ta][lanes] = wrap(pc + 1)
            elif op == OP_JALR:
                jalr_targets = (regs[tb][sel] + imm) % MOD
                if full:
                    regs[ta].fill(wrap(pc + 1))
                else:
                    regs[ta][lanes] = wrap(pc + 1)
            elif op == OP_LUI:
                if full:
                    regs[ta].fill(wrap(imm * 243))
                else:
                    regs[ta][lanes] = wrap(imm * 243)
            elif op == OP_COMP:
                if full:
                    row = regs[ta]
                    row -= regs[tb]
                    np.sign(row, out=row)
                else:
                    regs[ta][lanes] = np.sign(regs[ta][lanes] - regs[tb][lanes])
            elif op == OP_SLI:
                if full:
                    row = regs[ta]
                    row *= _POW3[imm % 9]
                    row += HALF
                    row %= MOD
                    row -= HALF
                else:
                    value = regs[ta][lanes] * _POW3[imm % 9]
                    value += HALF
                    value %= MOD
                    value -= HALF
                    regs[ta][lanes] = value
            elif op == OP_SRI:
                power = _POW3[imm % 9]
                half = (power - 1) // 2
                if full:
                    row = regs[ta]
                    np.add(row, half, out=scratch)
                    scratch %= power
                    scratch -= half
                    row -= scratch
                    row //= power
                else:
                    value = regs[ta][lanes]
                    regs[ta][lanes] = (value - ((value + half) % power - half)) // power
            elif op == OP_SL:
                power = pow3_np[regs[tb][sel] % 9]
                value = regs[ta][sel] * power
                value += HALF
                value %= MOD
                value -= HALF
                regs[ta][sel] = value
            elif op == OP_SR:
                power = pow3_np[regs[tb][sel] % 9]
                half = (power - 1) // 2
                value = regs[ta][sel]
                regs[ta][sel] = (value - ((value + half) % power - half)) // power
            elif op == OP_AND or op == OP_OR or op == OP_XOR:
                trits_a = trits_np[regs[ta][sel] % MOD].astype(np.int64)
                trits_b = trits_np[regs[tb][sel] % MOD]
                if op == OP_AND:
                    planes = np.minimum(trits_a, trits_b)
                elif op == OP_OR:
                    planes = np.maximum(trits_a, trits_b)
                else:
                    planes = trits_a + trits_b
                    planes += 1
                    planes %= 3
                    planes -= 1
                regs[ta][sel] = planes @ pow3_np
            elif op == OP_PTI:
                if full:
                    np.mod(regs[tb], MOD, out=scratch)
                    np.take(pti_np, scratch, out=regs[ta])
                else:
                    regs[ta][lanes] = pti_np[regs[tb][lanes] % MOD]
            elif op == OP_NTI:
                if full:
                    np.mod(regs[tb], MOD, out=scratch)
                    np.take(nti_np, scratch, out=regs[ta])
                else:
                    regs[ta][lanes] = nti_np[regs[tb][lanes] % MOD]
            elif op == OP_STI:
                if full:
                    np.negative(regs[tb], out=regs[ta])
                else:
                    regs[ta][lanes] = -regs[tb][lanes]
            elif op == OP_ANDI:
                trits_a = trits_np[regs[ta][sel] % MOD].astype(np.int64)
                trits_b = trits_np[imm % MOD]
                regs[ta][sel] = np.minimum(trits_a, trits_b) @ pow3_np
            else:  # OP_HALT
                halt_now = True

            counts_row = counts[pc]
            if full:
                counts_row += 1
            else:
                counts_row[lanes] += 1
            group.max_exec += 1
            if with_stats and taken_mask is None:
                # Non-branches step before any JALR split, so every twin
                # inherits the stepped state.
                step(group.state, attrs[pc], False)

            if halt_now:
                if with_stats:
                    flush(group)
                halted[lanes] = True
                final_pc[lanes] = pc + 1
                groups.remove(group)
                continue

            if taken_mask is not None:
                n_taken = int(taken_mask.sum())
                if n_taken == 0 or n_taken == lanes.shape[0]:
                    taken = n_taken > 0
                    if with_stats:
                        step(group.state, attrs[pc], taken)
                    group.pc = pc + imm if taken else pc + 1
                else:
                    twin = group.split(lanes[taken_mask])
                    group.lanes = lanes[~taken_mask]
                    if with_stats:
                        step(group.state, attrs[pc], False)
                        step(twin.state, attrs[pc], True)
                    group.pc = pc + 1
                    twin.pc = pc + imm
                    groups.append(twin)
            elif jalr_targets is not None:
                targets = np.unique(jalr_targets)
                if targets.shape[0] == 1:
                    group.pc = int(targets[0])
                else:
                    for index, target in enumerate(targets.tolist()):
                        subset = lanes[jalr_targets == target]
                        if index == 0:
                            group.lanes = subset
                            group.pc = target
                        else:
                            twin = group.split(subset)
                            twin.pc = target
                            groups.append(twin)
            else:
                group.pc = pc + imm if op == OP_JAL else pc + 1

            # Reconverge: groups whose PC and timing window coincide are
            # architecturally indistinguishable and fold back into one.
            if len(groups) > 1:
                merged: Dict[tuple, _Group] = {}
                for grp in groups:
                    key = ((grp.pc, *grp.state[timing.WINDOW]) if with_stats
                           else grp.pc)
                    kept = merged.get(key)
                    if kept is None:
                        merged[key] = grp
                    else:
                        if with_stats:
                            flush(kept)
                            flush(grp)
                        kept.merge(grp)
                if len(merged) != len(groups):
                    groups = list(merged.values())

        # Per-lane executed counts are the column sums of the mix matrix
        # (fault-aborted accesses were never counted, matching the scalar
        # engines' decrement-on-fault behaviour).
        np.sum(counts, axis=0, out=self._executed)

    # -- result assembly ----------------------------------------------------

    def _outcomes(self, stats_limit: Optional[int]) -> List[LaneOutcome]:
        counts = self._counts
        # Aggregate the (L, B) mix matrix to per-mnemonic lane vectors once,
        # so per-lane mix assembly touches <= 25 entries instead of scanning
        # an L-row column for every lane.
        mnemonic_rows: Dict[str, List[int]] = {}
        for index, record in enumerate(self._records):
            mnemonic_rows.setdefault(_MNEMONIC_OF[record[0]], []).append(index)
        mnemonic_counts = [
            (mnemonic, counts[row_indices].sum(axis=0).tolist())
            for mnemonic, row_indices in mnemonic_rows.items()
        ]
        executed = self._executed.tolist()
        halted_list = self._halted.tolist()
        final_pcs = self._final_pc.tolist()
        if stats_limit is not None:
            lane_counters = self._lane_counters.T.tolist()
        outcomes: List[LaneOutcome] = []
        for lane in range(self._batch):
            if self._errors[lane] is not None:
                outcomes.append(LaneOutcome(
                    lane=lane,
                    error=self._errors[lane],
                    error_kind=self._error_kinds[lane],
                ))
                continue
            mix = {mnemonic: lane_counts[lane]
                   for mnemonic, lane_counts in mnemonic_counts
                   if lane_counts[lane]}
            committed = executed[lane]
            stats = None
            if stats_limit is not None:
                stats = timing.stats(lane_counters[lane], committed, dict(mix),
                                     self.machine)
                if stats.cycles > stats_limit:
                    outcomes.append(LaneOutcome(
                        lane=lane,
                        error=f"program did not halt within {stats_limit} cycles",
                        error_kind="SimulationError",
                    ))
                    continue
            addresses = np.nonzero(self._touched[lane])[0]
            memory = {int(address): int(self._mem[lane, address])
                      for address in addresses.tolist()}
            registers = {register_name(index): int(self._regs[index, lane])
                         for index in range(NUM_REGISTERS)}
            result = ExecutionResult(
                instructions_executed=committed,
                halted=halted_list[lane],
                registers=registers,
                pc=final_pcs[lane],
                instruction_mix=mix,
                memory=memory,
            )
            outcomes.append(LaneOutcome(lane=lane, result=result, stats=stats))
        return outcomes
