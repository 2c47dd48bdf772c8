"""Fast-path execution engine for ART-9 programs.

The object-model simulators (:class:`~repro.sim.functional.FunctionalSimulator`
and the cycle-accurate pipeline) execute every instruction through per-trit
``TernaryWord``/``Trit`` churn: each ADD allocates a tuple of nine trits, each
register read returns an immutable word object, and so on.  That is the right
representation for gate-level attribution, but it is far too slow for large
workload sweeps.

:class:`FastEngine` is the speed-oriented counterpart.  It pre-decodes each
:class:`~repro.isa.program.Program` once into flat dispatch records (small-int
opcode tag, register indices, plain-int immediate) and then executes on Python
integers, with balanced-ternary wraparound done arithmetically instead of
digit-by-digit.  Per-trit operations (the AND/OR/XOR gates and the PTI/NTI
inverters) index word tables over the 3**9 = 19 683 value universe that fill
one entry on its first lookup, so no ``TernaryWord`` is allocated anywhere on
the hot path and a process pays only for the words it actually gates.

Every run applies the analytic timing model of :mod:`repro.sim.timing`
once per straight-line run (from a control-transfer target to the next
control transfer or HALT): a run that ends for the second time is split by
:func:`~repro.sim.timing.split_run`, so from then on only its first
:data:`~repro.sim.timing.CARRIED` instructions are stepped and the rest add
folded counters.  ``run()`` returns the exact :class:`ExecutionResult` of
the functional simulator (bit-identical registers, memory, PC, halt flag
and instruction mix), ``run_with_stats()`` the pipeline simulator's
:class:`PipelineStats` under a cycle budget, and after either the
engine's ``stats`` hold the run's statistics.  Both are asserted
bit-identical by the differential tests in ``repro.testing``, at a
fraction of the object models' cost.

The shell both analytic engines share, :class:`_AnalyticEngine`, lives
here too: pre-decode into dispatch records, the data-segment load, the
architectural and timing state, the result, the budget checks and the
accessors.  :class:`FastEngine` and
:class:`~repro.sim.compiled.CompiledEngine` add only an execution loop
and ``instruction_mix()``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.isa.encoder import validate_instruction
from repro.isa.program import Program
from repro.isa.registers import NUM_REGISTERS, register_name
from repro.sim import timing
from repro.sim.functional import ExecutionResult, SimulationError
from repro.sim.machine import MachineConfig, resolve_machine
from repro.sim.memory import MemoryError_
from repro.sim.pipeline.stats import PipelineStats
from repro.ternary.conversion import int_to_trits, trits_to_int
from repro.ternary.word import WORD_TRITS

#: Modulus and half-range of the 9-trit balanced datapath.
MOD = 3 ** WORD_TRITS
HALF = (MOD - 1) // 2

# Small-int opcode tags of the dispatch records.  The interpreter's if/elif
# chain tests them in this order, which is not the order of dynamic
# frequency: on the default sweep grid LOAD (22.5 %), STORE (19.5 %) and MV
# (15.6 %) lead.
OP_ADDI = 0
OP_ADD = 1
OP_LOAD = 2
OP_STORE = 3
OP_BEQ = 4
OP_BNE = 5
OP_LI = 6
OP_MV = 7
OP_SUB = 8
OP_JAL = 9
OP_JALR = 10
OP_LUI = 11
OP_COMP = 12
OP_SLI = 13
OP_SRI = 14
OP_SL = 15
OP_SR = 16
OP_AND = 17
OP_OR = 18
OP_XOR = 19
OP_PTI = 20
OP_NTI = 21
OP_STI = 22
OP_ANDI = 23
OP_HALT = 24

_OPCODES = {
    "ADDI": OP_ADDI, "ADD": OP_ADD, "LOAD": OP_LOAD, "STORE": OP_STORE,
    "BEQ": OP_BEQ, "BNE": OP_BNE, "LI": OP_LI, "MV": OP_MV, "SUB": OP_SUB,
    "JAL": OP_JAL, "JALR": OP_JALR, "LUI": OP_LUI, "COMP": OP_COMP,
    "SLI": OP_SLI, "SRI": OP_SRI, "SL": OP_SL, "SR": OP_SR, "AND": OP_AND,
    "OR": OP_OR, "XOR": OP_XOR, "PTI": OP_PTI, "NTI": OP_NTI, "STI": OP_STI,
    "ANDI": OP_ANDI, "HALT": OP_HALT,
}

_MNEMONIC_OF = {code: name for name, code in _OPCODES.items()}

_POW3 = tuple(3 ** k for k in range(WORD_TRITS))


def wrap(value: int) -> int:
    """Wrap ``value`` into the balanced range of a 9-trit word.

    Arithmetic equivalent of dropping the carry out of the most significant
    trit of a fixed-width balanced adder.
    """
    return (value + HALF) % MOD - HALF


class _LazyTable(dict):
    """Word table keyed by unsigned index ``0 <= u < 3**9``.

    An entry is computed by ``build(u)`` on its first lookup and kept, so
    ``table[u]`` stays one subscript on the hot paths (and in generated
    code) without building all 19 683 entries up front.
    """

    __slots__ = ("_build",)

    def __init__(self, build):
        super().__init__()
        self._build = build

    def __missing__(self, unsigned: int):
        if not 0 <= unsigned < MOD:
            raise KeyError(unsigned)
        entry = self[unsigned] = self._build(unsigned)
        return entry


# Value tables shared by every engine instance:
#   _TRITS[u]     little-endian 9-trit tuple of the word with unsigned index u
#   _PTI_WORD[u]  balanced value of the trit-wise PTI of that word
#   _NTI_WORD[u]  balanced value of the trit-wise NTI of that word
_TRITS = _LazyTable(lambda unsigned: tuple(int_to_trits(unsigned, WORD_TRITS)))
_PTI_WORD = _LazyTable(lambda unsigned: trits_to_int(
    [-1 if t == 1 else 1 for t in _TRITS[unsigned]]))
_NTI_WORD = _LazyTable(lambda unsigned: trits_to_int(
    [1 if t == -1 else -1 for t in _TRITS[unsigned]]))


# Trit-wise gates on balanced word values (AND is the trit minimum, OR the
# maximum, XOR the balanced sum mod 3); FastEngine and the compiled
# engine's generated code both call these.
def trit_and(a: int, b: int) -> int:
    x = _TRITS[a % MOD]
    y = _TRITS[b % MOD]
    v = 0
    for k in range(WORD_TRITS - 1, -1, -1):
        xa = x[k]
        yb = y[k]
        v = v * 3 + (xa if xa < yb else yb)
    return v


def trit_or(a: int, b: int) -> int:
    x = _TRITS[a % MOD]
    y = _TRITS[b % MOD]
    v = 0
    for k in range(WORD_TRITS - 1, -1, -1):
        xa = x[k]
        yb = y[k]
        v = v * 3 + (xa if xa > yb else yb)
    return v


def trit_xor(a: int, b: int) -> int:
    x = _TRITS[a % MOD]
    y = _TRITS[b % MOD]
    v = 0
    for k in range(WORD_TRITS - 1, -1, -1):
        v = v * 3 + (x[k] + y[k] + 1) % 3 - 1
    return v


class _MemoryView:
    """Read-only ``TernaryMemory``-shaped facade over an engine's int cells.

    Provides the ``read_int``/``dump`` surface that the workload result
    checkers and inspection helpers expect, so an analytic engine can be
    dropped in wherever a finished simulator is examined.
    """

    def __init__(self, cells: Dict[int, int], depth: int):
        self._cells = cells
        self.depth = depth

    def read_int(self, address: int) -> int:
        if not 0 <= address < self.depth:
            raise MemoryError_(
                f"TDM: address {address} out of range 0..{self.depth - 1}"
            )
        return self._cells.get(address, 0)

    def dump(self, base: int, count: int) -> List[int]:
        return [self.read_int(base + offset) for offset in range(count)]

    def contents(self) -> Dict[int, int]:
        """Touched cells as an address → balanced-value mapping."""
        return dict(self._cells)


def _predecode(program: Program) -> List[Tuple[int, int, int, int, int]]:
    """``(op, ta, tb, imm, branch_trit)`` dispatch records, one per PC.

    Each instruction goes through
    :func:`~repro.isa.encoder.validate_instruction` first, so a malformed
    program fails with the encoder's :class:`~repro.isa.encoder.EncodeError`
    rather than corrupting the integer state; absent operands become 0.
    """
    records = []
    for instruction in program.instructions:
        validate_instruction(instruction)
        records.append((
            _OPCODES[instruction.mnemonic],
            instruction.ta or 0,
            instruction.tb or 0,
            instruction.imm or 0,
            instruction.branch_trit or 0,
        ))
    return records


class _OutOfBudget(Exception):
    """Raised by an execution loop that reached its instruction limit."""


class _AnalyticEngine:
    """The shell of the two analytic engines.

    It owns the pre-decoded records and the program's timing attributes,
    the architectural state (registers, TDM cells, PC, halt flag,
    committed count) and the timing state that every run advances, and
    around an engine's execution loop the budget messages, the
    ``ExecutionResult`` and the ``run_with_stats()`` refusals.  An engine
    supplies ``_execute(limit)``, which runs until HALT and raises
    :class:`_OutOfBudget` before committing past ``limit`` instructions,
    and ``instruction_mix()``.  Each engine defines its ``run`` and
    ``run_with_stats`` entry points itself, on top of
    :meth:`_run_to_halt` and :meth:`_run_timed`.
    """

    def __init__(self, program: Program, tdm_depth: int = MOD,
                 machine: Optional[MachineConfig] = None):
        self.program = program
        self.tdm_depth = tdm_depth
        self.machine = resolve_machine(machine)
        self._records = _predecode(program)
        self._attrs = timing.attributes(program.instructions, self.machine)
        self._mem: Dict[int, int] = {}
        for segment in program.data:
            for offset, value in enumerate(segment.values):
                address = segment.base_address + offset
                if not 0 <= address < tdm_depth:
                    raise MemoryError_(
                        f"TDM: address {address} out of range 0..{tdm_depth - 1}"
                    )
                self._mem[address] = wrap(value)
        self._regs = [0] * NUM_REGISTERS
        self.pc = 0
        self.halted = False
        self.instructions_executed = 0
        self._timing = timing.new_state()

    def _run_to_halt(self, limit: int, unit: str) -> None:
        """Run the engine's loop, reporting an exhausted ``limit`` in ``unit``."""
        try:
            self._execute(limit)
        except _OutOfBudget:
            raise SimulationError(
                f"program did not halt within {limit} {unit}") from None

    def _result(self) -> ExecutionResult:
        return ExecutionResult(
            instructions_executed=self.instructions_executed,
            halted=self.halted,
            registers=self.register_snapshot(),
            pc=self.pc,
            instruction_mix=self.instruction_mix(),
            memory=dict(self._mem),
        )

    def _run_timed(self, max_cycles: int) -> PipelineStats:
        """Run a fresh engine to HALT within ``max_cycles`` and return its stats.

        Every cycle commits at most one instruction, so ``max_cycles`` also
        bounds the loop's instruction count.
        """
        if not self.program.instructions:
            raise SimulationError("cannot simulate an empty program")
        if self.instructions_executed or self.halted:
            raise SimulationError(
                f"engine state already consumed; build a fresh "
                f"{type(self).__name__} for timing statistics"
            )
        self._run_to_halt(max_cycles, "cycles")
        stats = self.stats
        if stats.cycles > max_cycles:
            raise SimulationError(
                f"program did not halt within {max_cycles} cycles"
            )
        return stats

    # -- inspection helpers -------------------------------------------------

    @property
    def stats(self) -> PipelineStats:
        """Pipeline statistics of the instructions committed so far."""
        return timing.stats(self._timing, self.instructions_executed,
                            self.instruction_mix(), self.machine)

    @property
    def tdm(self) -> _MemoryView:
        """Workload-checker-compatible view of the ternary data memory."""
        return _MemoryView(self._mem, self.tdm_depth)

    def register_snapshot(self) -> Dict[str, int]:
        """Name → integer value of the architectural registers."""
        return {register_name(i): value for i, value in enumerate(self._regs)}


class FastEngine(_AnalyticEngine):
    """Pre-decoded integer interpreter for ART-9 programs.

    Parameters mirror :class:`FunctionalSimulator`: a program, the TDM
    depth and the machine config its timing follows.
    """

    def __init__(self, program: Program, tdm_depth: int = MOD,
                 machine: Optional[MachineConfig] = None):
        super().__init__(program, tdm_depth, machine)
        self._exec_counts = [0] * len(self._records)
        # Start of the straight-line run in progress, kept across calls so
        # a run resumed after an error still times it whole.
        self._run_start = 0

    def run(self, max_instructions: int = 10_000_000) -> ExecutionResult:
        """Run until HALT; same contract and limits as the functional model."""
        self._run_to_halt(max_instructions, "instructions")
        return self._result()

    def run_with_stats(self, max_cycles: int = 50_000_000) -> PipelineStats:
        """Execute and return pipeline statistics identical to the pipeline model."""
        return self._run_timed(max_cycles)

    def _execute(self, limit: int) -> None:
        # Hot loop: every mutable piece of state is bound to a local.
        records = self._records
        program_length = len(records)
        regs = self._regs
        mem = self._mem
        counts = self._exec_counts
        depth = self.tdm_depth
        check_depth = depth != MOD
        pti_table = _PTI_WORD
        nti_table = _NTI_WORD
        pc = self.pc
        executed = self.instructions_executed
        halted = self.halted
        # Timing, once per straight-line run: a run starts at ``start`` and
        # ends at the next control transfer or HALT, so its start fixes its
        # end.  The first time a run ends it is stepped whole; the second
        # time it is split (``timing.split_run``) into the prefix stepped
        # at every end and the folded exits, a plan kept for the rest of
        # this call.
        state = self._timing
        step = timing.step
        attrs = self._attrs
        window = timing.WINDOW
        ended = set()
        plans: Dict[int, tuple] = {}
        start = self._run_start

        try:
            while not halted:
                if executed >= limit:
                    raise _OutOfBudget
                if not 0 <= pc < program_length:
                    raise SimulationError(
                        f"PC {pc} outside program of {program_length} instructions"
                    )
                op, ta, tb, imm, bt = records[pc]
                counts[pc] += 1
                executed += 1
                next_pc = pc + 1
                # Set only by an instruction that ends a run: the conditional
                # branch outcome, False for jumps and HALT.
                taken = None

                if op == OP_ADDI:
                    v = regs[ta] + imm
                    if v > HALF:
                        v -= MOD
                    elif v < -HALF:
                        v += MOD
                    regs[ta] = v
                elif op == OP_ADD:
                    v = regs[ta] + regs[tb]
                    if v > HALF:
                        v -= MOD
                    elif v < -HALF:
                        v += MOD
                    regs[ta] = v
                elif op == OP_LOAD:
                    address = (regs[tb] + imm) % MOD
                    if check_depth and address >= depth:
                        # The faulting access aborts before the instruction
                        # counts, mirroring the functional simulator's
                        # TernaryMemory check.
                        counts[pc] -= 1
                        executed -= 1
                        raise MemoryError_(
                            f"TDM: address {address} out of range 0..{depth - 1}"
                        )
                    regs[ta] = mem.get(address, 0)
                elif op == OP_STORE:
                    address = (regs[tb] + imm) % MOD
                    if check_depth and address >= depth:
                        counts[pc] -= 1
                        executed -= 1
                        raise MemoryError_(
                            f"TDM: address {address} out of range 0..{depth - 1}"
                        )
                    mem[address] = regs[ta]
                elif op == OP_BEQ or op == OP_BNE:
                    lst = (regs[tb] + 1) % 3 - 1
                    taken = (lst == bt) if op == OP_BEQ else (lst != bt)
                    if taken:
                        next_pc = pc + imm
                elif op == OP_LI:
                    v = regs[ta]
                    regs[ta] = imm + v - ((v + 121) % 243 - 121)
                elif op == OP_MV:
                    regs[ta] = regs[tb]
                elif op == OP_SUB:
                    v = regs[ta] - regs[tb]
                    if v > HALF:
                        v -= MOD
                    elif v < -HALF:
                        v += MOD
                    regs[ta] = v
                elif op == OP_JAL:
                    regs[ta] = wrap(pc + 1)
                    next_pc = pc + imm
                    taken = False
                elif op == OP_JALR:
                    base = regs[tb]
                    regs[ta] = wrap(pc + 1)
                    next_pc = (base + imm) % MOD
                    taken = False
                elif op == OP_LUI:
                    regs[ta] = wrap(imm * 243)
                elif op == OP_COMP:
                    a = regs[ta]
                    b = regs[tb]
                    regs[ta] = (a > b) - (a < b)
                elif op == OP_SLI:
                    regs[ta] = wrap(regs[ta] * _POW3[imm % 9])
                elif op == OP_SRI:
                    amount = imm % 9
                    p = _POW3[amount]
                    h = (p - 1) // 2
                    v = regs[ta]
                    regs[ta] = (v - ((v + h) % p - h)) // p
                elif op == OP_SL:
                    regs[ta] = wrap(regs[ta] * _POW3[regs[tb] % 9])
                elif op == OP_SR:
                    p = _POW3[regs[tb] % 9]
                    h = (p - 1) // 2
                    v = regs[ta]
                    regs[ta] = (v - ((v + h) % p - h)) // p
                elif op == OP_AND:
                    regs[ta] = trit_and(regs[ta], regs[tb])
                elif op == OP_OR:
                    regs[ta] = trit_or(regs[ta], regs[tb])
                elif op == OP_XOR:
                    regs[ta] = trit_xor(regs[ta], regs[tb])
                elif op == OP_PTI:
                    regs[ta] = pti_table[regs[tb] % MOD]
                elif op == OP_NTI:
                    regs[ta] = nti_table[regs[tb] % MOD]
                elif op == OP_STI:
                    regs[ta] = -regs[tb]
                elif op == OP_ANDI:
                    regs[ta] = trit_and(regs[ta], imm)
                else:  # OP_HALT
                    halted = True
                    taken = False

                if taken is not None:
                    plan = plans.get(start)
                    if plan is None and start in ended:
                        plan = plans[start] = timing.split_run(
                            attrs[start:pc + 1])
                    if plan is None:
                        ended.add(start)
                        for attributes in attrs[start:pc + 1]:
                            step(state, attributes, taken)
                    else:
                        prefix, exits = plan
                        for attributes in prefix:
                            step(state, attributes, taken)
                        if exits is not None:
                            increments, exit_window = (
                                exits[0] if taken else exits[1])
                            for slot, delta in increments:
                                state[slot] += delta
                            state[window] = exit_window
                    start = next_pc

                pc = next_pc
        finally:
            self.pc = pc
            self.instructions_executed = executed
            self.halted = halted
            self._run_start = start

    def instruction_mix(self) -> Dict[str, int]:
        """Mnemonic → dynamic execution count."""
        mix: Dict[str, int] = {}
        records = self._records
        for index, count in enumerate(self._exec_counts):
            if count:
                mnemonic = _MNEMONIC_OF[records[index][0]]
                mix[mnemonic] = mix.get(mnemonic, 0) + count
        return mix
