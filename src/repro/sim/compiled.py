"""Compiled-code execution engine: superblock codegen for ART-9 programs.

:class:`~repro.sim.engine.FastEngine` already executes on plain Python
integers, but it still pays per-instruction dispatch through a long
``if``/``elif`` chain on every dynamic instruction.  This module removes
that cost by *compiling the program to Python*:

1. the :class:`~repro.isa.program.Program` is pre-decoded once (by the
   analytic engines' shared shell) and partitioned into **superblocks** —
   straight-line runs that end at a control transfer (``BEQ``/``BNE``/
   ``JAL``/``JALR``/``HALT``) or just before a static branch target;
2. each superblock is emitted as one specialized Python function via
   ``compile()``/``exec``: registers live in local variables for the
   duration of the block, balanced-ternary wraparound is inlined
   arithmetically, immediates/targets/link values are folded to literal
   constants, and the trit-wise gates call the fast engine's gate
   functions and value tables;
3. execution dispatches block-to-block through a PC → function table.  A
   block is generated and compiled the first time execution dispatches
   its PC, so code a run never reaches costs nothing.  The same rule
   covers entry points that are not statically visible (``JALR`` returns
   land on the instruction after a call site, and a computed ``JALR`` can
   target any address): such a PC gets a *suffix* block, from there to
   the end of its superblock.  :meth:`CompiledEngine.prepare` instead
   compiles every static superblock up front.

The analytic timing model of :mod:`repro.sim.timing` is **fused into the
generated code**.  Inside a block the committed instruction stream is
statically known, so only the block's first two instructions, whose
hazards depend on the two-instruction window carried in from the previous
block, call the model's ``step`` at run time.  For the rest of the block
the codegen runs the same ``step`` at compile time and emits constant
counter increments plus the window the block leaves behind on its taken
and not-taken exits.  The timing state crosses block boundaries in a small
mutable state vector.

There is exactly one generated build per (program, TDM depth, machine),
and every run executes it — bit-identical to the fast engine (and
therefore to the functional and pipeline simulators — asserted by the
differential machinery in :mod:`repro.testing` and the golden-trace
suite).  ``run()`` returns the :class:`ExecutionResult`,
``run_with_stats()`` the :class:`PipelineStats` of the fused model, and
after either the engine's ``stats`` and :meth:`CompiledEngine.block_profile`
report the run.

Differences under *error* conditions are limited to internal engine state:
the instruction-budget check runs at block granularity, so a budget
overrun raises the same :class:`SimulationError` (identical message)
*before* executing the partial block instead of after it; out-of-range
memory accesses raise the same :class:`MemoryError_` mid-block with the
architectural prefix state (registers written so far, ``pc`` of the
faulting instruction, committed-instruction count) restored to match the
fast engine.

Generated blocks are deterministic functions of (program content,
codegen version, TDM depth, machine-config parameter digest), which is
what lets the cross-process artifact cache (:mod:`repro.cache`) ship their
code objects between sweep workers: ``CompiledEngine`` asks the cache for
the block bundle before generating, so a block is compiled once per grid
point across a whole worker fleet.
"""

from __future__ import annotations

import base64
import importlib.util
import marshal
import sys
from collections import OrderedDict
from time import perf_counter
from types import CodeType
from typing import Dict, List, Optional, Sequence, Tuple

from repro.isa.instructions import INSTRUCTION_SPECS
from repro.isa.program import Program
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
    OP_HALT,
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
    _AnalyticEngine,
    _MNEMONIC_OF,
    _OutOfBudget,
    _NTI_WORD,
    _POW3,
    _PTI_WORD,
    trit_and,
    trit_or,
    trit_xor,
    wrap,
)
from repro.sim.functional import ExecutionResult, SimulationError
from repro.sim.machine import MachineConfig
from repro.sim.memory import MemoryError_
from repro.sim.pipeline.stats import PipelineStats

#: Bumped whenever the shape of the generated code changes; part of the
#: artifact-cache key so stale cached sources can never be executed.
#: v3: optional profile-counter prologue (``profile=True`` engines).
#: v4: chained traces (seam flush constants, interior-branch bail-outs,
#: committed-count cell for variable-length traces).
#: v5: one variant — unchained superblocks, timing model always fused.
#: v6: timing through :mod:`repro.sim.timing` (run-time ``_step`` calls for
#: the carried prefix, compile-time constants for the rest).
#: v7: smaller blocks — a one-line ADDI wrap, ``_step`` reads the per-PC
#: attributes from ``_A``, the gates call the engine's functions.
CODEGEN_VERSION = 7

#: Interpreter identity for the marshalled code objects of an artifact:
#: ``marshal`` payloads are only valid for the exact bytecode format, so
#: the magic number keys them (a different interpreter simply regenerates
#: rather than loading garbage).
PYTHON_TAG = (
    f"{sys.implementation.name}-{sys.version_info[0]}.{sys.version_info[1]}-"
    f"{importlib.util.MAGIC_NUMBER.hex()}"
)

#: In-process memo of block bundles (entry pc → code object) keyed by the
#: pre-decoded records (small LRU): engines built for one program pay for
#: codegen once, artifact cache or not.  Every engine of a program fills in
#: the same bundle as it compiles blocks, so a block compiles once per
#: process — and once per *fleet* when the bundle is published to the
#: artifact cache.
_CODE_MEMO: "OrderedDict[tuple, Dict[int, CodeType]]" = OrderedDict()
_CODE_MEMO_CAP = 64

#: Opcodes that terminate a superblock.
_TERMINALS = frozenset((OP_BEQ, OP_BNE, OP_JAL, OP_JALR, OP_HALT))

#: Namespace names of the :mod:`repro.sim.engine` gate functions.
_GATES = {OP_AND: "_AND", OP_OR: "_OR", OP_XOR: "_XOR"}

# The state vector shared by the dispatch loop and every generated block is
# a :mod:`repro.sim.timing` state followed by two fault slots: the pc of a
# faulting access and its offset in the block.
_FAULT_PC, _FAULT_OFF = timing.STATE_LEN, timing.STATE_LEN + 1


def superblock_leaders(records: Sequence[tuple]) -> set:
    """Static block-entry addresses: 0, branch targets, fall-throughs."""
    length = len(records)
    leaders = {0} if length else set()
    for pc, (op, _ta, _tb, imm, _bt) in enumerate(records):
        if op in (OP_BEQ, OP_BNE, OP_JAL):
            target = pc + imm
            if 0 <= target < length:
                leaders.add(target)
        if op in _TERMINALS and pc + 1 < length:
            leaders.add(pc + 1)
    return leaders


def superblock_span(records: Sequence[tuple], leaders: set, entry: int) -> List[int]:
    """Addresses of the superblock entered at ``entry``."""
    span = []
    pc = entry
    length = len(records)
    while True:
        span.append(pc)
        if records[pc][0] in _TERMINALS:
            break
        nxt = pc + 1
        if nxt >= length or nxt in leaders:
            break
        pc = nxt
    return span


class _BlockWriter:
    """Line buffer with indentation for one generated function."""

    def __init__(self):
        self.lines: List[str] = []

    def emit(self, line: str, indent: int = 1) -> None:
        self.lines.append("    " * indent + line)

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


def generate_block_source(
    entry: int,
    span: Sequence[int],
    records: Sequence[tuple],
    attrs: Sequence[tuple],
    tdm_depth: int,
) -> str:
    """Emit the Python source of one superblock function.

    The function is named ``_blk_<entry>`` and has the signature
    ``(regs, mem, st) -> next_pc``.  ``attrs`` are the program's
    :func:`repro.sim.timing.attributes`, split by
    :func:`~repro.sim.timing.split_run`: the block steps the timing model
    at run time for its prefix, reading the attributes from the namespace
    table ``_A``, and adds the compile-time exits for the rest.
    """
    recs = [records[pc] for pc in span]
    n = len(recs)
    last_op = recs[-1][0]
    check_depth = tdm_depth != MOD

    w = _BlockWriter()
    w.emit(f"def _blk_{entry}(regs, mem, st):", 0)

    # -- register locals ----------------------------------------------------
    used = set()
    for op, ta, tb, _imm, _bt in recs:
        spec = INSTRUCTION_SPECS[_MNEMONIC_OF[op]]
        if spec.reads_ta or spec.writes_ta:
            used.add(ta)
        if spec.reads_tb:
            used.add(tb)
    for reg in sorted(used):
        w.emit(f"r{reg} = regs[{reg}]")
    if any(op == OP_LOAD for op, *_ in recs):
        w.emit("_mg = mem.get")
    written: set = set()

    def fault_guard(addr_var: str, pc: int, offset: int) -> None:
        w.emit(f"if {addr_var} >= {tdm_depth}:")
        for reg in sorted(written):
            w.emit(f"regs[{reg}] = r{reg}", 2)
        w.emit(f"st[{_FAULT_PC}] = {pc}", 2)
        w.emit(f"st[{_FAULT_OFF}] = {offset}", 2)
        w.emit(
            f"raise MemoryError_('TDM: address %d out of range 0..{tdm_depth - 1}'"
            f" % {addr_var})", 2)

    # -- per-instruction emission -------------------------------------------
    for k, pc in enumerate(span):
        op, ta, tb, imm, bt = recs[k]
        A, B = f"r{ta}", f"r{tb}"

        if op == OP_ADDI:
            if imm:
                # A balanced register plus a positive immediate can only
                # overflow, plus a negative one only underflow.
                edge, fix = ((f"<= {HALF - imm}", imm - MOD) if imm > 0
                             else (f">= {-HALF - imm}", imm + MOD))
                w.emit(f"{A} = {A} + {imm} if {A} {edge} else {A} + {fix}")
                written.add(ta)
        elif op == OP_ADD:
            w.emit(f"{A} += {A if ta == tb else B}")
            w.emit(f"if {A} > {HALF}:")
            w.emit(f"{A} -= {MOD}", 2)
            w.emit(f"elif {A} < {-HALF}:")
            w.emit(f"{A} += {MOD}", 2)
            written.add(ta)
        elif op == OP_LOAD:
            addr = f"({B} + {imm}) % {MOD}" if imm else f"{B} % {MOD}"
            w.emit(f"_a = {addr}")
            if check_depth:
                fault_guard("_a", pc, k)
            w.emit(f"{A} = _mg(_a, 0)")
            written.add(ta)
        elif op == OP_STORE:
            addr = f"({B} + {imm}) % {MOD}" if imm else f"{B} % {MOD}"
            if check_depth:
                w.emit(f"_a = {addr}")
                fault_guard("_a", pc, k)
                w.emit(f"mem[_a] = {A}")
            else:
                w.emit(f"mem[{addr}] = {A}")
        elif op in (OP_BEQ, OP_BNE):
            cmp = "==" if op == OP_BEQ else "!="
            w.emit(f"_tk = ({B} + 1) % 3 - 1 {cmp} {bt}")
        elif op == OP_LI:
            w.emit(f"{A} = {imm} + {A} - (({A} + 121) % 243 - 121)")
            written.add(ta)
        elif op == OP_MV:
            if ta != tb:
                w.emit(f"{A} = {B}")
                written.add(ta)
        elif op == OP_SUB:
            if ta == tb:
                w.emit(f"{A} = 0")
            else:
                w.emit(f"{A} -= {B}")
                w.emit(f"if {A} > {HALF}:")
                w.emit(f"{A} -= {MOD}", 2)
                w.emit(f"elif {A} < {-HALF}:")
                w.emit(f"{A} += {MOD}", 2)
            written.add(ta)
        elif op == OP_JAL:
            w.emit(f"{A} = {wrap(pc + 1)}")
            written.add(ta)
        elif op == OP_JALR:
            w.emit(f"_base = {B}")
            w.emit(f"{A} = {wrap(pc + 1)}")
            w.emit(f"_nx = (_base + {imm}) % {MOD}" if imm
                   else f"_nx = _base % {MOD}")
            written.add(ta)
        elif op == OP_LUI:
            w.emit(f"{A} = {wrap(imm * 243)}")
            written.add(ta)
        elif op == OP_COMP:
            if ta == tb:
                w.emit(f"{A} = 0")
            else:
                w.emit(f"{A} = ({A} > {B}) - ({A} < {B})")
            written.add(ta)
        elif op == OP_SLI:
            p3 = _POW3[imm % 9]
            if p3 != 1:
                w.emit(f"{A} = ({A} * {p3} + {HALF}) % {MOD} - {HALF}")
                written.add(ta)
        elif op == OP_SRI:
            p3 = _POW3[imm % 9]
            if p3 != 1:
                h = (p3 - 1) // 2
                w.emit(f"{A} = ({A} - (({A} + {h}) % {p3} - {h})) // {p3}")
                written.add(ta)
        elif op == OP_SL:
            w.emit(f"_p = P3[{B} % 9]")
            w.emit(f"{A} = ({A} * _p + {HALF}) % {MOD} - {HALF}")
            written.add(ta)
        elif op == OP_SR:
            w.emit(f"_p = P3[{B} % 9]")
            w.emit("_h = (_p - 1) // 2")
            w.emit(f"{A} = ({A} - (({A} + _h) % _p - _h)) // _p")
            written.add(ta)
        elif op in _GATES:
            w.emit(f"{A} = {_GATES[op]}({A}, {B})")
            written.add(ta)
        elif op == OP_PTI:
            w.emit(f"{A} = PTIT[{B} % {MOD}]")
            written.add(ta)
        elif op == OP_NTI:
            w.emit(f"{A} = NTIT[{B} % {MOD}]")
            written.add(ta)
        elif op == OP_STI:
            w.emit(f"{A} = -{B}")
            written.add(ta)
        elif op == OP_ANDI:
            w.emit(f"{A} = _AND({A}, {imm})")
            written.add(ta)
        # OP_HALT emits nothing: the driver reads the halt flag from the
        # block metadata and the fall-through return below yields pc + 1.

    # -- timing: the carried prefix steps the model at run time; the rest
    # of the block adds constant counters and leaves a constant window ------
    prefix, exits = timing.split_run([attrs[pc] for pc in span])
    taken = "_tk" if last_op in (OP_BEQ, OP_BNE) else "0"
    for k, pc in enumerate(span[:len(prefix)]):
        w.emit(f"_step(st, _A[{pc}], {taken if k == n - 1 else 0})")
    if exits is not None:
        taken_exit, fall_exit = exits
        arms = ([("", taken_exit)] if taken_exit == fall_exit
                else [("if _tk:", taken_exit), ("else:", fall_exit)])
        window = f"st[{timing.WINDOW.start}:{timing.WINDOW.stop}]"
        for head, (increments, values) in arms:
            indent = 2 if head else 1
            if head:
                w.emit(head)
            for slot, delta in increments:
                w.emit(f"st[{slot}] += {delta}", indent)
            w.emit(f"{window} = {values!r}", indent)

    for reg in sorted(written):
        w.emit(f"regs[{reg}] = r{reg}")

    last_pc = span[-1]
    last_imm = recs[-1][3]
    if last_op in (OP_BEQ, OP_BNE):
        w.emit(f"return {last_pc + last_imm} if _tk else {last_pc + 1}")
    elif last_op == OP_JAL:
        w.emit(f"return {last_pc + last_imm}")
    elif last_op == OP_JALR:
        w.emit("return _nx")
    else:  # HALT or fall-through into the next leader
        w.emit(f"return {last_pc + 1}")
    return w.source()


def _decode_bundle(payload) -> Optional[Dict[int, CodeType]]:
    """The entry pc → code object bundle of a codegen artifact, or ``None``.

    :mod:`repro.cache` promises that foreign junk is a miss, so anything
    but a marshalled dict of int → code objects is rejected here rather
    than crashing the engine (or ``exec``-ing a non-code value).
    """
    try:
        codes = marshal.loads(base64.b64decode(payload["code"]))
    except (KeyError, TypeError, ValueError, EOFError):
        return None
    if not isinstance(codes, dict) or not all(
            isinstance(entry, int) and isinstance(code, CodeType)
            for entry, code in codes.items()):
        return None
    return codes


class CompiledEngine(_AnalyticEngine):
    """Superblock-compiled interpreter for ART-9 programs.

    Construction mirrors :class:`~repro.sim.engine.FastEngine` (program,
    TDM depth, machine).  ``cache`` accepts an
    :class:`~repro.cache.ArtifactCache` (or ``None`` to disable); by
    default the process-wide cache of :func:`repro.cache.default_cache`
    is used, so concurrently running sweep workers compile each block of
    a program once between them.
    """

    def __init__(self, program: Program, tdm_depth: int = MOD,
                 cache: object = "default",
                 machine: Optional[MachineConfig] = None):
        super().__init__(program, tdm_depth, machine)
        # The generated blocks share the timing state, extended by the two
        # fault slots.
        self._timing += [0, 0]
        self._leaders = superblock_leaders(self._records)
        self._namespace = {
            "__builtins__": {},
            "MemoryError_": MemoryError_,
            "_AND": trit_and,
            "_OR": trit_or,
            "_XOR": trit_xor,
            "PTIT": _PTI_WORD,
            "NTIT": _NTI_WORD,
            "P3": _POW3,
            "_A": self._attrs,
            "_step": timing.step,
        }
        # entry pc → (fn, length, halts, entry idx)
        self._table: Dict[int, tuple] = {}
        # the shared bundle backing the table, and whether it holds blocks
        # this engine compiled but not published
        self._bundle: Optional[Dict[int, CodeType]] = None
        self._unpublished = False
        # entry idx → block mnemonics / dispatch count
        self._mnemonics: List[Tuple[str, ...]] = []
        self._counts: List[int] = []
        self._fault_partial: Optional[Tuple[int, int]] = None
        self._digest: Optional[str] = None
        #: Seconds :meth:`_block` spent generating and compiling blocks.
        self.codegen_s = 0.0
        if cache == "default":
            from repro.cache import default_cache
            cache = default_cache()
        self._cache = cache

    # -- codegen ------------------------------------------------------------

    def content_digest(self) -> str:
        if self._digest is None:
            self._digest = self.program.content_digest()
        return self._digest

    def _cache_key_material(self) -> dict:
        return {
            "program_digest": self.content_digest(),
            "codegen_version": CODEGEN_VERSION,
            "python": PYTHON_TAG,
            "tdm_depth": self.tdm_depth,
            # A config change is a cache miss, never a wrong-timing hit.
            "machine": self.machine.digest(),
        }

    def _cached_bundle(self) -> Optional[Dict[int, CodeType]]:
        """The artifact cache's bundle of this program, or ``None``."""
        if self._cache is None:
            return None
        return _decode_bundle(
            self._cache.get_json("codegen", self._cache_key_material()))

    def _shared_bundle(self) -> Dict[int, CodeType]:
        """The entry pc → code object bundle of this program build.

        Resolution order: in-process memo, then the cross-process artifact
        cache (marshalled code objects, orders of magnitude cheaper to
        load than re-running ``compile``), else a new empty bundle.  The
        result is the memo entry that every engine of the build in this
        process takes blocks from and compiles new blocks into.

        The memo keys on the pre-decoded records themselves (codegen is a
        pure function of them plus the TDM depth and machine), so a memo
        hit never pays for a program content digest; the digest is only
        computed when the disk cache has to be consulted.
        """
        memo_key = (tuple(self._records), CODEGEN_VERSION, self.tdm_depth,
                    self.machine.digest())
        bundle = _CODE_MEMO.get(memo_key)
        if bundle is not None:
            _CODE_MEMO.move_to_end(memo_key)
            return bundle
        bundle = self._cached_bundle() or {}
        _CODE_MEMO[memo_key] = bundle
        while len(_CODE_MEMO) > _CODE_MEMO_CAP:
            _CODE_MEMO.popitem(last=False)
        return bundle

    def _block(self, entry: int) -> tuple:
        """Install the block entered at ``entry``; returns its table record.

        This is the one way to get a block, for a static leader and a
        mid-block suffix alike: take its code from the shared bundle, or
        else generate its source and ``compile()`` it into the bundle,
        which :meth:`_publish` then writes out.
        """
        if self._bundle is None:
            self._bundle = self._shared_bundle()
        codes = self._bundle
        span = superblock_span(self._records, self._leaders, entry)
        code = codes.get(entry)
        if code is None:
            started = perf_counter()
            source = generate_block_source(
                entry, span, self._records, self._attrs, self.tdm_depth)
            codes[entry] = code = compile(
                source, f"<art9 block {entry}>", "exec")
            self.codegen_s += perf_counter() - started
            self._unpublished = True
        exec(code, self._namespace)
        idx = len(self._mnemonics)
        self._mnemonics.append(tuple(
            _MNEMONIC_OF[self._records[pc][0]] for pc in span))
        self._counts.append(0)
        record = (self._namespace[f"_blk_{entry}"], len(span),
                  self._records[span[-1]][0] == OP_HALT, idx)
        self._table[entry] = record
        return record

    def _publish(self) -> None:
        """Write the bundle to the artifact cache if this engine compiled
        blocks since its last publish.

        The current cache entry is re-read and merged in first: workers
        compiling *different* blocks of one program would otherwise
        overwrite each other last-write-wins (a block's content is
        deterministic, so a merge conflict cannot change behaviour — only
        who pays ``compile()``).
        """
        if not self._unpublished or self._cache is None:
            return
        self._unpublished = False
        codes = self._bundle
        for entry, code in (self._cached_bundle() or {}).items():
            codes.setdefault(entry, code)
        self._cache.put_json("codegen", self._cache_key_material(), {
            "code": base64.b64encode(marshal.dumps(codes)).decode("ascii"),
        })

    # -- execution ----------------------------------------------------------

    def prepare(self) -> None:
        """Compile (or load) every static superblock now, then publish.

        Execution compiles a block only when it first dispatches its PC;
        ``prepare`` gets every static leader's block the same way up
        front.  Sweep jobs call it so that their phase breakdown charges
        the static blocks' codegen to ``codegen_s`` rather than to the
        run, and so that the published bundle covers the whole program.
        """
        for entry in sorted(self._leaders):
            if entry not in self._table:
                self._block(entry)
        self._publish()

    def run(self, max_instructions: int = 10_000_000) -> ExecutionResult:
        """Run until HALT; same contract and limits as the fast engine."""
        self._run_to_halt(max_instructions, "instructions")
        return self._result()

    def run_with_stats(self, max_cycles: int = 50_000_000) -> PipelineStats:
        """Execute and return pipeline statistics identical to the 5-stage model."""
        return self._run_timed(max_cycles)

    def _execute(self, limit: int) -> None:
        """Run the block loop, advancing the shared timing state.

        A PC dispatched for the first time gets its block from
        :meth:`_block`; the blocks a run compiled are published once, when
        it ends.
        """
        st = self._timing
        table_get = self._table.get
        regs = self._regs
        mem = self._mem
        counts = self._counts
        program_length = len(self._records)
        pc = self.pc
        executed = self.instructions_executed
        halted = self.halted

        try:
            while not halted:
                if executed >= limit:
                    raise _OutOfBudget
                if not 0 <= pc < program_length:
                    raise SimulationError(
                        f"PC {pc} outside program of {program_length} "
                        "instructions"
                    )
                entry = table_get(pc)
                if entry is None:
                    entry = self._block(pc)
                fn, length, halts, idx = entry
                if executed + length > limit:
                    # A block commits all of its instructions, so the fast
                    # engine would run out of budget inside it.
                    raise _OutOfBudget
                counts[idx] += 1
                try:
                    pc = fn(regs, mem, st)
                except MemoryError_:
                    pc = st[_FAULT_PC]
                    executed += st[_FAULT_OFF]
                    self._fault_partial = (idx, st[_FAULT_OFF])
                    raise
                executed += length
                if halts:
                    halted = True
        finally:
            self.pc = pc
            self.instructions_executed = executed
            self.halted = halted
            self._publish()

    # -- inspection helpers -------------------------------------------------

    def instruction_mix(self) -> Dict[str, int]:
        """Mnemonic → dynamic execution count (fault-aware)."""
        mix: Dict[str, int] = {}
        for idx, count in enumerate(self._counts):
            if count:
                for mnemonic in self._mnemonics[idx]:
                    mix[mnemonic] = mix.get(mnemonic, 0) + count
        if self._fault_partial is not None:
            idx, offset = self._fault_partial
            for mnemonic in self._mnemonics[idx][offset:]:
                mix[mnemonic] -= 1
                if not mix[mnemonic]:
                    del mix[mnemonic]
        return mix

    def block_profile(self) -> List[dict]:
        """Execution profile rows from the dispatch loop's block counts.

        Each row carries the entry PC of a block the runs dispatched, how
        many times they dispatched it, its length, and the dynamic
        instructions it accounts for.  The instruction totals sum to
        ``instructions_executed``: a mid-block memory fault charges the
        faulting block only its committed prefix, matching the loop's
        accounting, which is what lets ``art9 profile`` cross-check the
        table against the engine.
        """
        fault_idx = fault_offset = None
        if self._fault_partial is not None:
            fault_idx, fault_offset = self._fault_partial
        rows = []
        for pc, (_fn, length, _halts, idx) in sorted(self._table.items()):
            executions = self._counts[idx]
            if not executions:
                continue  # installed (e.g. by prepare()), never run
            instructions = executions * length
            if idx == fault_idx:
                instructions -= length - fault_offset
            rows.append({
                "pc": pc,
                "executions": executions,
                "length": length,
                "instructions": instructions,
            })
        return rows
