"""The cycle-accurate 5-stage pipeline simulator (Fig. 4 of the paper).

Stage model
-----------

Within one simulated cycle the stages are evaluated in reverse order
(WB, MEM, EX, ID, IF) over the pipeline registers captured at the start of
the cycle, which reproduces the behaviour of the real pipeline:

* write-back happens in the first half of the cycle, so a register written
  in WB is visible to the register read performed in ID of the same cycle
  (the TRF has asynchronous read ports, Sec. IV-B);
* the TALU result computed in EX this cycle is visible to the ID-stage
  branch condition checker and JALR base path through the dedicated
  ID forwarding network ("forwarding one-trit values", Sec. IV-B);
* the EX/MEM and MEM/WB registers feed the TALU forwarding multiplexers,
  removing all ALU-use hazards.

The only hardware-inserted stall cycles are load-use hazards (one bubble)
and taken branches/jumps (one flushed fetch), matching the statement in
Sec. IV-B that those are the only observed stall sources.

The clock
---------

:meth:`PipelineSimulator.run` is the whole clock: one loop whose body is
one cycle, written as labelled sections for WB, MEM (with the TDM port and
its depth and word-width checks), EX (with the forwarding multiplexers),
ID (with the hazard detection unit, the register read ports and the branch
decision) and IF, then the retire accounting and the clock edge.  The four
pipeline registers, the fetch refill and the drain state are local
variables of that one call: a pipeline register is the predecoded record
it carries (``None`` for a bubble) and its fields, and each stage writes
its output into locals that the clock edge moves into the next register.
On a load-use stall IF/ID holds its record, so the consumer is decoded
again the following cycle.  When the loop ends, at HALT, at the cycle
budget or on a fault, the PC, the halt flag and the counters are stored
into the simulator and :attr:`PipelineSimulator.stats`.  A simulator runs
once; a second :meth:`~PipelineSimulator.run` raises
:class:`~repro.sim.functional.SimulationError`, as the analytic engines'
timed runs do.

The branch decision is the ID stage's dedicated target adder and condition
checker (Sec. IV-B): BEQ is taken when the least-significant trit of the
forwarded Tb word equals the instruction's branch trit and BNE when it
differs, both targeting ``PC + imm``; JAL jumps to ``PC + imm`` and JALR
to ``Tb + imm`` wrapped into the 9-trit address space, and both link
``PC + 1``.  The computed address is forwarded directly to the PC, so a
redirect squashes exactly the fetches the machine's redirect penalty
names, and a correctly predicted branch costs nothing.

Predecoded records
------------------

The constructor checks TIM with
:func:`~repro.isa.encoder.validate_instruction`, the operand check every
executor shares, and decodes it once into
:attr:`PipelineSimulator.predecoded`, one :class:`PredecodedInstruction`
per PC.  A record holds the mnemonic, the operand fields, the register
dataflow (destination and sources), the load/store/control/jump/ALU/HALT
flags, the TALU operation and the machine's static fetch steering (the
predicted-taken bit and the fixed-mispredict rule of JAL/JALR).  IF
fetches the record of its PC and it rides the pipeline registers to WB:
the hazard detection unit, the forwarding multiplexers, the branch
decision, the TALU dispatch and the retire accounting all read its fields.

Machine configs
---------------

The structural wiring above is parameterized by a
:class:`~repro.sim.machine.MachineConfig`: the retire stage (pipeline
depth), the fetch-steering predictor and redirect penalty (branch policy
and penalties), the initial fetch refill (I-fetch latency) and whether an
adjacent load consumer stalls or takes a same-cycle MEM-output bypass
(load-use penalty).  The default ``paper3stage`` config reproduces the
behaviour described above exactly.  At depths below 5 instructions still
traverse all five structural stages; they merely *retire* (count as
committed, and stop the clock on HALT) at the configured stage, and the
clock then drains the older instructions through the remaining stages
without counting those passes as cycles.
"""

from __future__ import annotations

from typing import Optional

from repro.isa.encoder import validate_instruction
from repro.isa.instructions import Instruction
from repro.isa.program import Program
from repro.sim.alu import TernaryALU, constant_word
from repro.sim.functional import SimulationError
from repro.sim.machine import MachineConfig, resolve_machine
from repro.sim.memory import TernaryMemory, address_fault, width_fault
from repro.sim.pipeline.stats import PipelineStats
from repro.sim.regfile import TernaryRegisterFile
from repro.ternary.word import WORD_TRITS

#: Addresses wrap into the unsigned window of a 9-trit register.
_ADDRESS_SPACE = 3 ** WORD_TRITS


class PredecodedInstruction:
    """One TIM word decoded once, before the run; it rides IF to WB.

    It copies the operand fields, the dataflow of the spec (``reads_ta``,
    ``reads_tb``, ``destination``, ``sources``) and the class flags, and
    adds the TALU ``operation`` of an ALU instruction (its
    ``handler(operand_a, operand_b, imm)``) and the machine's static fetch
    steering:

    ``predicted_taken``
        IF steers fetch to ``PC + imm`` instead of ``PC + 1``.
    ``fixed_mispredict``
        Whether ID redirects fetch regardless of the outcome: always for
        JALR (indirect, so fetch never has its target), for JAL unless the
        machine folds it at fetch; None for conditional branches, which
        redirect when the outcome differs from ``predicted_taken``.
    """

    __slots__ = (
        "instruction", "mnemonic", "ta", "tb", "imm", "branch_trit",
        "reads_ta", "reads_tb", "destination", "sources",
        "is_load", "is_store", "is_control", "is_jump", "is_alu", "is_halt",
        "operation", "predicted_taken", "fixed_mispredict",
    )

    def __init__(self, instruction: Instruction, machine: MachineConfig):
        spec = instruction.spec
        mnemonic = instruction.mnemonic
        self.instruction = instruction
        self.mnemonic = mnemonic
        self.ta = instruction.ta
        self.tb = instruction.tb
        self.imm = instruction.imm
        self.branch_trit = instruction.branch_trit
        self.reads_ta = spec.reads_ta
        self.reads_tb = spec.reads_tb
        self.destination = instruction.destination()
        self.sources = instruction.sources()
        self.is_load = spec.is_load
        self.is_store = spec.is_store
        self.is_control = spec.is_control
        self.is_jump = spec.is_jump
        self.is_alu = spec.category in ("R", "I")
        self.is_halt = mnemonic == "HALT"
        self.operation = TernaryALU.HANDLERS[mnemonic] if self.is_alu else None
        self.predicted_taken = machine.predicts_taken(
            mnemonic, instruction.imm or 0)
        if mnemonic == "JALR":
            self.fixed_mispredict = True
        elif mnemonic == "JAL":
            self.fixed_mispredict = not machine.folds_jal
        else:
            self.fixed_mispredict = None

    def __repr__(self) -> str:
        return f"PredecodedInstruction({self.instruction.render()!r})"


class PipelineSimulator:
    """Cycle-accurate simulator of the pipelined ART-9 core."""

    def __init__(self, program: Program, tdm_depth: int = 3 ** WORD_TRITS,
                 machine: Optional[MachineConfig] = None):
        self.program = program
        self.machine = resolve_machine(machine)
        self.registers = TernaryRegisterFile()
        for instruction in program.instructions:
            validate_instruction(instruction)
        #: TIM predecoded once: one record per PC.
        self.predecoded = tuple(
            PredecodedInstruction(instruction, self.machine)
            for instruction in program.instructions)
        self.tdm = TernaryMemory(depth=tdm_depth, name="TDM")
        self.stats = PipelineStats()
        self.pc = 0
        self.halted = False
        for segment in program.data:
            self.tdm.load_words(segment.values, base=segment.base_address)

    def run(self, max_cycles: int = 50_000_000) -> PipelineStats:
        """Clock until the HALT instruction retires (or ``max_cycles``).

        When HALT retires before WB the loop goes on for the passes the
        older instructions still need to finish their EX/MEM/WB work
        (register writes, TDM accesses); those passes count no cycles and
        commit nothing.  A simulator runs once: a second call raises
        :class:`SimulationError`.
        """
        if not self.program.instructions:
            raise SimulationError("cannot simulate an empty program")
        stats = self.stats
        if stats.cycles:
            raise SimulationError(
                f"engine state already consumed; build a fresh "
                f"{type(self).__name__} for timing statistics"
            )
        mix = stats.instruction_mix
        regs = self.registers.words
        tdm = self.tdm
        tdm_cells = tdm.cells
        tdm_zero = tdm.zero
        tdm_depth = tdm.depth
        tdm_width = tdm.width
        predecoded = self.predecoded
        program_length = len(predecoded)
        machine = self.machine
        retire_stage = machine.depth  # 1 = IF .. 5 = WB
        # A load-use penalty of 0 means a same-cycle MEM-output bypass.
        mem_bypass = machine.load_use_penalty == 0
        redirect_penalty = machine.redirect_penalty

        pc = 0
        halted = draining = False
        # Pipelined I-fetch refill: bubbles still owed before the next fetch
        # can deliver (initial fill, and redirect_penalty after a redirect).
        fetch_bubbles = machine.fetch_latency
        # Each pipeline register: the record it carries (None for a bubble)
        # and its fields, which the clock edge sets and which are read only
        # while the record is not None.
        if_id = id_ex = ex_mem = mem_wb = None
        # Stage outputs, under the same rule.
        if_out_pc = 0
        mem_out_value = id_out_a = id_out_b = id_out_link = None
        ex_out_result = ex_out_store = ex_out_address = None

        cycles = committed = load_use_stalls = control_flush_bubbles = 0
        taken_branches = not_taken_branches = jumps = 0
        ex_forwards = mem_forwards = id_forwards = 0

        # Uncounted passes still owed once HALT retires.  IF stopped when
        # ID decoded HALT, so everything younger is a bubble and these
        # passes commit nothing.
        drain = 5 - retire_stage
        try:
            while True:
                if halted:
                    if not drain:
                        break
                    drain -= 1
                elif cycles >= max_cycles:
                    break
                else:
                    cycles += 1

                # ---- WB: commit MEM/WB to the TRF (first half-cycle).
                if mem_wb is not None:
                    destination = mem_wb.destination
                    if destination is not None and mem_wb_value is not None:
                        regs[destination] = mem_wb_value

                # ---- MEM: the TDM access of EX/MEM, with the port's depth
                # and word-width checks (EX wrapped the address into
                # 0 .. 3**9 - 1).
                mem_out = ex_mem
                if ex_mem is not None:
                    mem_out_value = ex_mem_result
                    if ex_mem.is_load:
                        if ex_mem_address >= tdm_depth:
                            raise address_fault(
                                tdm.name, ex_mem_address, tdm_depth)
                        mem_out_value = tdm_cells.get(ex_mem_address, tdm_zero)
                    elif ex_mem.is_store:
                        if ex_mem_address >= tdm_depth:
                            raise address_fault(
                                tdm.name, ex_mem_address, tdm_depth)
                        if ex_mem_store.width != tdm_width:
                            raise width_fault(
                                tdm.name, ex_mem_store.width, tdm_width)
                        tdm_cells[ex_mem_address] = ex_mem_store
                        mem_out_value = None

                # ---- EX: the TALU behind its forwarding multiplexers, or
                # the address adder of LOAD/STORE.
                ex_out = id_ex
                if id_ex is not None:
                    operand_a = id_ex_a
                    operand_b = id_ex_b
                    if id_ex.reads_ta or id_ex.reads_tb:
                        # Forwarding multiplexers.  Priority: EX/MEM (the
                        # younger producer), then MEM/WB, then the TRF value
                        # read in ID.  EX/MEM forwards an ALU or link result;
                        # a load's word only through the same-cycle MEM
                        # bypass, which counts as a MEM forward.
                        ex_register = None
                        if ex_mem is not None:
                            if not ex_mem.is_load:
                                if ex_mem_result is not None:
                                    ex_register = ex_mem.destination
                                    ex_value = ex_mem_result
                                    ex_from_mem = False
                            elif mem_bypass:
                                ex_register = ex_mem.destination
                                ex_value = mem_out_value
                                ex_from_mem = True
                        mem_register = None
                        if mem_wb is not None and mem_wb_value is not None:
                            mem_register = mem_wb.destination
                        if id_ex.reads_ta:
                            register = id_ex.ta
                            if register == ex_register:
                                operand_a = ex_value
                                if ex_from_mem:
                                    mem_forwards += 1
                                else:
                                    ex_forwards += 1
                            elif register == mem_register:
                                operand_a = mem_wb_value
                                mem_forwards += 1
                        if id_ex.reads_tb:
                            register = id_ex.tb
                            if register == ex_register:
                                operand_b = ex_value
                                if ex_from_mem:
                                    mem_forwards += 1
                                else:
                                    ex_forwards += 1
                            elif register == mem_register:
                                operand_b = mem_wb_value
                                mem_forwards += 1
                    ex_out_result = ex_out_store = ex_out_address = None
                    if id_ex.is_alu:
                        ex_out_result = id_ex.operation(
                            operand_a, operand_b, id_ex.imm)
                    elif id_ex.is_load or id_ex.is_store:
                        ex_out_address = (
                            (operand_b.value + id_ex.imm) % _ADDRESS_SPACE)
                        if id_ex.is_store:
                            ex_out_store = operand_a
                    elif id_ex.is_jump:
                        # The link value (PC + 1) was computed in ID; it
                        # rides down the pipeline as the writeback value.
                        ex_out_result = constant_word(id_ex_link, WORD_TRITS)
                    # Conditional branches and HALT carry nothing: they were
                    # resolved in ID and flow on for commit accounting.

                # ---- ID: hazard detection, register read, branch decision.
                id_out = if_id
                stall = False
                redirect = None
                if if_id is not None:
                    # HDU: the LOAD in EX writes a register this instruction
                    # reads.  With the MEM bypass (load-use penalty 0) only
                    # ID consumers (branch condition, JALR base) must wait.
                    if (id_ex is not None and id_ex.is_load
                            and id_ex.destination in if_id.sources
                            and (not mem_bypass or if_id.is_control)):
                        load_use_stalls += 1
                        stall = True
                        id_out = None
                    else:
                        id_out_a = regs[if_id.ta] if if_id.reads_ta else None
                        id_out_b = regs[if_id.tb] if if_id.reads_tb else None
                        id_out_link = None
                        if if_id.is_control:
                            if if_id.reads_tb:
                                # ID forwarding: this cycle's TALU output,
                                # then this cycle's memory output, then the
                                # TRF (WB already wrote this cycle's value).
                                register = if_id.tb
                                if (ex_out is not None
                                        and ex_out.destination == register
                                        and not ex_out.is_load
                                        and ex_out_result is not None):
                                    id_forwards += 1
                                    tb_value = ex_out_result
                                elif (mem_out is not None
                                      and mem_out.destination == register
                                      and mem_out_value is not None):
                                    id_forwards += 1
                                    tb_value = mem_out_value
                                else:
                                    tb_value = id_out_b
                            # Branch decision: the condition checker
                            # compares Tb's least-significant trit with the
                            # branch trit; jumps are always taken and link
                            # PC + 1.
                            if if_id.is_jump:
                                jumps += 1
                                taken = True
                                id_out_link = if_id_pc + 1
                            else:
                                matches = tb_value.lst == if_id.branch_trit
                                taken = (matches if if_id.mnemonic == "BEQ"
                                         else not matches)
                                if taken:
                                    taken_branches += 1
                                else:
                                    not_taken_branches += 1
                            # Fetch already followed the static prediction;
                            # redirect only on a mispredict.  JALR is
                            # indirect, so fetch never has its target and it
                            # always redirects (even to PC + 1).
                            mispredicted = if_id.fixed_mispredict
                            if mispredicted is None:
                                mispredicted = taken != if_id.predicted_taken
                            if mispredicted:
                                if not taken:
                                    redirect = if_id_pc + 1
                                elif if_id.mnemonic == "JALR":
                                    # The target adder on the forwarded
                                    # base, wrapped into 0 .. 3**9 - 1.
                                    redirect = ((tb_value.value + if_id.imm)
                                                % _ADDRESS_SPACE)
                                else:
                                    redirect = if_id_pc + if_id.imm
                        elif if_id.is_halt:
                            # Stop fetching; HALT drains to retire.
                            draining = True

                # ---- IF: hold on a stall, else redirect, refill or fetch.
                if stall:
                    if_out = if_id
                    if_out_pc = if_id_pc
                else:
                    if redirect is not None:
                        pc = redirect
                        control_flush_bubbles += redirect_penalty
                        fetch_bubbles = redirect_penalty
                    if fetch_bubbles > 0:
                        fetch_bubbles -= 1
                        if_out = None
                    elif draining:
                        if_out = None
                    elif 0 <= pc < program_length:
                        if_out = predecoded[pc]
                        if_out_pc = pc
                        pc = (pc + if_out.imm if if_out.predicted_taken
                              else pc + 1)
                    elif id_out is None and ex_out is None and mem_out is None:
                        # Nothing in flight can redirect fetch back into
                        # the program (older instructions have retired, as
                        # on the other executors).
                        raise SimulationError(
                            f"PC {pc} outside program of {program_length} "
                            "instructions")
                    else:
                        if_out = None

                # ---- Retire: commit accounting at the retire stage; the
                # side effects happen in their structural stages.
                if retire_stage == 5:
                    retiring = mem_wb
                elif retire_stage == 4:
                    retiring = mem_out
                elif retire_stage == 3:
                    retiring = ex_out
                else:
                    retiring = id_out
                if retiring is not None:
                    committed += 1
                    mnemonic = retiring.mnemonic
                    mix[mnemonic] = mix.get(mnemonic, 0) + 1
                    if retiring.is_halt:
                        halted = True

                # ---- Clock edge: each register takes its stage's output.
                mem_wb = mem_out
                mem_wb_value = mem_out_value
                ex_mem = ex_out
                ex_mem_result = ex_out_result
                ex_mem_store = ex_out_store
                ex_mem_address = ex_out_address
                id_ex = id_out
                id_ex_a = id_out_a
                id_ex_b = id_out_b
                id_ex_link = id_out_link
                if_id = if_out
                if_id_pc = if_out_pc
        finally:
            self.pc = pc
            self.halted = halted
            stats.cycles = cycles
            stats.instructions_committed = committed
            stats.load_use_stalls = load_use_stalls
            stats.control_flush_bubbles = control_flush_bubbles
            stats.taken_branches = taken_branches
            stats.not_taken_branches = not_taken_branches
            stats.jumps = jumps
            stats.ex_forwards = ex_forwards
            stats.mem_forwards = mem_forwards
            stats.id_forwards = id_forwards
        if not halted:
            raise SimulationError(
                f"program did not halt within {max_cycles} cycles"
            )
        return stats

    def register_snapshot(self) -> dict:
        """Name → integer value of the architectural registers."""
        return self.registers.snapshot()
