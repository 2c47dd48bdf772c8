"""The cycle-accurate 5-stage pipeline simulator (Fig. 4 of the paper).

Stage model
-----------

Within one simulated cycle the stages are evaluated in reverse order
(WB, MEM, EX, ID, IF) over the latch values captured at the start of the
cycle, which reproduces the behaviour of the real pipeline:

* write-back happens in the first half of the cycle, so a register written
  in WB is visible to the register read performed in ID of the same cycle
  (the TRF has asynchronous read ports, Sec. IV-B);
* the TALU result computed in EX this cycle is visible to the ID-stage
  branch condition checker and JALR base path through the dedicated
  ID forwarding network ("forwarding one-trit values", Sec. IV-B);
* the EX/MEM and MEM/WB latches feed the TALU forwarding multiplexers,
  removing all ALU-use hazards.

The only hardware-inserted stall cycles are load-use hazards (one bubble)
and taken branches/jumps (one flushed fetch), matching the statement in
Sec. IV-B that those are the only observed stall sources.

Predecoded records
------------------

The constructor decodes TIM once into :attr:`PipelineSimulator.predecoded`,
one :class:`~repro.sim.pipeline.stages.PredecodedInstruction` per PC.  A
record holds the mnemonic, the operand fields, the register dataflow
(destination and sources), the load/store/control/jump/ALU/HALT flags and
the machine's static fetch steering (the predicted-taken bit and the
fixed-mispredict rule of JAL/JALR).  IF puts the record of the fetched PC
into the IF/ID latch, and it rides the latches to WB: the HDU, the
forwarding multiplexers, the ID branch unit, the TALU dispatch and the
retire accounting all read its fields.

Pipeline registers
------------------

Each of IF/ID, ID/EX, EX/MEM and MEM/WB is a pair of latches built with
the simulator: the current one (``if_id``, ``id_ex``, ``ex_mem``,
``mem_wb``), which the stages read, and the next one, which its producing
stage fills in place.  :meth:`PipelineSimulator.step_cycle` swaps every pair
at the clock edge, so the clock builds no objects.  A bubble is a latch
with ``valid`` False.  On a load-use stall IF copies the held IF/ID fields
into the next latch, so the consumer is decoded again the following cycle.

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
committed, and stop the clock on HALT) at the configured stage, with the
remaining stages drained outside the cycle count.
"""

from __future__ import annotations

from typing import Optional

from repro.isa.program import Program
from repro.sim.alu import TernaryALU
from repro.sim.functional import SimulationError
from repro.sim.memory import TernaryMemory
from repro.sim.pipeline.branch import BranchUnit
from repro.sim.pipeline.forwarding import ForwardingUnit
from repro.sim.machine import MachineConfig, resolve_machine
from repro.sim.pipeline.hazards import HazardDetectionUnit
from repro.sim.pipeline.stages import (
    DecodeLatch,
    ExecuteLatch,
    FetchLatch,
    MemoryLatch,
    PredecodedInstruction,
)
from repro.sim.pipeline.stats import PipelineStats
from repro.sim.regfile import TernaryRegisterFile
from repro.ternary.word import WORD_TRITS, TernaryWord


class PipelineSimulator:
    """Cycle-accurate simulator of the pipelined ART-9 core."""

    def __init__(self, program: Program, tdm_depth: int = 3 ** WORD_TRITS,
                 machine: Optional[MachineConfig] = None):
        self.program = program
        self.machine = resolve_machine(machine)
        self.registers = TernaryRegisterFile()
        self.tim_words = program.encode()  # validates that the program encodes
        #: TIM predecoded once: one record per PC, carried by the latches.
        self.predecoded = tuple(
            PredecodedInstruction(instruction, self.machine)
            for instruction in program.instructions)
        self.tdm = TernaryMemory(depth=tdm_depth, name="TDM")
        self.alu = TernaryALU()
        self.hdu = HazardDetectionUnit(
            load_use_penalty=self.machine.load_use_penalty)
        self.forwarding = ForwardingUnit()
        self.branch_unit = BranchUnit()
        self.stats = PipelineStats()
        #: Stage (1=IF .. 5=WB) at which instructions count as committed.
        self.retire_stage = self.machine.depth
        # A load-use penalty of 0 means a same-cycle MEM-output bypass.
        self._mem_bypass = self.machine.load_use_penalty == 0

        self.pc = 0
        self.halted = False
        self._draining = False
        # Pipelined I-fetch refill: bubbles still owed before the next fetch
        # can deliver (initial fill, and redirect_penalty after a redirect).
        self._fetch_bubbles = self.machine.fetch_latency

        # Each pipeline register: the latch the stages read this cycle and
        # the one its stage fills for the next (see step_cycle).
        self.if_id, self._if_id_next = FetchLatch(), FetchLatch()
        self.id_ex, self._id_ex_next = DecodeLatch(), DecodeLatch()
        self.ex_mem, self._ex_mem_next = ExecuteLatch(), ExecuteLatch()
        self.mem_wb, self._mem_wb_next = MemoryLatch(), MemoryLatch()

        for segment in program.data:
            self.tdm.load_words(segment.values, base=segment.base_address)

    # ------------------------------------------------------------------ stages

    def _writeback(self) -> None:
        """WB: commit the MEM/WB latch to the register file."""
        latch = self.mem_wb
        if not latch.valid:
            return
        destination = latch.decoded.destination
        if destination is not None and latch.writeback_value is not None:
            self.registers.write(destination, latch.writeback_value)
        if self.retire_stage == 5:
            self._retire(latch.decoded)

    def _retire(self, decoded: PredecodedInstruction) -> None:
        """Commit accounting at the configured retire stage.

        Register/memory side effects always happen in their structural
        stages; this hook only decides *when* an instruction counts as
        committed and when HALT stops the cycle counter.
        """
        stats = self.stats
        stats.instructions_committed += 1
        mix = stats.instruction_mix
        mix[decoded.mnemonic] = mix.get(decoded.mnemonic, 0) + 1
        if decoded.is_halt:
            self.halted = True

    def _memory(self) -> MemoryLatch:
        """MEM: perform the TDM access of the EX/MEM latch.

        Fills and returns the next MEM/WB latch.
        """
        latch = self.ex_mem
        out = self._mem_wb_next
        if not latch.valid:
            out.valid = False
            return out
        decoded = latch.decoded
        writeback_value = latch.alu_result
        if decoded.is_load:
            writeback_value = self.tdm.read(latch.memory_address)
        elif decoded.is_store:
            self.tdm.write(latch.memory_address, latch.store_value)
            writeback_value = None
        out.valid = True
        out.pc = latch.pc
        out.decoded = decoded
        out.writeback_value = writeback_value
        return out

    def _execute(self, mem_output: Optional[MemoryLatch] = None) -> ExecuteLatch:
        """EX: run the TALU (with forwarding) or compute the memory address.

        Fills and returns the next EX/MEM latch.  ``mem_output`` is the MEM
        result produced this cycle; it is passed only on machines whose
        load-use penalty is 0, where it feeds the same-cycle load bypass in
        the forwarding unit.
        """
        latch = self.id_ex
        out = self._ex_mem_next
        if not latch.valid:
            out.valid = False
            return out
        decoded = latch.decoded

        operand_a = latch.operand_a
        operand_b = latch.operand_b
        if decoded.reads_ta:
            operand_a = self.forwarding.forward_operand(
                decoded.ta, operand_a, self.ex_mem, self.mem_wb, mem_output
            )
        if decoded.reads_tb:
            operand_b = self.forwarding.forward_operand(
                decoded.tb, operand_b, self.ex_mem, self.mem_wb, mem_output
            )

        alu_result: Optional[TernaryWord] = None
        store_value: Optional[TernaryWord] = None
        memory_address: Optional[int] = None

        if decoded.is_alu:
            alu_result = self.alu.compute(
                decoded.mnemonic, operand_a, operand_b, decoded.imm)
        elif decoded.is_load or decoded.is_store:
            memory_address = self.alu.effective_address(operand_b, decoded.imm)
            if decoded.is_store:
                store_value = operand_a
        elif decoded.is_jump:
            # The link value (PC + 1) was computed in ID; it rides down the
            # pipeline as the writeback value.
            alu_result = TernaryWord(latch.link_value, WORD_TRITS)
        # Conditional branches and HALT carry nothing: they were fully
        # resolved in ID and only flow through for commit accounting.

        out.valid = True
        out.pc = latch.pc
        out.decoded = decoded
        out.alu_result = alu_result
        out.store_value = store_value
        out.memory_address = memory_address
        return out

    def _decode(self, ex_output: ExecuteLatch, mem_output: MemoryLatch):
        """ID: hazard check, register read, branch resolution.

        Fills the next ID/EX latch and returns ``(stall, redirect_target)``.
        """
        latch = self.if_id
        out = self._id_ex_next
        if not latch.valid:
            out.valid = False
            return False, None
        decoded = latch.decoded

        if self.hdu.check(decoded, self.id_ex).stall:
            out.valid = False
            return True, None

        registers = self.registers
        operand_a = registers.read(decoded.ta) if decoded.reads_ta else None
        operand_b = registers.read(decoded.tb) if decoded.reads_tb else None

        redirect_target = None
        link_value = None
        if decoded.is_control:
            tb_value = None
            if decoded.reads_tb:
                tb_value = self.forwarding.forward_for_id(
                    decoded.tb, registers, ex_output, mem_output
                )
            outcome = self.branch_unit.evaluate(decoded, latch.pc, tb_value)
            # The front end already steered fetch by the static prediction;
            # redirect only on a mispredict.  JALR is indirect, so its
            # target is never known at fetch time and it always redirects
            # (even when the computed target happens to equal PC + 1).
            mispredicted = decoded.fixed_mispredict
            if mispredicted is None:
                mispredicted = outcome.taken != decoded.predicted_taken
            if mispredicted:
                redirect_target = (
                    outcome.target if outcome.taken else latch.pc + 1)
            link_value = outcome.link_value
        elif decoded.is_halt:
            # Stop fetching; let the HALT drain to WB to finish the run.
            self._draining = True

        out.valid = True
        out.pc = latch.pc
        out.decoded = decoded
        out.operand_a = operand_a
        out.operand_b = operand_b
        out.link_value = link_value
        return False, redirect_target

    def _fetch(self, stall: bool, redirect_target: Optional[int]) -> FetchLatch:
        """IF: fetch the next instruction (or hold / squash / refill).

        Fills and returns the next IF/ID latch.
        """
        out = self._if_id_next
        if stall:
            # IF/ID holds: the next latch takes the held instruction, and
            # the PC does not advance.
            held = self.if_id
            out.valid = held.valid
            out.pc = held.pc
            out.decoded = held.decoded
            return out
        if redirect_target is not None:
            self.pc = redirect_target
            penalty = self.machine.redirect_penalty
            self.stats.control_flush_bubbles += penalty
            self._fetch_bubbles = penalty
        if self._fetch_bubbles > 0:
            self._fetch_bubbles -= 1
            out.valid = False
            return out
        pc = self.pc
        if self._draining:
            out.valid = False
            return out
        if not 0 <= pc < len(self.predecoded):
            # An instruction in flight may still redirect fetch, so wait
            # until every latch has drained (older instructions retire, as
            # on the other executors).  Reaching here means no bubble or
            # redirect is pending, so then nothing can steer fetch back.
            if not (self._id_ex_next.valid or self._ex_mem_next.valid
                    or self._mem_wb_next.valid):
                raise SimulationError(
                    f"PC {pc} outside program of {len(self.predecoded)} "
                    "instructions")
            out.valid = False
            return out
        decoded = self.predecoded[pc]
        self.pc = pc + decoded.imm if decoded.predicted_taken else pc + 1
        out.valid = True
        out.pc = pc
        out.decoded = decoded
        return out

    # ------------------------------------------------------------------ driver

    def step_cycle(self) -> None:
        """Advance the machine by one clock cycle."""
        self.stats.cycles += 1

        self._writeback()
        mem_wb_next = self._memory()
        ex_mem_next = self._execute(mem_wb_next if self._mem_bypass else None)
        stall, redirect_target = self._decode(ex_mem_next, mem_wb_next)
        if_id_next = self._fetch(stall, redirect_target)
        id_ex_next = self._id_ex_next

        retire_stage = self.retire_stage
        if retire_stage == 4 and mem_wb_next.valid:
            self._retire(mem_wb_next.decoded)
        elif retire_stage == 3 and ex_mem_next.valid:
            self._retire(ex_mem_next.decoded)
        elif retire_stage == 2 and id_ex_next.valid:
            self._retire(id_ex_next.decoded)

        # Clock edge: every register shows what its stage filled, and the
        # latch it showed is the one filled next cycle.
        self._mem_wb_next, self.mem_wb = self.mem_wb, mem_wb_next
        self._ex_mem_next, self.ex_mem = self.ex_mem, ex_mem_next
        self._id_ex_next, self.id_ex = self.id_ex, id_ex_next
        self._if_id_next, self.if_id = self.if_id, if_id_next

    def _drain_uncounted(self) -> None:
        """Complete the structural stages past the retire stage.

        When the retire stage is earlier than WB, the cycle counter stops
        as soon as HALT retires, but older instructions still hold EX/MEM/WB
        work (register writes, TDM accesses).  Flush them through without
        counting cycles or commits; HALT itself carries no side effects, so
        the extra passes touch no statistics.
        """
        for _ in range(5 - self.retire_stage):
            self._writeback()
            mem_wb_next = self._memory()
            ex_mem_next = self._execute(
                mem_wb_next if self._mem_bypass else None)
            self._mem_wb_next, self.mem_wb = self.mem_wb, mem_wb_next
            self._ex_mem_next, self.ex_mem = self.ex_mem, ex_mem_next
            self.id_ex.valid = False

    def run(self, max_cycles: int = 50_000_000) -> PipelineStats:
        """Run until the HALT instruction commits (or ``max_cycles``)."""
        if not self.program.instructions:
            raise SimulationError("cannot simulate an empty program")
        while not self.halted:
            if self.stats.cycles >= max_cycles:
                raise SimulationError(
                    f"program did not halt within {max_cycles} cycles"
                )
            self.step_cycle()
        self._drain_uncounted()
        self._finalize_stats()
        return self.stats

    def _finalize_stats(self) -> None:
        self.stats.load_use_stalls = self.hdu.load_use_stalls
        self.stats.taken_branches = self.branch_unit.taken_branches
        self.stats.not_taken_branches = self.branch_unit.not_taken_branches
        self.stats.jumps = self.branch_unit.jumps
        self.stats.ex_forwards = self.forwarding.ex_forwards
        self.stats.mem_forwards = self.forwarding.mem_forwards
        self.stats.id_forwards = self.forwarding.id_forwards

    # ------------------------------------------------------------------ helpers

    def register_snapshot(self) -> dict:
        """Name → integer value of the architectural registers."""
        return self.registers.snapshot()

    def memory_values(self, base: int, count: int) -> list:
        """Read ``count`` consecutive TDM words starting at ``base``."""
        return self.tdm.dump(base, count)
