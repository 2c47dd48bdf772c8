"""Forwarding multiplexers of the ART-9 pipeline.

Two forwarding paths exist in the design of Fig. 4:

* **TALU input forwarding** (EX stage): results sitting in the EX/MEM or
  MEM/WB latches are routed back to the TALU inputs, removing ALU-use data
  hazards entirely.
* **ID-stage forwarding** (branch unit): the branch condition checker and
  the JALR base-address path in ID receive the newest available value of
  their register, including the value computed by the TALU in the *current*
  cycle — this is the "forwarding one-trit values" mechanism that keeps the
  branch datapath short.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.pipeline.stages import ExecuteLatch, MemoryLatch
from repro.sim.regfile import TernaryRegisterFile
from repro.ternary.word import TernaryWord


class ForwardingUnit:
    """Resolves register operands against in-flight pipeline results."""

    def __init__(self):
        self.ex_forwards = 0
        self.mem_forwards = 0
        self.id_forwards = 0

    # -- EX-stage operand forwarding ---------------------------------------------

    def forward_operand(
        self,
        register: Optional[int],
        read_value: TernaryWord,
        ex_mem: ExecuteLatch,
        mem_wb: MemoryLatch,
        mem_output: Optional[MemoryLatch] = None,
    ) -> TernaryWord:
        """Return the freshest value of ``register`` for the TALU input.

        Priority is EX/MEM (younger, closer producer) over MEM/WB over the
        register-file read performed in ID, matching the standard forwarding
        priority of five-stage RISC pipelines.  ``mem_output`` — passed only
        on machines with ``load_use_penalty == 0`` — is the MEM result
        produced *this* cycle, enabling a same-cycle bypass of a fresh load
        value into the TALU instead of a load-use stall.
        """
        if register is None:
            return read_value
        if ex_mem.valid:
            producer = ex_mem.decoded
            if producer.destination == register:
                if not producer.is_load:
                    if ex_mem.alu_result is not None:
                        self.ex_forwards += 1
                        return ex_mem.alu_result
                elif (mem_output is not None
                      and mem_output.writeback_value is not None):
                    self.mem_forwards += 1
                    return mem_output.writeback_value
        if mem_wb.valid and mem_wb.decoded.destination == register:
            if mem_wb.writeback_value is not None:
                self.mem_forwards += 1
                return mem_wb.writeback_value
        return read_value

    # -- ID-stage (branch / JALR) forwarding ---------------------------------------

    def forward_for_id(
        self,
        register: int,
        register_file: TernaryRegisterFile,
        ex_output: ExecuteLatch,
        mem_output: MemoryLatch,
    ) -> TernaryWord:
        """Return the freshest value of ``register`` visible to the ID stage.

        ``ex_output`` and ``mem_output`` are the latch values *produced in
        the current cycle* (the TALU output and the memory read data), which
        the dedicated ID-stage forwarding paths can observe.  Older values
        have already been written back to the TRF because write-back happens
        in the first half of the cycle.
        """
        if ex_output.valid:
            producer = ex_output.decoded
            if (producer.destination == register and not producer.is_load
                    and ex_output.alu_result is not None):
                self.id_forwards += 1
                return ex_output.alu_result
        if (mem_output.valid and mem_output.decoded.destination == register
                and mem_output.writeback_value is not None):
            self.id_forwards += 1
            return mem_output.writeback_value
        return register_file.read(register)

    def reset_statistics(self) -> None:
        """Zero all forwarding counters."""
        self.ex_forwards = 0
        self.mem_forwards = 0
        self.id_forwards = 0
