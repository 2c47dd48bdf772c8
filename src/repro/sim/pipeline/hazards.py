"""The hazard detection unit (HDU) of the ID stage.

The ART-9 pipeline resolves almost every data hazard with forwarding; the
HDU only has to insert hardware-level stalls in two situations (Sec. IV-B):

* **load-use hazards** — the instruction in ID needs a register that the
  LOAD currently in EX will only produce at the end of MEM; and
* **taken branches / jumps** — handled by the branch unit as a one-cycle
  flush rather than by the HDU, but counted alongside.

When a stall is required the HDU asserts the stall control signal: the PC
and IF/ID latch hold their values and a NOP is selected into ID/EX, exactly
the mechanism described for the main decoder in the paper.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.pipeline.stages import DecodeLatch, PredecodedInstruction


class HazardDecision:
    """Outcome of the HDU for the instruction currently in ID.

    ``reason`` is rendered from the two instructions only when something
    reads it, so a stall costs no assembly rendering.
    """

    __slots__ = ("stall", "_register", "_producer", "_consumer")

    def __init__(self, stall: bool = False, register: Optional[int] = None,
                 producer: Optional[PredecodedInstruction] = None,
                 consumer: Optional[PredecodedInstruction] = None):
        self.stall = stall
        self._register = register
        self._producer = producer
        self._consumer = consumer

    @property
    def reason(self) -> str:
        """Why the HDU stalled (empty when it did not)."""
        if not self.stall:
            return ""
        return (f"load-use hazard on T{self._register} "
                f"({self._producer.instruction.render()} -> "
                f"{self._consumer.instruction.render()})")


#: The decision of every cycle that does not stall.
NO_STALL = HazardDecision()


class HazardDetectionUnit:
    """Compares the adjacent instructions in ID and EX to find stalls.

    ``load_use_penalty`` comes from the machine config: at the default 1 a
    consumer adjacent to a LOAD always stalls one bubble; at 0 the machine
    has a same-cycle MEM-output bypass into the TALU, so only ID-stage
    consumers (the branch condition / JALR base path, which need the value
    a stage before MEM produces it) still stall.
    """

    def __init__(self, load_use_penalty: int = 1):
        self.load_use_penalty = load_use_penalty
        self.load_use_stalls = 0

    def check(self, decoding: PredecodedInstruction,
              id_ex: DecodeLatch) -> HazardDecision:
        """Decide whether the instruction entering ID must stall one cycle.

        ``decoding`` is the instruction in ID; ``id_ex`` is the latch feeding
        EX (i.e. the immediately preceding instruction).  The only stall
        source is the load-use case: the preceding instruction is a LOAD and
        ``decoding`` reads its destination register.  Everything else is
        resolved by the forwarding multiplexers.
        """
        if not id_ex.valid:
            return NO_STALL
        producer = id_ex.decoded
        if not producer.is_load:
            return NO_STALL
        load_destination = producer.destination
        if load_destination is None:
            return NO_STALL
        if load_destination in decoding.sources and (
            self.load_use_penalty >= 1 or decoding.is_control
        ):
            self.load_use_stalls += 1
            return HazardDecision(True, load_destination, producer, decoding)
        # Branches and JALR consume register values in ID itself (the
        # condition trit / jump base); a LOAD one slot ahead is also a
        # load-use hazard for them and is caught by the sources check
        # above, because B-type and JALR instructions list Tb as a source.
        return NO_STALL

    def reset_statistics(self) -> None:
        """Zero the stall counter."""
        self.load_use_stalls = 0
