"""Cycle-accurate model of the 5-stage pipelined ART-9 core (Fig. 4).

The package is organised like the block diagram of the paper:

``stages``
    The predecoded per-PC instruction records and the pipeline latches
    that carry them between IF/ID, ID/EX, EX/MEM and MEM/WB.  Each of the
    four pipeline registers is a pair of latches built once: the stages
    read one and fill the other in place, and the clock edge swaps them.
``hazards``
    The hazard detection unit (HDU) of the ID stage: load-use stall
    detection and the stall control signal that selects a NOP at the next
    ID stage.
``forwarding``
    The forwarding multiplexers that route EX/MEM and MEM/WB results back to
    the TALU inputs and the 1-trit condition forwarding to the ID-stage
    branch checker.
``branch``
    The dedicated branch-target calculator and condition checker placed in
    ID, which redirect the PC with a single bubble for taken branches.
``core``
    The :class:`PipelineSimulator` that wires everything together and
    advances the machine cycle by cycle.

The simulator decodes TIM once, when it is built, into one
:class:`~repro.sim.pipeline.stages.PredecodedInstruction` per PC (the
predecode step of instruction-set compiled simulation; Reshadi, Mishra and
Dutt, DAC 2003), applied inside the structural model rather than in its
place.  Every stage, the HDU, the forwarding multiplexers and the branch
unit read the fields of the record their latch carries; nothing looks up an
instruction spec, renders assembly or builds a latch while the clock runs.
The stages, counters and the trit-level TALU are unchanged by it.  This
package imports none of the analytic engines (``engine``, ``timing``,
``compiled``): it is the independent reference they are checked against.
"""

from repro.sim.pipeline.core import PipelineSimulator
from repro.sim.pipeline.stats import PipelineStats

__all__ = ["PipelineSimulator", "PipelineStats"]
