"""Cycle-accurate model of the 5-stage pipelined ART-9 core (Fig. 4).

The package is organised like the block diagram of the paper:

``stages``
    The predecoded per-PC instruction records and the latch objects that
    hold the IF/ID, ID/EX, EX/MEM and MEM/WB pipeline registers between
    two calls of the clock.
``branch``
    The dedicated branch-target calculator and condition checker placed in
    ID, which redirect the PC with a single bubble for taken branches.
``core``
    The :class:`PipelineSimulator` and its clock: one loop whose body is
    one cycle, with WB, MEM, EX, ID and IF as labelled sections.  The
    forwarding multiplexers that route EX/MEM and MEM/WB results back to
    the TALU inputs are part of the EX section; the hazard detection unit
    (HDU), which stalls a load-use consumer one cycle, and the 1-trit
    condition forwarding to the branch checker are part of ID.

The simulator decodes TIM once, when it is built, into one
:class:`~repro.sim.pipeline.stages.PredecodedInstruction` per PC (the
predecode step of instruction-set compiled simulation; Reshadi, Mishra and
Dutt, DAC 2003), applied inside the structural model rather than in its
place.  Every stage section, the HDU, the forwarding multiplexers and the
branch unit read the fields of the record a pipeline register carries;
nothing looks up an instruction spec, renders assembly or builds a latch
while the clock runs, and the TALU still computes every result trit by
trit.  This package imports none of the analytic engines (``engine``,
``timing``, ``compiled``): it is the independent reference they are
checked against.
"""

from repro.sim.pipeline.core import PipelineSimulator
from repro.sim.pipeline.stats import PipelineStats

__all__ = ["PipelineSimulator", "PipelineStats"]
