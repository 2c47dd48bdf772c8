"""Cycle-accurate model of the 5-stage pipelined ART-9 core (Fig. 4).

``core``
    The :class:`PipelineSimulator`, whose one timed
    :meth:`~PipelineSimulator.run` is the clock: one loop whose body is one
    cycle, with WB, MEM, EX, ID and IF as labelled sections over the four
    pipeline registers, held in local variables of that call.  The
    forwarding multiplexers that route EX/MEM and MEM/WB results back to
    the TALU inputs are part of the EX section; the hazard detection unit
    (HDU), which stalls a load-use consumer one cycle, the 1-trit
    condition forwarding and the branch decision (the dedicated target
    adder and condition checker, which redirect the PC with a single
    bubble for taken branches) are part of ID.
``stats``
    The :class:`PipelineStats` a run produces.

The simulator decodes TIM once, when it is built, into one
:class:`~repro.sim.pipeline.core.PredecodedInstruction` per PC (the
predecode step of instruction-set compiled simulation; Reshadi, Mishra and
Dutt, DAC 2003), applied inside the structural model rather than in its
place.  Every stage section, the HDU, the forwarding multiplexers and the
branch decision read the fields of the record a pipeline register
carries; nothing looks up an instruction spec, renders assembly or builds
an object for a stage while the clock runs, and the TALU still computes
every result trit by trit.  This package imports none of the analytic
engines (``engine``, ``timing``, ``compiled``): it is the independent
reference they are checked against.
"""

from repro.sim.pipeline.core import PipelineSimulator
from repro.sim.pipeline.stats import PipelineStats

__all__ = ["PipelineSimulator", "PipelineStats"]
