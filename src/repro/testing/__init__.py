"""Randomized differential testing for the ART-9 executors.

The golden functional model is only as trustworthy as the programs thrown at
it.  This package grows the confidence axis of the reproduction: a seeded
random program generator (:mod:`repro.testing.generator`) produces
always-terminating ART-9 programs covering the whole ISA — straight-line
arithmetic, bounded loops, forward branches, jumps and scattered
loads/stores — and the differential runner (:mod:`repro.testing.differential`)
executes each program on all five executors: the fast engine, the compiled
superblock-codegen engine, the batched vectorized engine (as a one-lane
batch), the functional simulator and the cycle-accurate pipeline, asserting
identical architectural state (registers, memory, PC, halt flag) and
identical pipeline statistics from every analytic timing model.

Run it from the command line with ``art9 fuzz --count 500 --seed 0``.

The package also hosts the fault-injection harness for the distributed
sweep service (:mod:`repro.testing.chaos`, ``art9 chaos``): real
coordinator + worker fleets driven to completion while this side kills,
freezes and corrupts them, gated on byte-identical canonical records
against an undisturbed serial run.
"""

from repro.testing.generator import (
    GeneratorConfig,
    generate_data_variants,
    generate_program,
)
from repro.testing.differential import (
    DifferentialMismatch,
    DifferentialOutcome,
    FuzzReport,
    fuzz,
    run_batch_differential,
    run_differential,
)

__all__ = [
    "GeneratorConfig",
    "generate_data_variants",
    "generate_program",
    "DifferentialMismatch",
    "DifferentialOutcome",
    "FuzzReport",
    "fuzz",
    "run_batch_differential",
    "run_differential",
]


_CHAOS_EXPORTS = ("CHAOS_SCENARIOS", "ChaosError", "ChaosResult",
                  "run_scenario")
__all__ += list(_CHAOS_EXPORTS)


def __getattr__(name):
    # The chaos harness imports repro.runner, whose package imports the
    # fuzz pool, which imports this package — resolving chaos lazily
    # (PEP 562) keeps the convenience exports without the import cycle.
    if name in _CHAOS_EXPORTS:
        from repro.testing import chaos
        return getattr(chaos, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
