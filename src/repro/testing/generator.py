"""Seeded random ART-9 program generator.

Programs are built from blocks whose control flow is termination-safe by
construction:

* **straight-line blocks** — random R/I-type arithmetic, logic, shifts and
  LOAD/STORE instructions over the scratch registers T0..T6 (every TDM
  address reachable from a 9-trit register is legal, so memory operands need
  no range discipline);
* **bounded loops** — a counter in T8 initialised to an exact trip count,
  decremented each iteration and tested with ``COMP``/``BNE`` against a
  zeroed T7, so the loop body executes exactly ``trips`` times;
* **forward branches** — a BEQ/BNE over a data-dependent register trit that
  skips a short shadow block (taken or not, control only moves forward);
* **forward jumps** — JAL, and JALR through an absolute label address
  materialised with a LUI/LI pair.

All control either moves strictly forward or is a loop with a static trip
count, so every generated program halts; the differential runner still
enforces an instruction budget as a backstop.  The same seed always yields
the same program (``random.Random(seed)``), which makes fuzzing failures
reproducible from the seed alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.isa.instructions import Instruction
from repro.isa.program import DataSegment, Program

#: Registers freely usable inside generated blocks.  T7 and T8 are reserved
#: for loop scaffolding (zero reference and trip counter); T6 doubles as the
#: scratch register of loop tests and JALR address materialisation, so blocks
#: may read/write it but must not rely on it across block boundaries.
_BLOCK_REGISTERS = (0, 1, 2, 3, 4, 5, 6)

#: R-type operations drawn for straight-line blocks (mnemonic, needs_tb).
_R_OPS = ("MV", "PTI", "NTI", "STI", "AND", "OR", "XOR", "ADD", "SUB", "SR", "SL", "COMP")

#: I-type operations with their immediate ranges.
_I_OPS = {"ANDI": 13, "ADDI": 13, "SRI": 4, "SLI": 4, "LUI": 40, "LI": 121}


@dataclass
class GeneratorConfig:
    """Knobs of the random program generator."""

    min_blocks: int = 3
    max_blocks: int = 8
    max_body_ops: int = 8
    max_loop_trips: int = 5
    max_program_length: int = 90
    data_words: int = 12
    memory_op_weight: float = 0.25


def _random_value(rng: random.Random) -> int:
    """A balanced 9-trit value, biased towards small magnitudes and extremes."""
    choice = rng.random()
    if choice < 0.5:
        return rng.randint(-40, 40)
    if choice < 0.9:
        return rng.randint(-9841, 9841)
    return rng.choice((-9841, -9840, -1, 0, 1, 9840, 9841))


def _straight_line_ops(rng: random.Random, count: int, config: GeneratorConfig):
    """Yield ``count`` random non-control instructions over T0..T6."""
    ops = []
    for _ in range(count):
        roll = rng.random()
        ta = rng.choice(_BLOCK_REGISTERS)
        tb = rng.choice(_BLOCK_REGISTERS)
        if roll < config.memory_op_weight:
            imm = rng.randint(-13, 13)
            if rng.random() < 0.5:
                ops.append(Instruction("LOAD", ta=ta, tb=tb, imm=imm))
            else:
                ops.append(Instruction("STORE", ta=ta, tb=tb, imm=imm))
        elif roll < config.memory_op_weight + 0.35:
            mnemonic = rng.choice(tuple(_I_OPS))
            half = _I_OPS[mnemonic]
            ops.append(Instruction(mnemonic, ta=ta, imm=rng.randint(-half, half)))
        else:
            mnemonic = rng.choice(_R_OPS)
            ops.append(Instruction(mnemonic, ta=ta, tb=tb))
    return ops


def generate_program(seed: int, config: Optional[GeneratorConfig] = None) -> Program:
    """Generate one always-terminating random ART-9 program from ``seed``."""
    config = config or GeneratorConfig()
    rng = random.Random(seed)
    program = Program(name=f"fuzz-{seed}")
    label_counter = [0]

    def fresh_label(kind: str) -> str:
        label_counter[0] += 1
        return f"{kind}_{label_counter[0]}"

    # Data segment: a handful of random words near address 0 so early loads
    # read interesting values (loads elsewhere legally read zero).
    if config.data_words:
        values = [_random_value(rng) for _ in range(config.data_words)]
        program.data.append(DataSegment(base_address=0, values=values))

    # Prologue: give a few registers non-trivial starting values via LUI/LI
    # pairs (the only way to materialise a full-width constant).
    for reg in rng.sample(_BLOCK_REGISTERS, rng.randint(2, 5)):
        value = _random_value(rng)
        high = rng.randint(-40, 40)
        low = rng.randint(-121, 121)
        if rng.random() < 0.5:
            program.append(Instruction("LUI", ta=reg, imm=high))
            program.append(Instruction("LI", ta=reg, imm=low))
        else:
            program.append(Instruction("LI", ta=reg, imm=value % 121 - 60))

    block_builders = ("straight", "loop", "branch", "jal", "jalr")
    blocks = rng.randint(config.min_blocks, config.max_blocks)
    for _ in range(blocks):
        if len(program) >= config.max_program_length - 15:
            break
        kind = rng.choice(block_builders)

        if kind == "straight":
            program.extend(_straight_line_ops(rng, rng.randint(2, config.max_body_ops), config))

        elif kind == "loop":
            trips = rng.randint(1, config.max_loop_trips)
            body = _straight_line_ops(rng, rng.randint(1, min(5, config.max_body_ops)), config)
            top = fresh_label("loop")
            program.append(Instruction("SUB", ta=7, tb=7))           # T7 = 0
            program.append(Instruction("SUB", ta=8, tb=8))           # T8 = 0
            program.append(Instruction("ADDI", ta=8, imm=trips))     # trip counter
            program.add_label(top)
            program.extend(body)
            program.append(Instruction("ADDI", ta=8, imm=-1))
            program.append(Instruction("MV", ta=6, tb=8))
            program.append(Instruction("COMP", ta=6, tb=7))          # T6 = sign(T8)
            program.append(Instruction("BNE", tb=6, branch_trit=0, imm=None, label=top))

        elif kind == "branch":
            skip = fresh_label("skip")
            mnemonic = rng.choice(("BEQ", "BNE"))
            reg = rng.choice(_BLOCK_REGISTERS)
            trit = rng.choice((-1, 0, 1))
            shadow = _straight_line_ops(rng, rng.randint(1, 3), config)
            program.append(
                Instruction(mnemonic, tb=reg, branch_trit=trit, imm=None, label=skip)
            )
            program.extend(shadow)
            program.add_label(skip)

        elif kind == "jal":
            target = fresh_label("jal")
            shadow = _straight_line_ops(rng, rng.randint(1, 3), config)
            program.append(Instruction("JAL", ta=8, imm=None, label=target))
            program.extend(shadow)
            program.add_label(target)

        else:  # jalr through an absolute address in T6
            target = fresh_label("jalr")
            shadow = _straight_line_ops(rng, rng.randint(1, 2), config)
            program.append(Instruction("LUI", ta=6, imm=0))
            program.append(Instruction("LI", ta=6, imm=None, label=target))
            program.append(Instruction("JALR", ta=8, tb=6, imm=0))
            program.extend(shadow)
            program.add_label(target)

    program.append(Instruction("HALT"))
    if len(program) > 3 ** 5 // 2:  # JALR labels materialise through a 5-trit LI
        raise AssertionError(
            f"generated program of {len(program)} instructions exceeds the "
            "LI-addressable window; lower max_program_length"
        )
    program.resolve_labels()
    return program

