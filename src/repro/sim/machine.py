"""Declarative microarchitecture descriptions consumed by every engine.

A :class:`MachineConfig` captures the *timing* shape of an ART-9 core —
pipeline depth, branch-handling policy, load-use penalty and instruction
fetch latency — as pure data.  Two models of the core consume it:

* the stage-by-stage :class:`~repro.sim.pipeline.PipelineSimulator`
  derives its fetch steering, hazard-detection wiring, redirect penalty
  and retire stage from it;
* the analytic timing model of :mod:`repro.sim.timing` derives its
  per-instruction attributes from it (the redirect gaps come from
  :meth:`MachineConfig.redirect_gap`).  ``FastEngine`` and
  ``CompiledEngine`` both step that one model, and the config digest
  joins the codegen artifact-cache key so compiled timing can never leak
  between configs.

Because every engine reads the identical description, the config-matrix
differential suite (``tests/test_machine_differential.py``) can assert
bit-identical ``PipelineStats`` across engines for *every* built-in
config, and architectural state that is invariant across configs.

Timing semantics
----------------

For a committed dynamic instruction stream of length ``N``::

    cycles = N + fill_cycles + load_use_stalls + control_flush_bubbles

``fill_cycles = depth - 1 + fetch_latency`` is the constant pipe-fill.
Stall bubbles come from exactly two sources:

* **load-use**: a consumer adjacent to a LOAD that produces its register
  pays ``load_use_penalty`` bubbles (0 enables a same-cycle MEM-output
  bypass into EX; consumers that need the value in *ID* — the branch
  condition / JALR base path — always pay at least one bubble because ID
  precedes the bypass point);
* **redirects**: every control transfer the front end did not predict
  pays ``redirect_penalty = branch_penalty + fetch_latency`` bubbles.

Which control transfers redirect is the branch policy:

``flush-on-taken``
    The paper's scheme: fetch always falls through, so every taken
    conditional, JAL and JALR redirects.
``predict-not-taken``
    A predecoder in IF folds direct jumps (JAL) to zero cost;
    conditionals are predicted not-taken (redirect iff taken); JALR is
    indirect and always redirects.
``static-btfn``
    Backward-taken/forward-not-taken: the predecoder folds JAL and
    predicts backward conditionals (``imm <= 0``) taken, forward ones
    not-taken; a conditional redirects iff mispredicted; JALR always
    redirects.

The default config is named ``paper3stage`` after the issue/paper
shorthand for the baseline machine (the implemented microarchitecture is
the 5-stage Fig. 4 pipe; ``depth=5``); it reproduces the pre-config
cycle numbers and every forwarding counter exactly, which the golden
traces pin byte-for-byte.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Mapping, Tuple, Union

#: Legal values of :attr:`MachineConfig.branch_policy`.
BRANCH_POLICIES = ("flush-on-taken", "predict-not-taken", "static-btfn")

#: Name of the built-in config that reproduces the paper's numbers.
DEFAULT_MACHINE_NAME = "paper3stage"

#: Bounds of the validated fields.
MIN_DEPTH, MAX_DEPTH = 2, 5
MAX_BRANCH_PENALTY = 4
MAX_FETCH_LATENCY = 2


class MachineError(ValueError):
    """Raised for malformed machine configurations or unknown names."""


@dataclass(frozen=True)
class MachineConfig:
    """Declarative timing description of one ART-9 microarchitecture.

    ``name`` is a label only: the timing identity (and the codegen cache
    key contribution, :meth:`digest`) is a function of the parameter
    fields alone, so two differently-named but parameter-identical
    configs share compiled artifacts.
    """

    name: str = DEFAULT_MACHINE_NAME
    depth: int = 5
    branch_policy: str = "flush-on-taken"
    load_use_penalty: int = 1
    branch_penalty: int = 1
    fetch_latency: int = 0

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise MachineError("machine config needs a non-empty name")
        if not MIN_DEPTH <= self.depth <= MAX_DEPTH:
            raise MachineError(
                f"pipeline depth {self.depth} outside {MIN_DEPTH}..{MAX_DEPTH}")
        if self.branch_policy not in BRANCH_POLICIES:
            raise MachineError(
                f"unknown branch policy {self.branch_policy!r}; "
                f"known: {list(BRANCH_POLICIES)}")
        if self.load_use_penalty not in (0, 1):
            # Penalties > 1 would make the load-use window span non-adjacent
            # instructions, which the single-pass adjacency model (and the
            # paper's one-bubble HDU) does not describe.
            raise MachineError(
                f"load-use penalty {self.load_use_penalty} not in (0, 1)")
        if not 0 <= self.branch_penalty <= MAX_BRANCH_PENALTY:
            raise MachineError(
                f"branch penalty {self.branch_penalty} outside "
                f"0..{MAX_BRANCH_PENALTY}")
        if not 0 <= self.fetch_latency <= MAX_FETCH_LATENCY:
            raise MachineError(
                f"fetch latency {self.fetch_latency} outside "
                f"0..{MAX_FETCH_LATENCY}")

    # -- derived timing constants -------------------------------------------

    @property
    def fill_cycles(self) -> int:
        """Constant pipe-fill cycles added to every run."""
        return self.depth - 1 + self.fetch_latency

    @property
    def redirect_penalty(self) -> int:
        """Bubbles paid per front-end redirect (mispredicted transfer)."""
        return self.branch_penalty + self.fetch_latency

    @property
    def folds_jal(self) -> bool:
        """True when the front end resolves direct jumps at fetch time."""
        return self.branch_policy != "flush-on-taken"

    def predicts_taken(self, mnemonic: str, imm: int) -> bool:
        """Static fetch-time prediction for a control instruction."""
        if mnemonic == "JAL":
            return self.folds_jal
        if mnemonic in ("BEQ", "BNE"):
            return self.branch_policy == "static-btfn" and imm <= 0
        return False  # JALR is indirect: the front end never has a target.

    def redirect_gap(self, mnemonic: str, imm: int, taken: bool) -> int:
        """Bubbles the *next* instruction sees behind this control transfer."""
        if mnemonic == "JALR":
            return self.redirect_penalty
        if mnemonic == "JAL":
            return 0 if self.folds_jal else self.redirect_penalty
        if mnemonic in ("BEQ", "BNE"):
            if taken != self.predicts_taken(mnemonic, imm):
                return self.redirect_penalty
            return 0
        return 0

    # -- identity / serialisation -------------------------------------------

    def params_dict(self) -> Dict[str, object]:
        """The timing-relevant fields (everything except the name)."""
        return {
            "depth": self.depth,
            "branch_policy": self.branch_policy,
            "load_use_penalty": self.load_use_penalty,
            "branch_penalty": self.branch_penalty,
            "fetch_latency": self.fetch_latency,
        }

    def digest(self) -> str:
        """SHA-256 over the canonical parameter JSON (name excluded)."""
        blob = json.dumps(self.params_dict(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {"name": self.name}
        data.update(self.params_dict())
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "MachineConfig":
        unknown = set(data) - {"name", "depth", "branch_policy",
                               "load_use_penalty", "branch_penalty",
                               "fetch_latency"}
        if unknown:
            raise MachineError(
                f"unknown machine config fields: {sorted(unknown)}")
        defaults = cls()
        return cls(
            name=str(data.get("name", defaults.name)),
            depth=int(data.get("depth", defaults.depth)),  # type: ignore[arg-type]
            branch_policy=str(data.get("branch_policy", defaults.branch_policy)),
            load_use_penalty=int(data.get("load_use_penalty",  # type: ignore[arg-type]
                                          defaults.load_use_penalty)),
            branch_penalty=int(data.get("branch_penalty",  # type: ignore[arg-type]
                                        defaults.branch_penalty)),
            fetch_latency=int(data.get("fetch_latency",  # type: ignore[arg-type]
                                       defaults.fetch_latency)),
        )


#: Built-in configs.  ``paper3stage`` is the default and reproduces the
#: blessed numbers; the others span the design-space axes (policy, depth,
#: penalties) and are each covered by the config-matrix differential and
#: golden suites.
MACHINES: Dict[str, MachineConfig] = {
    config.name: config
    for config in (
        MachineConfig(),
        # Idealized shallow pipe: no hazard penalties at all, so
        # cycles == instructions + 1 (the property suite pins this).
        MachineConfig(name="ideal2", depth=2, branch_policy="predict-not-taken",
                      load_use_penalty=0, branch_penalty=0, fetch_latency=0),
        # The paper pipe with a not-taken-predicting front end.
        MachineConfig(name="predictnt", depth=5,
                      branch_policy="predict-not-taken"),
        # Four-stage core with static backward-taken/forward-not-taken.
        MachineConfig(name="btfn4", depth=4, branch_policy="static-btfn"),
        # Slow instruction memory: every fetch adds a cycle of latency,
        # redirects pay branch + fetch restart (worst-case corner).
        MachineConfig(name="slowfetch5", depth=5, branch_penalty=2,
                      fetch_latency=1),
    )
}


def machine_names() -> Tuple[str, ...]:
    """Built-in config names, default first, then alphabetical."""
    rest = sorted(name for name in MACHINES if name != DEFAULT_MACHINE_NAME)
    return (DEFAULT_MACHINE_NAME, *rest)


def get_machine(name: str) -> MachineConfig:
    """Look up a built-in config by name."""
    try:
        return MACHINES[name]
    except KeyError:
        raise MachineError(
            f"unknown machine config {name!r}; known: {list(machine_names())}"
        ) from None


def resolve_machine(
    machine: Union[MachineConfig, str, None]) -> MachineConfig:
    """Coerce a machine argument (config, name or None) to a config."""
    if machine is None:
        return MACHINES[DEFAULT_MACHINE_NAME]
    if isinstance(machine, MachineConfig):
        return machine
    if isinstance(machine, str):
        return get_machine(machine)
    raise MachineError(
        f"machine must be a MachineConfig, a name or None, got {machine!r}")
