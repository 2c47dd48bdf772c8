"""Declarative sweep specifications and deterministic job identities.

A :class:`SweepSpec` describes an evaluation grid the way the paper's
tables do — workloads crossed with execution engines crossed with the
translator's optimize pass, each workload optionally in several size/seed
variants — without saying anything about *how* it runs.  ``expand()`` turns
the grid into flat :class:`SweepJob` records: pure picklable data with a
content-addressed ``job_id``, which is what makes sharding across worker
processes and resuming interrupted runs trivial (a job's identity never
depends on enumeration order, timestamps or host state).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterable, List, Mapping, Tuple

from repro.framework.hwflow import SIMULATION_ENGINES
from repro.framework.swflow import frozen_params as _frozen_params
from repro.sim.machine import DEFAULT_MACHINE_NAME, MACHINES, machine_names
from repro.workloads import all_workloads

#: Default per-job cycle budget (matches ``HardwareFramework.simulate``).
DEFAULT_MAX_CYCLES = 50_000_000

#: Baseline-core values of the ``engine`` axis.  These run the *RV-32*
#: side of a workload through the paper's baseline cycle/code-size models
#: (:mod:`repro.baselines`) instead of simulating the translated ART-9
#: program, so cross-ISA comparisons flow through the same jobs and store.
BASELINE_ENGINES = ("picorv32", "vexriscv", "armv6m")

#: Every legal value of the ``engine`` axis (ART-9 engines + baselines).
ALL_ENGINES = tuple(SIMULATION_ENGINES) + BASELINE_ENGINES


class SpecError(ValueError):
    """Raised for malformed sweep specifications."""


def _normalize_variants(workload: str, value: object) -> List[Dict[str, object]]:
    """Coerce one ``params`` entry to a list of builder-parameter dicts.

    Accepts the documented list-of-dicts form and the natural single-dict
    shorthand (``{"gemm": {"n": 8}}`` means one variant); anything else is
    a :class:`SpecError` naming the expected shape.
    """
    if isinstance(value, Mapping):
        return [dict(value)]
    if isinstance(value, (list, tuple)):
        if not all(isinstance(variant, Mapping) for variant in value):
            raise SpecError(
                f"params for {workload!r} must be a list of parameter dicts, "
                f"got {value!r}")
        return [dict(variant) for variant in value]
    raise SpecError(
        f"params for {workload!r} must be a parameter dict or a list of "
        f"parameter dicts, got {value!r}")


@dataclass(frozen=True)
class SweepJob:
    """One cell of the evaluation grid, as pure picklable data."""

    workload: str
    engine: str
    optimize: bool
    params: Tuple[Tuple[str, object], ...] = ()
    max_cycles: int = DEFAULT_MAX_CYCLES
    machine: str = DEFAULT_MACHINE_NAME

    @property
    def params_dict(self) -> Dict[str, object]:
        """The workload builder parameters as a plain dict."""
        return dict(self.params)

    @cached_property
    def job_id(self) -> str:
        """Content-addressed identity: stable across runs and processes.

        The ``machine`` key joins the identity blob only for non-default
        machines, so every pre-machine-axis job id (including the blessed
        baseline run under ``benchmarks/baseline/``) is unchanged.  It is
        hashed once per job object: the coordinator looks it up on every
        result.
        """
        blob_dict = {
            "workload": self.workload,
            "engine": self.engine,
            "optimize": self.optimize,
            "params": [[key, value] for key, value in self.params],
            "max_cycles": self.max_cycles,
        }
        if self.machine != DEFAULT_MACHINE_NAME:
            blob_dict["machine"] = self.machine
        blob = json.dumps(blob_dict, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]

    @property
    def label(self) -> str:
        """Human-readable one-line identity for tables and logs."""
        params = ",".join(f"{key}={value}" for key, value in self.params)
        opt = "opt" if self.optimize else "noopt"
        suffix = f"[{params}]" if params else ""
        label = f"{self.workload}{suffix}/{self.engine}/{opt}"
        if self.machine != DEFAULT_MACHINE_NAME:
            label += f"@{self.machine}"
        return label

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "engine": self.engine,
            "optimize": self.optimize,
            "params": self.params_dict,
            "max_cycles": self.max_cycles,
            "machine": self.machine,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SweepJob":
        return cls(
            workload=str(data["workload"]),
            engine=str(data["engine"]),
            optimize=bool(data["optimize"]),
            params=_frozen_params(data.get("params")),  # type: ignore[arg-type]
            max_cycles=int(data.get("max_cycles", DEFAULT_MAX_CYCLES)),  # type: ignore[arg-type]
            machine=str(data.get("machine", DEFAULT_MACHINE_NAME)),
        )


@dataclass
class SweepSpec:
    """The declarative grid: workloads x engines x optimize x params.

    ``workloads`` empty means "every registered workload".  ``params`` maps
    a workload name to a list of builder-parameter dicts; each entry is one
    variant of that workload (an empty dict is the registered default).
    Workloads without an entry run once with default parameters.
    """

    workloads: Tuple[str, ...] = ()
    engines: Tuple[str, ...] = tuple(SIMULATION_ENGINES)
    optimize: Tuple[bool, ...] = (True, False)
    params: Dict[str, List[Dict[str, object]]] = field(default_factory=dict)
    max_cycles: int = DEFAULT_MAX_CYCLES
    machines: Tuple[str, ...] = (DEFAULT_MACHINE_NAME,)

    def validate(self) -> None:
        """Check the grid axes against the registries before expansion."""
        known_workloads = sorted(all_workloads())
        for name in self.effective_workloads():
            if name not in known_workloads:
                raise SpecError(f"unknown workload {name!r}; known: {known_workloads}")
        for engine in self.engines:
            if engine not in ALL_ENGINES:
                raise SpecError(
                    f"unknown engine {engine!r}; known: {list(ALL_ENGINES)}")
        if not self.engines:
            raise SpecError("sweep needs at least one engine")
        if not self.optimize:
            raise SpecError("sweep needs at least one optimize setting")
        if not self.machines:
            raise SpecError("sweep needs at least one machine config")
        for machine in self.machines:
            if machine not in MACHINES:
                raise SpecError(
                    f"unknown machine config {machine!r}; "
                    f"known: {list(machine_names())}")
        for name, variants in self.params.items():
            if name not in self.effective_workloads():
                raise SpecError(
                    f"params given for {name!r}, which is not in the workload axis")
            _normalize_variants(name, variants)

    def effective_workloads(self) -> Tuple[str, ...]:
        """The workload axis with the empty-tuple default resolved."""
        return self.workloads or tuple(sorted(all_workloads()))

    def expand(self) -> List[SweepJob]:
        """Flatten the grid into deterministic job records.

        Baseline-core engines execute the *untranslated* RV-32 side, so the
        translator-optimize axis cannot change their results; they are
        collapsed to a single canonical ``optimize=True`` job per variant
        instead of being run once per optimize setting.  The ART-9 machine
        config cannot change them either (they are not ART-9 cores), so the
        machine axis collapses to the default for them the same way.
        """
        self.validate()
        jobs: List[SweepJob] = []
        for workload in self.effective_workloads():
            raw = self.params.get(workload)
            variants = _normalize_variants(workload, raw) if raw else [{}]
            for variant in variants:
                for engine in self.engines:
                    baseline = engine in BASELINE_ENGINES
                    optimize_axis = (True,) if baseline else self.optimize
                    machine_axis = ((DEFAULT_MACHINE_NAME,) if baseline
                                    else self.machines)
                    for optimize in optimize_axis:
                        for machine in machine_axis:
                            jobs.append(SweepJob(
                                workload=workload,
                                engine=engine,
                                optimize=optimize,
                                params=_frozen_params(variant),
                                max_cycles=self.max_cycles,
                                machine=machine,
                            ))
        return jobs

    # -- serialisation ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "workloads": list(self.workloads),
            "engines": list(self.engines),
            "optimize": list(self.optimize),
            "params": {
                name: _normalize_variants(name, variants)
                for name, variants in self.params.items()
            },
            "max_cycles": self.max_cycles,
            "machines": list(self.machines),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SweepSpec":
        optimize: Iterable[object] = data.get("optimize", (True, False))  # type: ignore[assignment]
        return cls(
            workloads=tuple(data.get("workloads", ())),  # type: ignore[arg-type]
            engines=tuple(data.get("engines", SIMULATION_ENGINES)),  # type: ignore[arg-type]
            optimize=tuple(bool(value) for value in optimize),
            params={
                str(name): [dict(variant) for variant in variants]
                for name, variants in dict(data.get("params", {})).items()  # type: ignore[arg-type]
            },
            max_cycles=int(data.get("max_cycles", DEFAULT_MAX_CYCLES)),  # type: ignore[arg-type]
            machines=tuple(data.get("machines", (DEFAULT_MACHINE_NAME,))),  # type: ignore[arg-type]
        )

    @classmethod
    def from_file(cls, path: str) -> "SweepSpec":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


#: Grown default grid variants: every workload in its paper-default size
#: plus one larger instance, so sweeps exercise both the headline numbers
#: and the scaling behaviour of the translator and engines.
DEFAULT_GRID_PARAMS: Dict[str, List[Dict[str, object]]] = {
    "gemm": [{}, {"n": 8}],
    "sobel": [{}, {"size": 16}],
    "dhrystone": [{}, {"iterations": 500}],
}

#: Named preset grids accepted by ``art9 sweep --preset`` / ``art9 serve``.
SWEEP_PRESETS = ("default", "paper", "smoke", "machines")


def preset_spec(name: str) -> SweepSpec:
    """One of the bundled sweep grids.

    * ``"default"`` — every workload (default size plus the grown
      ``gemm n=8`` / ``sobel size=16`` / ``dhrystone iterations=500``
      variants) on the three ART-9 engines (fast, pipeline, compiled),
      optimize on and off: 42 jobs;
    * ``"paper"`` — every workload at paper-default size on *all six*
      engines (the three ART-9 engines and the three baseline cores),
      optimize on: the 24-job cross-ISA grid the report subsystem and the
      blessed baseline run in ``benchmarks/baseline/`` are built from;
    * ``"smoke"`` — a two-workload, twelve-job grid for CI smoke tests;
    * ``"machines"`` — the design-space corner grid: two workloads on all
      three ART-9 engines across the default machine and the three
      non-trivial built-in corners, optimize on.
    """
    if name == "default":
        return SweepSpec(
            params={key: [dict(variant) for variant in variants]
                    for key, variants in DEFAULT_GRID_PARAMS.items()})
    if name == "paper":
        return SweepSpec(engines=ALL_ENGINES, optimize=(True,))
    if name == "smoke":
        return SweepSpec(
            workloads=("bubble_sort", "gemm"),
            params={"bubble_sort": [{"length": 8}], "gemm": [{"n": 2}]})
    if name == "machines":
        return SweepSpec(
            workloads=("bubble_sort", "gemm"),
            engines=tuple(SIMULATION_ENGINES),
            optimize=(True,),
            machines=(DEFAULT_MACHINE_NAME, "btfn4", "predictnt",
                      "slowfetch5"),
        )
    raise SpecError(f"unknown sweep preset {name!r}; known: {list(SWEEP_PRESETS)}")
