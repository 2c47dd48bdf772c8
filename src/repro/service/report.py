"""Paper-facing report generation from sweep run directories.

``art9 report`` loads run directories with :func:`load_runs`, which keeps
the newest record of each job ID, and turns those records into the
evaluation artifacts of the paper:

* **Table II** — the Dhrystone comparison of ART-9 against VexRiscv and
  PicoRV32 (DMIPS/MHz, cycles, CPI, instruction-memory cells);
* **Table III** — processing cycles of every benchmark across the cores;
* **Table IV** — the CNTFET gate-level implementation (gates, fmax,
  power, DMIPS, DMIPS/W), combining stored Dhrystone cycle counts with
  the deterministic gate-level analyzer;
* **Table V** — the FPGA emulation (ALMs, registers, RAM bits, power,
  DMIPS/W) at its 150 MHz operating point;
* **Fig. 5** — instruction-memory cells per benchmark (ART-9 trits vs
  RV-32I bits vs ARMv6-M bits) and the ternary/binary ratio.

Simulation results come exclusively from the records — the cycle counts,
iteration counts and memory-cell footprints were measured by sweep jobs,
possibly on other machines — while the implementation models (gate-level
analyzer, FPGA resource model) are deterministic functions of the netlist
and are evaluated at report time through
:meth:`repro.framework.hwflow.HardwareFramework.performance_from_cycles`.
:func:`phase_summary` totals the per-phase timings of a record list for
the timing table here and for ``art9 status RUN_DIR``.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.framework.hwflow import HardwareFramework
from repro.hweval.estimator import DhrystoneMetrics
from repro.runner.store import RunStore, StoreError, canonical_record
from repro.sim.machine import DEFAULT_MACHINE_NAME, machine_names

#: ART-9 engines in lookup-preference order (identical numbers, so the
#: fast engine is simply the one more likely to be present in a sweep).
_ART9_ENGINES = ("fast", "compiled", "pipeline")

#: The per-phase seconds a worker records under ``timings``.
PHASES = ("xlate_s", "codegen_s", "execute_s")


class ReportError(RuntimeError):
    """Raised when the records lack what a table needs."""


@dataclass
class ReportTable:
    """One rendered table plus its machine-checkable headline numbers."""

    key: str
    title: str
    headers: List[str]
    rows: List[List[object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    #: Headline quantities by name (what the acceptance tests assert on).
    metrics: Dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return bool(self.rows)

    def to_markdown(self) -> str:
        lines = [f"## {self.title}", ""]
        if self.rows:
            lines.append("| " + " | ".join(self.headers) + " |")
            lines.append("| " + " | ".join("---" for _ in self.headers) + " |")
            for row in self.rows:
                lines.append("| " + " | ".join(str(cell) for cell in row) + " |")
        for note in self.notes:
            lines.append("")
            lines.append(f"*{note}*")
        return "\n".join(lines)

    def to_csv(self) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(self.headers)
        for row in self.rows:
            writer.writerow(row)
        return f"# {self.title}\n" + buffer.getvalue()


# -- loading ----------------------------------------------------------------


def load_runs(run_dirs: Sequence[str]) -> Tuple[List[dict], List[str]]:
    """The newest record of each job ID across ``run_dirs``, and one
    ``ingested`` line per directory.

    Later directories are newer; one given again is re-read and becomes the
    newest (``re-ingested``).  A line counts the records another loaded run
    holds with the same job ID and :func:`canonical_record` content.
    Records come in load order, each job at the place of its newest record.
    """
    runs: Dict[str, Tuple[List[dict], Set[Tuple[str, str]]]] = {}
    lines = []
    for run_dir in run_dirs:
        store = RunStore(run_dir)
        if not store.exists():
            raise StoreError(
                f"{run_dir!r} is not a sweep run directory (no {store.spec_path})")
        store.load_spec()  # a torn or invalid spec fails the load
        root = os.path.abspath(run_dir)
        records = store.records()
        keys = {(r["job_id"], canonical_record(r)) for r in records}
        reloaded = runs.pop(root, None) is not None
        earlier = set().union(*(other for _, other in runs.values()))
        runs[root] = (records, keys)
        lines.append(f"{'re-ingested' if reloaded else 'ingested'} {root}: "
                     f"{len(records)} records "
                     f"({len(keys & earlier)} duplicating earlier runs)")
    newest: Dict[str, dict] = {}
    for records, _ in runs.values():
        for record in records:
            newest.pop(record["job_id"], None)
            newest[record["job_id"]] = record
    return list(newest.values()), lines


def phase_summary(records: Iterable[dict]) -> List[dict]:
    """Per-engine totals of the phase timings workers attach to records.

    One row per engine, sorted by engine: the job count, ``timed_jobs``
    (records whose ``timings`` carry an ``execute_s``; older records
    predate the instrumentation), the seconds in each of :data:`PHASES`
    (a missing or null phase adds 0), and ``cache_hits`` out of
    ``cache_known``, the records that carry the artifact-cache flag.
    """
    rows: Dict[str, dict] = {}
    for record in records:
        engine = str(record.get("engine", ""))
        row = rows.setdefault(engine, {
            "engine": engine, "jobs": 0, "timed_jobs": 0,
            **dict.fromkeys(PHASES, 0.0), "cache_known": 0, "cache_hits": 0})
        row["jobs"] += 1
        timings = record.get("timings")
        if isinstance(timings, dict):
            row["timed_jobs"] += timings.get("execute_s") is not None
            for phase in PHASES:
                row[phase] += float(timings.get(phase) or 0.0)
        if record.get("cache_hit") is not None:
            row["cache_known"] += 1
            row["cache_hits"] += bool(record["cache_hit"])
    return [rows[engine] for engine in sorted(rows)]


# -- record lookup ----------------------------------------------------------


def _machine(record: dict) -> str:
    """The machine config a record ran under; a missing or null name
    (records older than the machine axis) means the paper default."""
    return str(record.get("machine") or DEFAULT_MACHINE_NAME)


def _params_key(params: Optional[dict]) -> str:
    return json.dumps(dict(params or {}), sort_keys=True, separators=(",", ":"))


def _report_order(record: dict) -> tuple:
    return (str(record.get("workload", "")), _params_key(record.get("params")),
            str(record.get("engine", "")), not record.get("optimize"))


def _ok_records(records: List[dict],
                machine: Optional[str] = DEFAULT_MACHINE_NAME,
                workload: Optional[str] = None, engine: Optional[str] = None,
                optimize: Optional[bool] = None,
                params: Optional[dict] = None) -> List[dict]:
    """Verified ``ok`` records matching every given axis, in report order.

    ``params`` must equal the job's parameters exactly.  Tables II-V are
    pinned to the paper's machine config; the corners table passes
    ``machine=None``.  The sort is stable, so ties keep load order; the
    builders take the first match.
    """
    wanted = None if params is None else _params_key(params)
    return sorted(
        (record for record in records
         if record.get("status") == "ok" and record.get("verified")
         and (machine is None or _machine(record) == machine)
         and (workload is None or str(record.get("workload", "")) == workload)
         and (engine is None or str(record.get("engine", "")) == engine)
         and (optimize is None or bool(record.get("optimize")) == optimize)
         and (wanted is None or _params_key(record.get("params")) == wanted)),
        key=_report_order)


def _art9_record(records: List[dict], workload: str,
                 params: Optional[dict] = None,
                 machine: str = DEFAULT_MACHINE_NAME) -> Optional[dict]:
    for engine in _ART9_ENGINES:
        matches = _ok_records(records, machine, workload=workload,
                              engine=engine, optimize=True,
                              params=params or {})
        if matches:
            return matches[0]
    return None


def _baseline_record(records: List[dict], workload: str, engine: str) -> Optional[dict]:
    matches = _ok_records(records, workload=workload, engine=engine, params={})
    return matches[0] if matches else None


def _require(record: Optional[dict], what: str) -> dict:
    if record is None:
        raise ReportError(
            f"no verified record for {what} in the results database; "
            "run a sweep that covers it (e.g. `art9 sweep --preset paper`)")
    return record


def _iterations(record: dict) -> int:
    """The benchmark iteration count a record measured.

    Records written before the report fields existed lack it; silently
    assuming 1 would shift every DMIPS number by the iteration factor, so
    stale records are an error (same policy as the Fig. 5 builder).
    """
    iterations = record.get("iterations")
    if not iterations:
        raise ReportError(
            f"the {record.get('label', record.get('job_id'))} record predates "
            "the iteration-count field; rerun the sweep with --no-resume to "
            "refresh it")
    return int(iterations)


def _dmips_per_mhz(record: dict) -> float:
    return DhrystoneMetrics(cycles=record["cycles"],
                            iterations=_iterations(record)).dmips_per_mhz


def _default_workloads(records: List[dict]) -> List[str]:
    """Workloads with a default-parameter ART-9 record, sorted."""
    present = []
    seen = set()
    for record in _ok_records(records, params={}):
        name = record.get("workload")
        if name and name not in seen and record.get("engine") in _ART9_ENGINES:
            seen.add(name)
            present.append(name)
    return sorted(present)


# -- table builders ---------------------------------------------------------


def table2_dhrystone(records: List[dict]) -> ReportTable:
    """Table II — Dhrystone comparison of the three cores."""
    art9 = _require(_art9_record(records, "dhrystone"), "dhrystone on an ART-9 engine")
    vex = _require(_baseline_record(records, "dhrystone", "vexriscv"),
                   "dhrystone on the vexriscv baseline")
    pico = _require(_baseline_record(records, "dhrystone", "picorv32"),
                    "dhrystone on the picorv32 baseline")
    table = ReportTable(
        key="table2",
        title="Table II — Dhrystone simulation results",
        headers=["core", "cycles", "CPI", "DMIPS/MHz", "memory cells"],
    )
    for slug, label, record, unit in (
        ("art9", "ART-9 (this work)", art9, "trits"),
        ("vexriscv", "VexRiscv", vex, "bits"),
        ("picorv32", "PicoRV32", pico, "bits"),
    ):
        dmips = _dmips_per_mhz(record)
        table.rows.append([
            label, record["cycles"], f"{record['cpi']:.3f}", f"{dmips:.3f}",
            f"{record.get('memory_cells', 0)} {unit}",
        ])
        table.metrics[f"{slug}_dmips_per_mhz"] = dmips
    table.metrics["art9_cycles"] = float(art9["cycles"])
    table.metrics["art9_cpi"] = float(art9["cpi"])
    return table


def table3_cycles(records: List[dict]) -> ReportTable:
    """Table III — processing cycles of every benchmark across the cores."""
    table = ReportTable(
        key="table3",
        title="Table III — processing cycles per benchmark",
        headers=["workload", "ART-9 cycles", "PicoRV32 cycles", "VexRiscv cycles"],
    )
    workloads = _default_workloads(records)
    if not workloads:
        raise ReportError("no verified default-parameter ART-9 records in the "
                          "results database")
    for name in workloads:
        art9 = _require(_art9_record(records, name), f"{name} on an ART-9 engine")
        pico = _baseline_record(records, name, "picorv32")
        vex = _baseline_record(records, name, "vexriscv")
        table.rows.append([
            name, art9["cycles"],
            pico["cycles"] if pico else "-",
            vex["cycles"] if vex else "-",
        ])
        table.metrics[f"{name}_art9_cycles"] = float(art9["cycles"])
        if pico:
            table.metrics[f"{name}_picorv32_cycles"] = float(pico["cycles"])
        if vex:
            table.metrics[f"{name}_vexriscv_cycles"] = float(vex["cycles"])
    return table


def _dhrystone_performance(records: List[dict], hardware: HardwareFramework):
    art9 = _require(_art9_record(records, "dhrystone"), "dhrystone on an ART-9 engine")
    cntfet, fpga = hardware.performance_from_cycles(
        art9["cycles"], _iterations(art9),
        memory_cells=art9.get("memory_cells"))
    return art9, cntfet, fpga


def table4_cntfet(records: List[dict], hardware: HardwareFramework) -> ReportTable:
    """Table IV — CNTFET ternary-gate implementation."""
    _, cntfet, _ = _dhrystone_performance(records, hardware)
    gate_report = hardware.analyze_gates()
    table = ReportTable(
        key="table4",
        title="Table IV — CNTFET ternary-gate implementation",
        headers=["metric", "value"],
        rows=[
            ["technology", gate_report.technology],
            ["supply voltage (V)", gate_report.supply_voltage],
            ["total ternary gates", gate_report.total_gates],
            ["max frequency (MHz)", f"{gate_report.max_frequency_mhz:.1f}"],
            ["power at fmax (uW)", f"{gate_report.total_power_uw:.2f}"],
            ["DMIPS", f"{cntfet.dmips:.1f}"],
            ["DMIPS/MHz", f"{cntfet.dmips_per_mhz:.3f}"],
            ["DMIPS/W", f"{cntfet.dmips_per_watt:.3e}"],
        ],
        metrics={
            "total_gates": float(gate_report.total_gates),
            "max_frequency_mhz": gate_report.max_frequency_mhz,
            "total_power_uw": gate_report.total_power_uw,
            "dmips": cntfet.dmips,
            "dmips_per_mhz": cntfet.dmips_per_mhz,
            "dmips_per_watt": cntfet.dmips_per_watt,
        },
    )
    return table


def table5_fpga(records: List[dict], hardware: HardwareFramework) -> ReportTable:
    """Table V — FPGA-based ternary-logic emulation."""
    _, _, fpga = _dhrystone_performance(records, hardware)
    fpga_report = hardware.analyze_fpga()
    table = ReportTable(
        key="table5",
        title="Table V — FPGA-based ternary-logic emulation",
        headers=["metric", "value"],
        rows=[
            ["device", fpga_report.device],
            ["ALMs", fpga_report.alms],
            ["registers", fpga_report.registers],
            ["RAM bits", fpga_report.ram_bits],
            ["frequency (MHz)", f"{fpga_report.frequency_mhz:.1f}"],
            ["power (W)", f"{fpga_report.total_power_w:.3f}"],
            ["DMIPS", f"{fpga.dmips:.1f}"],
            ["DMIPS/W", f"{fpga.dmips_per_watt:.1f}"],
        ],
        metrics={
            "alms": float(fpga_report.alms),
            "registers": float(fpga_report.registers),
            "ram_bits": float(fpga_report.ram_bits),
            "frequency_mhz": fpga_report.frequency_mhz,
            "total_power_w": fpga_report.total_power_w,
            "dmips": fpga.dmips,
            "dmips_per_watt": fpga.dmips_per_watt,
        },
    )
    return table


def fig5_memory_cells(records: List[dict]) -> ReportTable:
    """Fig. 5 — instruction-memory cells per benchmark program."""
    table = ReportTable(
        key="fig5",
        title="Fig. 5 — instruction-memory cells per benchmark",
        headers=["workload", "ART-9 (trits)", "RV-32I (bits)", "ARMv6-M (bits)",
                 "trits/bits ratio"],
    )
    workloads = _default_workloads(records)
    if not workloads:
        raise ReportError("no verified default-parameter ART-9 records in the "
                          "results database")
    for name in workloads:
        art9 = _require(_art9_record(records, name), f"{name} on an ART-9 engine")
        trits = art9.get("memory_cells")
        ratio = art9.get("memory_cell_ratio")
        if trits is None or not ratio:
            raise ReportError(
                f"the {name} record predates the memory-cell fields; rerun "
                "the sweep with --no-resume to refresh it")
        rv_record = (_baseline_record(records, name, "picorv32")
                     or _baseline_record(records, name, "vexriscv"))
        # The translation report embeds trits/bits, so the binary footprint
        # is recoverable even without a baseline record.
        rv_bits = (rv_record["memory_cells"] if rv_record
                   else round(trits / ratio))
        thumb = _baseline_record(records, name, "armv6m")
        table.rows.append([
            name, trits, rv_bits,
            thumb["memory_cells"] if thumb else "-",
            f"{trits / rv_bits:.3f}",
        ])
        table.metrics[f"{name}_ratio"] = trits / rv_bits
        if thumb:
            table.metrics[f"{name}_armv6m_bits"] = float(thumb["memory_cells"])
    return table


def machine_corners(records: List[dict], hardware: HardwareFramework) -> ReportTable:
    """Design-space corners — Dhrystone across machine configurations.

    One row per microarchitecture config with a verified default-parameter
    Dhrystone record: measured cycles/CPI joined with the
    Table IV/V implementation models
    (:meth:`~repro.framework.hwflow.HardwareFramework.
    performance_from_cycles`), so deepening the pipeline or changing the
    branch policy shows up directly as CNTFET and FPGA DMIPS deltas.
    """
    table = ReportTable(
        key="machines",
        title="Design-space corners — Dhrystone across machine configs",
        headers=["config", "cycles", "CPI", "CNTFET DMIPS/MHz",
                 "CNTFET DMIPS", "FPGA DMIPS"],
    )
    present = {_machine(record)
               for record in _ok_records(records, machine=None,
                                         workload="dhrystone", optimize=True,
                                         params={})
               if record.get("engine") in _ART9_ENGINES}
    known = list(machine_names())
    ordered = ([name for name in known if name in present]
               + sorted(name for name in present if name not in known))
    if not ordered:
        raise ReportError(
            "no verified dhrystone record for any machine config; run "
            "`art9 sweep --preset machines` (or any dhrystone sweep) first")
    for name in ordered:
        record = _require(
            _art9_record(records, "dhrystone", machine=name),
            f"dhrystone on an ART-9 engine under the {name!r} machine")
        cntfet, fpga = hardware.performance_from_cycles(
            record["cycles"], _iterations(record),
            memory_cells=record.get("memory_cells"))
        table.rows.append([
            name, record["cycles"], f"{record['cpi']:.3f}",
            f"{cntfet.dmips_per_mhz:.3f}", f"{cntfet.dmips:.1f}",
            f"{fpga.dmips:.1f}",
        ])
        table.metrics[f"{name}_cycles"] = float(record["cycles"])
        table.metrics[f"{name}_cpi"] = float(record["cpi"])
        table.metrics[f"{name}_cntfet_dmips_per_mhz"] = cntfet.dmips_per_mhz
        table.metrics[f"{name}_fpga_dmips"] = fpga.dmips
    table.notes.append(
        f"Tables II-V above are pinned to the {DEFAULT_MACHINE_NAME!r} "
        "config; this table compares every config present in the database.")
    return table


def timings_summary(records: List[dict]) -> ReportTable:
    """Per-phase wall-time summary — where sweep time actually went.

    Aggregates the ``timings`` field the workers attach to every record
    (translation / engine build / execution seconds, plus the artifact-cache
    hit flag) per engine with :func:`phase_summary`.  Records written before
    the instrumentation existed are counted but not timed, so mixed runs
    still render honestly.
    """
    table = ReportTable(
        key="timings",
        title="Per-phase timing summary — where the sweep time went",
        headers=["engine", "jobs", "timed", "xlate (s)", "codegen (s)",
                 "execute (s)", "cache hit rate"],
    )
    rows = phase_summary(records)
    timed = [row for row in rows if row["timed_jobs"]]
    if not timed:
        raise ReportError(
            "no records with phase timings in the results database; records "
            "written before the instrumentation existed lack them — rerun "
            "the sweep with --no-resume to refresh")
    for row in rows:
        hit_rate = ("-" if not row["cache_known"]
                    else f"{row['cache_hits'] / row['cache_known']:.0%}")
        table.rows.append([
            row["engine"], row["jobs"], row["timed_jobs"],
            f"{row['xlate_s']:.3f}", f"{row['codegen_s']:.3f}",
            f"{row['execute_s']:.3f}", hit_rate,
        ])
        table.metrics[f"{row['engine']}_execute_s"] = row["execute_s"]
    for phase in PHASES:
        table.metrics[f"total_{phase}"] = sum(row[phase] for row in rows)
    known = sum(row["cache_known"] for row in rows)
    if known:
        table.metrics["cache_hit_rate"] = (
            sum(row["cache_hits"] for row in rows) / known)
    untimed = sum(row["jobs"] - row["timed_jobs"] for row in rows)
    if untimed:
        table.notes.append(
            f"{untimed} record(s) predate the timing instrumentation and "
            "contribute no seconds; rerun with --no-resume to refresh them.")
    return table


# -- report assembly --------------------------------------------------------


def build_report(records: List[dict],
                 hardware: Optional[HardwareFramework] = None,
                 strict: bool = False) -> List[ReportTable]:
    """Every table from one record list (:func:`load_runs`).

    With ``strict`` the first table whose records are missing raises
    :class:`ReportError`; otherwise the failed table is emitted empty with
    the explanation as a note, so partial runs still render.
    """
    hardware = hardware or HardwareFramework()
    builders = (
        ("table2", "Table II — Dhrystone simulation results",
         lambda: table2_dhrystone(records)),
        ("table3", "Table III — processing cycles per benchmark",
         lambda: table3_cycles(records)),
        ("table4", "Table IV — CNTFET ternary-gate implementation",
         lambda: table4_cntfet(records, hardware)),
        ("table5", "Table V — FPGA-based ternary-logic emulation",
         lambda: table5_fpga(records, hardware)),
        ("fig5", "Fig. 5 — instruction-memory cells per benchmark",
         lambda: fig5_memory_cells(records)),
        ("machines", "Design-space corners — Dhrystone across machine configs",
         lambda: machine_corners(records, hardware)),
        ("timings", "Per-phase timing summary — where the sweep time went",
         lambda: timings_summary(records)),
    )
    tables = []
    for key, title, builder in builders:
        try:
            tables.append(builder())
        except ReportError as exc:
            if strict:
                raise
            tables.append(ReportTable(key=key, title=title, headers=[],
                                      notes=[str(exc)]))
    return tables


def render_report(tables: Sequence[ReportTable], fmt: str = "markdown") -> str:
    """Render the tables as one markdown or CSV document."""
    if fmt == "markdown":
        parts = ["# ART-9 evaluation report", ""]
        parts.extend(table.to_markdown() + "\n" for table in tables)
        return "\n".join(parts).rstrip() + "\n"
    if fmt == "csv":
        return "\n".join(table.to_csv() for table in tables)
    raise ValueError(f"unknown report format {fmt!r}; known: markdown, csv")
