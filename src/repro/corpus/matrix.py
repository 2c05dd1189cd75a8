"""The corpus matrix runner: one campaign over the whole design corpus.

``python -m repro corpus`` pushes every generated member through the
full flow -- refine (all three abstraction levels vs. the golden model),
differential verify (every level on every simulation engine), synthesize
(area report), fault injection, and the harden/re-verify loop (TMR or
parity on the highest-SDC registers, re-synthesis, re-injection) --
and aggregates per-design pass/fail, coverage, area and outcome rates
into the schema-locked ``BENCH_corpus.json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .. import engines
from ..fi.campaign import CampaignError, PoolInterrupted, parallel_map
from ..fi.report import tally
from ..obs.trace import span
from ..gatesim.compiled import structural_hash
from ..rtl.simulate import RtlSimulator
from ..synth import report_area, synthesize
from .designs import (CORPUS_LEVELS, CorpusError, build_design,
                      generate_corpus)
from .harden import PARITY_PORT, harden_module, select_harden_targets
from .inject import (generate_design_faultload, run_design_campaign,
                     sdc_counts_by_register)

#: simulation engines every level is cross-checked on ("native"
#: silently runs as "compiled" when no C toolchain is present)
ENGINES = tuple(engines.ENGINES)


@dataclass(frozen=True)
class CorpusBudget:
    """Per-design effort knobs of one matrix run."""

    n_frames: int    # SRC stimulus frames
    n_tx: int        # transactions for the HLS members
    n_faults: int    # faultload size per design (and per re-injection)
    harden_top: int  # how many top-SDC registers to harden


CORPUS_BUDGETS: Dict[str, CorpusBudget] = {
    "smoke": CorpusBudget(n_frames=8, n_tx=5, n_faults=24, harden_top=2),
    "small": CorpusBudget(n_frames=12, n_tx=8, n_faults=48, harden_top=3),
    "medium": CorpusBudget(n_frames=16, n_tx=16, n_faults=96,
                           harden_top=3),
    "large": CorpusBudget(n_frames=24, n_tx=32, n_faults=192,
                          harden_top=4),
}


@dataclass
class CorpusConfig:
    seed: int = 0
    n_designs: int = 6
    budget: str = "small"
    backend: str = "compiled"
    strategy: str = "tmr"
    models: Tuple[str, ...] = ("seu",)
    jobs: int = 1

    def __post_init__(self) -> None:
        # the backend runs the gate-level fault batches
        valid = engines.batch_engines("gate")
        if self.backend not in valid:
            raise CorpusError(f"unknown corpus backend {self.backend!r} "
                              f"(expected one of {valid})")


@dataclass
class CorpusReport:
    config: CorpusConfig
    rows: List[Dict[str, object]]
    #: the matrix run was interrupted; ``rows`` holds the finished
    #: prefix of the roster (no BENCH json is written for partial runs)
    interrupted: bool = False

    @property
    def passed(self) -> bool:
        return (not self.interrupted
                and all(row["refine"]["pass"] and row["verify"]["pass"]
                        for row in self.rows))

    def summary(self) -> Dict[str, object]:
        hardened = [row for row in self.rows
                    if row["harden"] is not None]
        return {
            "n_designs": len(self.rows),
            "refine_pass": sum(1 for r in self.rows
                               if r["refine"]["pass"]),
            "verify_pass": sum(1 for r in self.rows
                               if r["verify"]["pass"]),
            "verify_checks": sum(r["verify"]["checks"]
                                 for r in self.rows),
            "verify_failures": sum(len(r["verify"]["failures"])
                                   for r in self.rows),
            "total_faults": sum(r["fi"]["n_faults"] for r in self.rows),
            "hardened": len(hardened),
            "improved": sum(1 for r in hardened
                            if r["harden"]["improved"]),
            "total_area": round(sum(r["synth"]["area_total"]
                                    for r in self.rows), 2),
        }

    def as_dict(self) -> Dict[str, object]:
        return {
            "corpus": {
                "seed": self.config.seed,
                "n_designs": self.config.n_designs,
                "budget": self.config.budget,
                "backend": self.config.backend,
                "strategy": self.config.strategy,
                "models": list(self.config.models),
            },
            "designs": self.rows,
            "summary": self.summary(),
        }

    def format(self) -> str:
        lines = ["design            kind     refine verify  cover  "
                 "area    sdc%   harden(sdc%->sdc%, area+%)"]
        for row in self.rows:
            fi = row["fi"]
            harden = row["harden"]
            hcol = "-"
            if harden is not None:
                hcol = (f"{harden['sdc_rate_before']:.2f}->"
                        f"{harden['sdc_rate']:.2f}, "
                        f"+{harden['area_delta_percent']:.0f}%"
                        f"{' *' if harden['improved'] else ''}")
            lines.append(
                f"{row['name']:<17s} {row['kind']:<8s} "
                f"{'ok' if row['refine']['pass'] else 'FAIL':<6s} "
                f"{'ok' if row['verify']['pass'] else 'FAIL':<7s} "
                f"{row['coverage']['fraction']:.2f}   "
                f"{row['synth']['area_total']:<7.0f} "
                f"{fi['sdc_rate']:.2f}   {hcol}")
        s = self.summary()
        lines.append(
            f"{s['n_designs']} designs, {s['verify_checks']} "
            f"equivalence checks, {s['verify_failures']} failures; "
            f"{s['total_faults']} faults injected; "
            f"{s['improved']}/{s['hardened']} designs improved by "
            f"hardening")
        if self.interrupted:
            lines.append(
                f"INTERRUPTED: partial matrix -- "
                f"{len(self.rows)}/{self.config.n_designs} design(s) "
                "finished before the stop (pool torn down cleanly)")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# per-design pipeline
# ----------------------------------------------------------------------

def _register_coverage(module, waveform) -> Dict[str, object]:
    """Register-bit toggle coverage over the fault-free waveform."""
    sim = RtlSimulator(module)
    prev = {reg.name: reg.init for reg in module.registers}
    toggled = {reg.name: 0 for reg in module.registers}
    for drive in waveform:
        for name, value in drive.items():
            sim.set_input(name, value)
        sim.step()
        for reg in module.registers:
            value = sim.env[reg.name]
            toggled[reg.name] |= value ^ prev[reg.name]
            prev[reg.name] = value
    total = sum(reg.width for reg in module.registers)
    hit = sum(bin(t).count("1") for t in toggled.values())
    return {"reg_bits": total, "toggled": hit,
            "fraction": round(hit / total, 4) if total else 0.0}


def _area_dict(netlist, name: str) -> Dict[str, object]:
    area = report_area(netlist, name)
    return {"area_total": round(area.total, 2),
            "area_combinational": round(area.combinational, 2),
            "area_sequential": round(area.sequential, 2),
            "n_cells": len(netlist.cells),
            "n_flops": area.flop_count}


def _rates(records) -> Dict[str, object]:
    counts = tally(records)
    n = len(records)
    out: Dict[str, object] = {"n_faults": n}
    for outcome in ("masked", "sdc", "detected", "hang"):
        out[outcome] = counts.get(outcome, 0)
        out[f"{outcome}_rate"] = round(out[outcome] / n, 4) if n else 0.0
    return out


def run_design(spec, config: CorpusConfig) -> Dict[str, object]:
    """One corpus member through the whole pipeline; returns its row."""
    with span("corpus.design", design=spec.name, kind=spec.kind):
        return _run_design(spec, config)


def _run_design(spec, config: CorpusConfig) -> Dict[str, object]:
    budget = CORPUS_BUDGETS[config.budget]
    design = build_design(spec)
    golden = design.golden_frames()

    # refine + differential verify: every level on every engine
    refine: Dict[str, bool] = {}
    failures: List[Dict[str, object]] = []
    checks = 0
    with span("corpus.refine", design=spec.name):
        for level in CORPUS_LEVELS:
            for engine in ENGINES:
                frames = design.run_level(level, engine)
                checks += 1
                ok = frames == golden
                if engine == "interpreted":
                    refine[level] = ok
                if not ok:
                    failures.append({
                        "level": level, "engine": engine,
                        "replay": (f"generate_corpus({config.seed}, "
                                   f"{config.n_designs}) -> {spec.name}"),
                    })
    refine_row = dict(refine)
    refine_row["pass"] = all(refine.values())

    waveform = design.waveform()
    coverage = _register_coverage(design.build_rtl(), waveform)
    netlist = design.netlist()
    synth_row = _area_dict(netlist, spec.name)

    with span("corpus.inject", design=spec.name) as inject_span:
        faults = generate_design_faultload(netlist, budget.n_faults,
                                           spec.seed + 1, len(waveform),
                                           models=config.models)
        inject_span.note(n_faults=len(faults))
        records = run_design_campaign(netlist, waveform, golden,
                                      design.valid_port,
                                      design.frame_ports,
                                      faults, design.cycle_budget(),
                                      backend=config.backend)
    fi_row = _rates(records)

    harden_row: Optional[Dict[str, object]] = None
    targets = select_harden_targets(design.build_rtl(),
                                    sdc_counts_by_register(records),
                                    budget.harden_top)
    if targets:
        with span("corpus.harden", design=spec.name,
                  strategy=config.strategy):
            hardened = harden_module(design.build_rtl(), targets,
                                     config.strategy)
            hnet = synthesize(hardened)
            hfaults = generate_design_faultload(hnet, budget.n_faults,
                                                spec.seed + 2,
                                                len(waveform),
                                                models=config.models)
            detect = ((PARITY_PORT,) if config.strategy == "parity"
                      else ())
            try:
                # every batch runs the hardened netlist fault-free as
                # its pattern 0: that is the re-verify against golden
                hrecords = run_design_campaign(hnet, waveform, golden,
                                               design.valid_port,
                                               design.frame_ports, hfaults,
                                               design.cycle_budget(),
                                               backend=config.backend,
                                               detect_ports=detect)
            except CampaignError:
                raise CorpusError(
                    f"{spec.name}: hardened netlist diverged from golden "
                    "in the fault-free re-verify") from None
        harden_row = _rates(hrecords)
        harden_row["strategy"] = config.strategy
        harden_row["targets"] = targets
        harden_row["sdc_rate_before"] = fi_row["sdc_rate"]
        harden_area = _area_dict(hnet, f"{spec.name}__hardened")
        harden_row["area_total"] = harden_area["area_total"]
        harden_row["n_flops"] = harden_area["n_flops"]
        base_area = synth_row["area_total"]
        harden_row["area_delta_percent"] = round(
            100.0 * (harden_area["area_total"] - base_area) / base_area,
            2)
        harden_row["improved"] = \
            harden_row["sdc_rate"] < fi_row["sdc_rate"]

    return {
        "name": spec.name,
        "kind": spec.kind,
        "seed": spec.seed,
        "config": spec.config_dict(),
        "digest": design.digest(),
        "netlist_hash": structural_hash(netlist),
        "refine": refine_row,
        "verify": {"checks": checks, "failures": failures,
                   "pass": not failures},
        "coverage": coverage,
        "synth": synth_row,
        "fi": fi_row,
        "harden": harden_row,
    }


# ----------------------------------------------------------------------
# corpus-level driver (optionally multiprocess, one design per task)
# ----------------------------------------------------------------------

_WORKER_CONFIG: Optional[CorpusConfig] = None


def _init_worker(config: CorpusConfig) -> None:
    global _WORKER_CONFIG
    _WORKER_CONFIG = config


def _design_task(index: int) -> Dict[str, object]:
    config = _WORKER_CONFIG
    budget = CORPUS_BUDGETS[config.budget]
    spec = generate_corpus(config.seed, config.n_designs,
                           n_frames=budget.n_frames,
                           n_tx=budget.n_tx)[index]
    return run_design(spec, config)


def run_corpus(config: CorpusConfig) -> CorpusReport:
    if config.budget not in CORPUS_BUDGETS:
        raise CorpusError(f"unknown budget {config.budget!r}")
    try:
        with span("corpus.matrix", n_designs=config.n_designs,
                  jobs=config.jobs):
            rows = parallel_map(_design_task,
                                list(range(config.n_designs)),
                                config.jobs, initializer=_init_worker,
                                initargs=(config,))
    except PoolInterrupted as stop:
        # surface the finished designs instead of losing the run; the
        # pool was terminated *and* joined, so no workers are orphaned
        return CorpusReport(config=config, rows=stop.partial,
                            interrupted=True)
    return CorpusReport(config=config, rows=rows)
