"""Design-artefact generation.

Writes the flow's tangible outputs to a directory, mirroring what the
paper's toolchain left on disk: the intermediate RTL Verilog of every
design, the gate-level structural Verilog, area/timing reports, lint
reports, and a gate-level waveform of a short run.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..compile_cache import CacheStats, CompileCache, format_cache_report
from ..engines import ENGINES
from ..gatesim import COMPILE_CACHE, GateSimulator, GateVcdTracer
from ..native import toolchain_info
from ..obs.trace import format_stage_table, trace_events, tracing_enabled
from ..rtl import RTL_COMPILE_CACHE, emit_verilog, format_lint, lint
from ..src_design.params import SrcParams
from ..src_design.schedule import IDLE, clocked_stimulus, make_schedule
from ..src_design.testbench import RtlDutDriver
from ..synth import emit_gate_verilog, report_area, report_timing
from .performance import default_stimulus, host_info
from .synthesis_flow import SynthesisFlowResults, run_synthesis_flow


@dataclass
class ArtifactIndex:
    """What was written where."""

    directory: str
    files: List[str] = field(default_factory=list)

    def add(self, path: str) -> None:
        self.files.append(path)

    def format(self) -> str:
        lines = [f"artefacts in {self.directory}:"]
        lines += [f"  {os.path.relpath(f, self.directory)}"
                  for f in self.files]
        return "\n".join(lines)


def _write_stage_table(directory: str, index: ArtifactIndex) -> None:
    """When span tracing is on, leave the per-stage wall-time table
    next to the other artefacts."""
    if not tracing_enabled() or not trace_events():
        return
    path = os.path.join(directory, "stage_times.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_stage_table() + "\n")
    index.add(path)


def write_artifacts(params: SrcParams, directory: str,
                    results: Optional[SynthesisFlowResults] = None,
                    wave_cycles: int = 256,
                    backend: str = "interpreted") -> ArtifactIndex:
    """Generate all flow artefacts for *params* into *directory*.

    *backend* selects the gate-level simulation engine for the waveform
    run; an engine that generates code additionally leaves a
    ``compile_cache.txt`` report of the in-process compile-cache
    counters, broken down per owning backend.
    """
    os.makedirs(directory, exist_ok=True)
    index = ArtifactIndex(directory)
    results = results or run_synthesis_flow(params)

    summary_lines: List[str] = []
    for name, design in results.designs.items():
        slug = name.lower().replace(" ", "_").replace("-", "_") \
            .replace(".", "")
        # intermediate RTL Verilog (the Figure 9 'RTL' artefact)
        rtl_path = os.path.join(directory, f"{slug}.v")
        with open(rtl_path, "w", encoding="ascii") as fh:
            fh.write(emit_verilog(design.module))
        index.add(rtl_path)
        # gate-level structural Verilog
        gate_path = os.path.join(directory, f"{slug}_gates.v")
        with open(gate_path, "w", encoding="ascii") as fh:
            fh.write(emit_gate_verilog(design.netlist))
        index.add(gate_path)
        # reports
        report_path = os.path.join(directory, f"{slug}_reports.txt")
        with open(report_path, "w", encoding="utf-8") as fh:
            fh.write(design.area.format() + "\n\n")
            fh.write(design.timing.format() + "\n\n")
            fh.write(format_lint(lint(design.module), name) + "\n")
        index.add(report_path)
        summary_lines.append(
            f"{name:12s} total={design.area.total:9.1f} GE  "
            f"crit={design.timing.critical_path_ns:6.2f} ns"
        )

    # Figure 10 summary
    fig10_path = os.path.join(directory, "figure10.txt")
    with open(fig10_path, "w", encoding="utf-8") as fh:
        fh.write(results.format_figure10() + "\n\n")
        fh.write("\n".join(summary_lines) + "\n")
    index.add(fig10_path)

    # gate-level waveform of a short run (RTL-opt design)
    design = results.designs["RTL opt."]
    sim = GateSimulator(design.netlist, backend=backend)
    tracer = GateVcdTracer(
        sim,
        ports=["in_valid", "in_l", "in_r", "out_req", "out_valid",
               "out_l", "out_r"],
        timescale_ns=params.clock_period_ps / 1000.0,
    )
    driver = RtlDutDriver(sim, params)
    n_inputs = max(8, wave_cycles // 40)
    stimulus = clocked_stimulus(
        params, make_schedule(params, 0, n_inputs, quantized=True),
        default_stimulus(params, n_inputs))
    stimulus += [IDLE] * (wave_cycles - len(stimulus))
    for frame, cfg, req in stimulus[:wave_cycles]:
        driver.cycle(frame=frame, cfg=cfg, req=req)
        tracer.sample()
    wave_path = os.path.join(directory, "rtl_opt_gates.vcd")
    tracer.write(wave_path)
    index.add(wave_path)

    if ENGINES[backend].compiles:
        cache_path = os.path.join(directory, "compile_cache.txt")
        with open(cache_path, "w", encoding="utf-8") as fh:
            fh.write(format_cache_report() + "\n")
        index.add(cache_path)

    _write_stage_table(directory, index)
    index_path = os.path.join(directory, "INDEX.txt")
    with open(index_path, "w", encoding="utf-8") as fh:
        fh.write(index.format() + "\n")
    index.add(index_path)
    return index


def write_verify_artifacts(report, directory: str) -> ArtifactIndex:
    """Write a verification run's artefacts (coverage, counterexamples).

    *report* is a :class:`repro.verify.VerifyReport`.  Emits:

    * ``verify_report.txt`` -- the full human-readable report;
    * ``coverage.json`` -- input value-bucket and port-toggle coverage;
    * ``counterexample_NN.json`` -- one file per failure, holding the
      shrunk stimulus and the first-divergence localisation, directly
      replayable through the harness.
    """
    os.makedirs(directory, exist_ok=True)
    index = ArtifactIndex(directory)

    report_path = os.path.join(directory, "verify_report.txt")
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write(report.format() + "\n")
    index.add(report_path)

    coverage: Dict[str, object] = {}
    if report.input_coverage is not None:
        coverage["input"] = report.input_coverage.as_dict()
    if report.toggle_coverage is not None:
        coverage["toggle"] = report.toggle_coverage.as_dict()
    coverage_path = os.path.join(directory, "coverage.json")
    with open(coverage_path, "w", encoding="utf-8") as fh:
        json.dump(coverage, fh, indent=2, sort_keys=True)
        fh.write("\n")
    index.add(coverage_path)

    for n, failure in enumerate(report.failures):
        shrunk = failure.shrink.case if failure.shrink is not None \
            else failure.case_report.case
        evidence = failure.shrink.evidence if failure.shrink is not None \
            else failure.case_report.failures[0]
        divergence = getattr(evidence, "divergence", None)
        doc = {
            "case": shrunk.name,
            "seed": shrunk.seed,
            "kind": shrunk.kind,
            "mode": shrunk.mode,
            "mode_changes": [list(c) for c in shrunk.mode_changes],
            "inputs": [list(f) for f in shrunk.inputs],
            "level": getattr(getattr(evidence, "spec", None), "key", None),
            "first_divergence": None if divergence is None else {
                "frame": divergence.frame,
                "signal": divergence.signal,
                "cycle": divergence.cycle,
                "got": list(divergence.got or ()),
                "want": list(divergence.want or ()),
            },
        }
        path = os.path.join(directory, f"counterexample_{n:02d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        index.add(path)

    _write_stage_table(directory, index)
    index_path = os.path.join(directory, "INDEX.txt")
    with open(index_path, "w", encoding="utf-8") as fh:
        fh.write(index.format() + "\n")
    index.add(index_path)
    return index


def write_fi_bench_json(report, path: str) -> str:
    """Write a campaign's dependability metrics as machine-readable JSON.

    *report* is a :class:`repro.fi.CampaignReport`; the file goes to
    *path* exactly, and the path is returned.  The payload pins the
    campaign identity (level, seed, budget), the outcome classification
    (total and per fault model / target kind), injection throughput of
    every simulation engine the campaign exercised and the aggregated
    compile-cache counters (total and per owning backend) -- enough to
    track dependability and injection-speed trajectories across
    changes.
    """
    return _write_bench_record(report, path)


def write_corpus_bench_json(report, path: str) -> str:
    """Write a corpus matrix run as machine-readable JSON.

    *report* is a :class:`repro.corpus.CorpusReport`.  One row per
    generated design (digest, netlist hash, refine/verify verdicts,
    coverage, area, FI outcome rates and the harden/re-inject deltas)
    plus a corpus-wide summary -- schema-locked by
    tests/test_bench_schema.py like the other BENCH_* artifacts.  The
    file goes to *path* exactly, and the path is returned.
    """
    return _write_bench_record(report, path)


def _write_bench_record(report, path: str) -> str:
    """``report.as_dict()`` at *path*, plus the ``host``
    (:func:`~repro.flow.performance.host_info`) and ``toolchain``
    (:func:`repro.native.toolchain_info`) blocks the figure benches
    record, so a throughput row names the machine and compiler that
    produced it."""
    doc = dict(report.as_dict(), host=host_info(),
               toolchain=toolchain_info())
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def write_fi_artifacts(report, directory: str) -> ArtifactIndex:
    """Write a fault-injection campaign's artefacts.

    *report* is a :class:`repro.fi.CampaignReport`.  Emits:

    * ``fi_report.txt`` -- the human-readable campaign report with the
      per-fault record list (each line is a replayable fault spec);
    * ``BENCH_fi.json`` -- the dependability/throughput benchmark
      payload (same schema as the repository-root ``BENCH_fi.json``).
    """
    os.makedirs(directory, exist_ok=True)
    index = ArtifactIndex(directory)

    report_path = os.path.join(directory, "fi_report.txt")
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write(report.format(verbose=True) + "\n")
    index.add(report_path)

    index.add(write_fi_bench_json(
        report, os.path.join(directory, "BENCH_fi.json")))

    _write_stage_table(directory, index)
    index_path = os.path.join(directory, "INDEX.txt")
    with open(index_path, "w", encoding="utf-8") as fh:
        fh.write(index.format() + "\n")
    index.add(index_path)
    return index
