"""Lockstep differential execution of abstraction levels.

Drives any set of abstraction levels -- algorithmic golden, TLM,
behavioural, RTL and gate level (each either interpreted or compiled)
-- over one :class:`~repro.verify.stimulus.StimulusCase` and
diffs every level bit-exactly against the golden model of its schedule
domain:

* untimed levels (C++, TLM) compare against the golden model on the
  *exact* event schedule;
* clocked levels compare against the golden model re-run on the
  *clock-quantised* schedule (the paper's Figure 7 propagation).

Because every level is compared against the shared golden reference,
agreement is transitive: a clean report means every *pair* of levels
agrees bit-exactly.  A divergence is localised to the first differing
output frame, the differing signal (``out_l`` / ``out_r`` / stream
length) and -- for clocked levels -- the clock cycle on which the DUT
produced that frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..engines import expand
from ..flow.refinement import Level, build_module
from ..gatesim import GateSimulator
from ..obs.trace import span
from ..rtl import RtlSimulator
from ..src_design.algorithmic import AlgorithmicSrc
from ..src_design.behavioral import BehavioralSimulation
from ..src_design.params import SrcParams
from ..src_design.schedule import make_schedule
from ..src_design.testbench import (BehavioralDutDriver, RtlDutDriver,
                                    run_clocked, run_tlm)
from ..synth import synthesize
from .stimulus import StimulusCase

#: CLI-facing level aliases
LEVEL_ALIASES = {
    "alg": Level.ALGORITHMIC,
    "tlm": Level.TLM_REFINED,
    "tlm-mono": Level.TLM_MONOLITHIC,
    "beh": Level.BEH_OPT,
    "beh-unopt": Level.BEH_UNOPT,
    "rtl": Level.RTL_OPT,
    "rtl-unopt": Level.RTL_UNOPT,
    "vhdl": Level.VHDL_REF,
    "gate": Level.GATE_RTL,
    "gate-rtl": Level.GATE_RTL,
    "gate-beh": Level.GATE_BEH,
}

#: levels whose simulator has an interpreted/compiled engine choice
BACKEND_LEVELS = frozenset((
    Level.BEH_UNOPT, Level.BEH_OPT,
    Level.RTL_UNOPT, Level.RTL_OPT, Level.VHDL_REF,
    Level.GATE_BEH, Level.GATE_RTL,
))

#: the default level set of ``python -m repro verify``
DEFAULT_LEVELS = "alg,tlm,beh,rtl,gate"


@dataclass(frozen=True)
class LevelSpec:
    """One abstraction level plus the simulation engine driving it."""

    level: Level
    backend: str = "interpreted"

    @property
    def key(self) -> str:
        if self.level in BACKEND_LEVELS:
            return f"{self.level.value}/{self.backend}"
        return self.level.value

    @property
    def is_clocked(self) -> bool:
        return self.level.is_clocked


def parse_level_specs(text: str, backend: str = "interpreted"
                      ) -> List[LevelSpec]:
    """Parse a ``--levels`` string into level specs.

    *backend* is one engine of :mod:`repro.engines`, ``both``
    (interpreted + compiled) or ``all`` (every engine); it applies to
    every level with an engine choice, and multi-engine selections
    yield one spec per engine so the engines are cross-checked against
    each other.  ``native`` degrades to
    ``compiled`` when no C toolchain is present.
    """
    selected = expand(backend)
    specs: List[LevelSpec] = []
    for token in text.split(","):
        token = token.strip().lower()
        if not token:
            continue
        level = LEVEL_ALIASES.get(token)
        if level is None:
            raise ValueError(
                f"unknown level {token!r} "
                f"(known: {', '.join(sorted(LEVEL_ALIASES))})"
            )
        if level in BACKEND_LEVELS:
            for b in selected:
                spec = LevelSpec(level, b)
                if spec not in specs:
                    specs.append(spec)
        else:
            spec = LevelSpec(level)
            if spec not in specs:
                specs.append(spec)
    if not specs:
        raise ValueError("no levels selected")
    return specs


class LevelBuilds:
    """Per-session cache of RTL modules and synthesised netlists.

    Building a module is cheap, synthesis is not; both are pure
    functions of ``params`` so one instance is shared across all cases
    of a verification run.  ``netlist_overrides`` substitutes a custom
    (e.g. deliberately mutated) netlist for a gate level -- the
    self-check mode uses this to prove the harness catches real bugs.
    """

    def __init__(self, params: SrcParams,
                 netlist_overrides: Optional[Dict[Level, object]] = None):
        self.params = params
        self.netlist_overrides = dict(netlist_overrides or {})
        self._modules: Dict[Level, object] = {}
        self._netlists: Dict[Level, object] = {}

    def module(self, level: Level):
        if level not in self._modules:
            self._modules[level] = build_module(self.params, level)
        return self._modules[level]

    def netlist(self, level: Level):
        if level in self.netlist_overrides:
            return self.netlist_overrides[level]
        if level not in self._netlists:
            self._netlists[level] = synthesize(self.module(level))
        return self._netlists[level]


@dataclass
class LevelRun:
    """Execution record of one level over one case."""

    spec: LevelSpec
    outputs: List[Tuple[int, ...]] = field(default_factory=list)
    #: clock tick each output frame appeared on (clocked levels only)
    ticks: Optional[List[int]] = None
    error: Optional[str] = None


@dataclass
class Divergence:
    """First point where a level left the golden reference."""

    frame: int                  # output sample index
    signal: str                 # "out_l", "out_r" or "length"
    cycle: Optional[int]        # DUT clock cycle (clocked levels)
    got: Optional[Tuple[int, ...]]
    want: Optional[Tuple[int, ...]]

    def format(self) -> str:
        where = f"frame {self.frame}, signal {self.signal}"
        if self.cycle is not None:
            where += f", cycle {self.cycle}"
        return f"{where}: got {self.got}, want {self.want}"


@dataclass
class LevelDiff:
    """Bit-exact comparison of one level against its golden reference."""

    spec: LevelSpec
    reference: str
    equal: bool
    n_frames: int
    mismatch_count: int = 0
    divergence: Optional[Divergence] = None
    error: Optional[str] = None

    def format(self) -> str:
        if self.error is not None:
            return f"[CRASH] {self.spec.key:24s} {self.error}"
        if self.equal:
            return (f"[OK  ] {self.spec.key:24s} == {self.reference} "
                    f"({self.n_frames} frames)")
        return (f"[FAIL] {self.spec.key:24s} != {self.reference} "
                f"({self.mismatch_count} frames differ; first at "
                f"{self.divergence.format()})")


def make_dut(params: SrcParams, spec: LevelSpec, builds: LevelBuilds):
    """Construct a fresh clocked DUT driver for *spec*."""
    level = spec.level
    if level in (Level.BEH_UNOPT, Level.BEH_OPT):
        sim = BehavioralSimulation(params,
                                   optimized=(level is Level.BEH_OPT),
                                   backend=spec.backend)
        return BehavioralDutDriver(sim, params), sim
    if level in (Level.RTL_UNOPT, Level.RTL_OPT, Level.VHDL_REF):
        sim = RtlSimulator(builds.module(level), backend=spec.backend)
        return RtlDutDriver(sim, params), sim
    if level in (Level.GATE_BEH, Level.GATE_RTL):
        sim = GateSimulator(builds.netlist(level), backend=spec.backend)
        return RtlDutDriver(sim, params), sim
    raise ValueError(f"{level} is not a clocked level")


def run_case_level(params: SrcParams, spec: LevelSpec, case: StimulusCase,
                   builds: LevelBuilds, coverage=None) -> LevelRun:
    """Execute one level over one case, recording per-output cycles."""
    run = LevelRun(spec)
    level = spec.level
    try:
        if not spec.is_clocked:
            schedule = make_schedule(params, case.mode, case.n_inputs,
                                     mode_changes=case.mode_changes)
            if level is Level.ALGORITHMIC:
                src = AlgorithmicSrc(params, mode=case.mode)
                run.outputs = src.process_schedule(schedule, case.inputs)
            else:
                run.outputs = run_tlm(
                    params, schedule, case.inputs,
                    refined=(level is Level.TLM_REFINED))
            return run
        schedule = make_schedule(params, case.mode, case.n_inputs,
                                 quantized=True,
                                 mode_changes=case.mode_changes)
        driver, sim = make_dut(params, spec, builds)
        ticks: List[int] = []
        handle = coverage.begin(spec, sim) if coverage is not None else None

        def on_cycle(tick, result):
            if result is not None:
                ticks.append(tick)
            if handle is not None:
                handle.sample()

        run.outputs = run_clocked(params, driver, schedule, case.inputs,
                                  on_cycle=on_cycle)
        run.ticks = ticks
        if handle is not None:
            coverage.end(handle)
    except Exception as exc:  # crash = caught divergence, never a pass
        run.error = f"{type(exc).__name__}: {exc}"
    return run


def golden_outputs(params: SrcParams, case: StimulusCase,
                   quantized: bool) -> List[Tuple[int, ...]]:
    """The golden algorithmic model over the case's schedule domain."""
    schedule = make_schedule(params, case.mode, case.n_inputs,
                             quantized=quantized,
                             mode_changes=case.mode_changes)
    src = AlgorithmicSrc(params, mode=case.mode)
    return src.process_schedule(schedule, case.inputs)


def diff_against_reference(reference: Sequence[Tuple[int, ...]],
                           reference_name: str, run: LevelRun) -> LevelDiff:
    """Bit-exact diff with first-divergence localisation."""
    if run.error is not None:
        return LevelDiff(run.spec, reference_name, equal=False,
                         n_frames=len(run.outputs), error=run.error)
    mismatches = 0
    first: Optional[Divergence] = None
    for i, (want, got) in enumerate(zip(reference, run.outputs)):
        want = tuple(want)
        got = tuple(got)
        if want != got:
            mismatches += 1
            if first is None:
                signal = "out_l" if want[0] != got[0] else "out_r"
                cycle = run.ticks[i] if run.ticks is not None else None
                first = Divergence(i, signal, cycle, got, want)
    if len(reference) != len(run.outputs) and first is None:
        frame = min(len(reference), len(run.outputs))
        cycle = None
        if run.ticks is not None and frame < len(run.ticks):
            cycle = run.ticks[frame]
        first = Divergence(frame, "length", cycle,
                           (len(run.outputs),), (len(reference),))
        mismatches += 1
    return LevelDiff(run.spec, reference_name,
                     equal=(first is None),
                     n_frames=len(run.outputs),
                     mismatch_count=mismatches, divergence=first)


@dataclass
class CaseReport:
    """All level diffs for one stimulus case."""

    case: StimulusCase
    diffs: List[LevelDiff] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(d.equal for d in self.diffs)

    @property
    def failures(self) -> List[LevelDiff]:
        return [d for d in self.diffs if not d.equal]

    def format(self) -> str:
        lines = [self.case.replay_hint()]
        lines += ["  " + d.format() for d in self.diffs]
        return "\n".join(lines)


def run_differential(params: SrcParams, specs: Sequence[LevelSpec],
                     case: StimulusCase, builds: LevelBuilds,
                     coverage=None) -> CaseReport:
    """Run every level of *specs* over *case* and diff against golden."""
    report = CaseReport(case)
    ref_exact: Optional[List[Tuple[int, ...]]] = None
    ref_quant: Optional[List[Tuple[int, ...]]] = None
    with span("verify.case", kind=case.kind, seed=case.seed,
              n_inputs=case.n_inputs):
        for spec in specs:
            if spec.level is Level.ALGORITHMIC and not spec.is_clocked:
                # the golden model itself: nothing to diff against
                continue
            if spec.is_clocked:
                if ref_quant is None:
                    ref_quant = golden_outputs(params, case,
                                               quantized=True)
                reference, ref_name = ref_quant, "golden(quantised)"
            else:
                if ref_exact is None:
                    ref_exact = golden_outputs(params, case,
                                               quantized=False)
                reference, ref_name = ref_exact, "golden(exact)"
            with span("verify.level", level=spec.key):
                run = run_case_level(params, spec, case, builds,
                                     coverage=coverage)
            report.diffs.append(
                diff_against_reference(reference, ref_name, run))
    return report
