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

Each case's schedules are built once (:func:`case_timing`) and shared
by the golden model and every level.  A clocked level runs as one
``replay`` of the case's port waveform on the run's DUT of that level
(:meth:`LevelBuilds.dut`), put back in the state a new one starts in
(see :mod:`repro.engines`): on the generated-code engines that is one
kernel call, with no Python per cycle and no step on a tick whose start
state did not move.  The returned samples are decoded as
the per-cycle testbench (:func:`~repro.src_design.testbench.run_clocked`
with :class:`~repro.src_design.testbench.RtlDutDriver`) reads its DUT,
with the same outputs, ticks, stop point and errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..datatypes.integers import wrap_signed
from ..engines import expand, restart
from ..flow.refinement import Level, build_module
from ..gatesim import GateSimulator
from ..obs.trace import span
from ..rtl import RtlSimulator
from ..src_design.algorithmic import AlgorithmicSrc
from ..src_design.behavioral import BehavioralSimulation
from ..src_design.params import SrcParams
from ..src_design.schedule import (SampleEvent, clocked_stimulus,
                                   count_outputs, make_schedule)
from ..src_design.testbench import run_tlm, src_port_waveform
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

#: the clocked levels a DUT runs as an RTL module, and as a netlist
RTL_LEVELS = (Level.RTL_UNOPT, Level.RTL_OPT, Level.VHDL_REF)
GATE_LEVELS = (Level.GATE_BEH, Level.GATE_RTL)

#: the default level set of ``python -m repro verify``
DEFAULT_LEVELS = "alg,tlm,beh,rtl,gate"

#: the SRC's output ports, in the order the testbench reads them
OUT_PORTS = ("out_valid", "out_l", "out_r")


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
    """Per-session cache of RTL modules, synthesised netlists and DUTs.

    Building a module is cheap, synthesis is not; both are pure
    functions of ``params`` so one instance is shared across all cases
    of a verification run, and so is one DUT per clocked level spec
    (:meth:`dut`).  ``netlist_overrides`` substitutes a custom (e.g.
    deliberately mutated) netlist for a gate level -- the self-check
    mode uses this to prove the harness catches real bugs.
    """

    def __init__(self, params: SrcParams,
                 netlist_overrides: Optional[Dict[Level, object]] = None):
        self.params = params
        self.netlist_overrides = dict(netlist_overrides or {})
        self._modules: Dict[Level, object] = {}
        self._netlists: Dict[Level, object] = {}
        #: spec -> (its DUT, the DUT's input ports)
        self._duts: Dict[LevelSpec, Tuple[object, List[str]]] = {}

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

    def dut(self, spec: LevelSpec):
        """The DUT of clocked *spec*, in the state a new one starts in:
        built by :func:`make_dut` on first use, restarted
        (:func:`repro.engines.restart`) on every later one."""
        held = self._duts.get(spec)
        if held is None:
            sim = make_dut(self.params, spec, self)
            level = spec.level
            inputs = (list(self.netlist(level).inputs) if level in GATE_LEVELS
                      else self.module(level).input_names()
                      if level in RTL_LEVELS else sim.input_names())
            self._duts[spec] = (sim, inputs)
            return sim
        restart(*held)
        return held[0]


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


class CaseTiming(NamedTuple):
    """One case's event schedule in one domain -- exact, or clock
    quantised with the testbench's port waveform -- built once per case
    for the golden model and every level of the domain."""

    schedule: List[SampleEvent]
    #: the port writes of every clock tick (quantised schedules only)
    waveform: Optional[List[Dict[str, int]]] = None


def case_timing(params: SrcParams, case: StimulusCase,
                quantized: bool) -> CaseTiming:
    """*case*'s schedule in the exact or the clock-quantised domain,
    and for the latter its port waveform."""
    schedule = make_schedule(params, case.mode, case.n_inputs,
                             quantized=quantized,
                             mode_changes=case.mode_changes)
    if not quantized:
        return CaseTiming(schedule)
    return CaseTiming(schedule, src_port_waveform(
        clocked_stimulus(params, schedule, case.inputs)))


def make_dut(params: SrcParams, spec: LevelSpec, builds: LevelBuilds):
    """Construct a fresh clocked DUT for *spec*: a host that replays
    port waveforms (see :mod:`repro.engines`)."""
    level = spec.level
    if level in (Level.BEH_UNOPT, Level.BEH_OPT):
        return BehavioralSimulation(params,
                                    optimized=(level is Level.BEH_OPT),
                                    backend=spec.backend)
    if level in RTL_LEVELS:
        return RtlSimulator(builds.module(level), backend=spec.backend)
    if level in GATE_LEVELS:
        return GateSimulator(builds.netlist(level), backend=spec.backend)
    raise ValueError(f"{level} is not a clocked level")


def _gate_port(shift: int, width: int):
    """``(any_set, value)`` of the port whose *width* code bytes start
    at bit *shift* of a gate replay sample."""
    full = (1 << 8 * width) - 1
    unknown = int.from_bytes(b"\2" * width, "little")

    def any_set(codes: int) -> int:
        return codes >> shift & full

    def value(codes: int) -> Optional[int]:
        codes = codes >> shift & full
        if codes & unknown:
            return None
        return sum(bit << i
                   for i, bit in enumerate(codes.to_bytes(width, "little")))

    return any_set, value


def _out_ports(sim, ports: Sequence[str]):
    """``(any_set, value)`` of every :data:`OUT_PORTS` port in *sim*'s
    replay samples of *ports*: ``any_set`` is falsy when every bit of
    the port is 0, ``value`` is None when a bit is unknown."""
    if not hasattr(sim, "netlist"):  # RTL and FSM: tuples of values
        return [(itemgetter(ports.index(name)),) * 2 for name in OUT_PORTS]
    # gate: one 4-valued code per port bit and byte
    netlist = sim.netlist
    where, bit = {}, 0
    for name in ports:
        width = len(netlist.outputs.get(name) or netlist.inputs[name])
        where[name] = (8 * bit, width)
        bit += width
    return [_gate_port(*where[name]) for name in OUT_PORTS]


def _raise_getter_error(params: SrcParams, spec: LevelSpec,
                        builds: LevelBuilds, waveform, port: str) -> None:
    """Raise what the DUT's getter raises for *port* after the last tick
    of *waveform*, where a replay sampled an unknown bit: a fresh DUT
    replays it, so the per-cycle driver's error surfaces as it would."""
    sim = make_dut(params, spec, builds)
    sim.replay(waveform, ())
    sim.get(port)
    raise RuntimeError(f"a replay read {port!r} unknown, get does not")


def _replay_clocked(params: SrcParams, spec: LevelSpec,
                    builds: LevelBuilds, timing: CaseTiming, coverage
                    ) -> Tuple[List[Tuple[int, ...]], List[int]]:
    """One clocked level over a case: its outputs and the tick of each.

    The run's DUT of the level, restarted, replays the case's waveform
    in one call.  The samples decode as the per-cycle driver reads the
    DUT (``out_valid``, then on a valid tick ``out_l`` and ``out_r``),
    up to the tick of the last expected frame, where the per-cycle run
    stops; coverage folds those ticks, and only when the run raised
    nothing.
    """
    expected = count_outputs(timing.schedule)
    sim = builds.dut(spec)
    handle = coverage.begin(spec, sim) if coverage is not None else None
    ports = list(handle.widths if handle is not None else OUT_PORTS)
    samples = sim.replay(timing.waveform, ports)
    readers = _out_ports(sim, ports)
    valid = readers[0][0]
    dw = params.data_width
    outputs: List[Tuple[int, ...]] = []
    ticks: List[int] = []
    stop = len(samples)
    for tick, sample in enumerate(samples):
        if len(outputs) >= expected:
            stop = tick
            break
        if not valid(sample):
            continue
        values = []
        for name, (_, value) in zip(OUT_PORTS, readers):
            v = value(sample)
            if v is None:
                _raise_getter_error(params, spec, builds,
                                    timing.waveform[:tick + 1], name)
            values.append(v)
        outputs.append((wrap_signed(values[1], dw),
                        wrap_signed(values[2], dw)))
        ticks.append(tick)
    if len(outputs) != expected:  # run_clocked's check
        raise RuntimeError(
            f"clocked run produced {len(outputs)} outputs, "
            f"expected {expected}")
    if handle is not None:
        handle.extend(samples[:stop])
        coverage.end(handle)
    return outputs, ticks


def run_case_level(params: SrcParams, spec: LevelSpec, case: StimulusCase,
                   builds: LevelBuilds, coverage=None,
                   timing: Optional[CaseTiming] = None) -> LevelRun:
    """Execute one level over one case, recording per-output cycles.

    *timing* is the case's :func:`case_timing` in the level's domain,
    when the caller has it.
    """
    run = LevelRun(spec)
    level = spec.level
    try:
        if timing is None:
            timing = case_timing(params, case, spec.is_clocked)
        if spec.is_clocked:
            run.outputs, run.ticks = _replay_clocked(params, spec, builds,
                                                     timing, coverage)
        elif level is Level.ALGORITHMIC:
            src = AlgorithmicSrc(params, mode=case.mode)
            run.outputs = src.process_schedule(timing.schedule,
                                               case.inputs)
        else:
            run.outputs = run_tlm(params, timing.schedule, case.inputs,
                                  refined=(level is Level.TLM_REFINED))
    except Exception as exc:  # crash = caught divergence, never a pass
        run.error = f"{type(exc).__name__}: {exc}"
    return run


def golden_outputs(params: SrcParams, case: StimulusCase,
                   quantized: bool,
                   schedule: Optional[List[SampleEvent]] = None
                   ) -> List[Tuple[int, ...]]:
    """The golden algorithmic model over the case's schedule domain;
    *schedule* is the case's schedule there, when the caller has it."""
    if schedule is None:
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
    # per domain (clocked or not): the case's timing and golden outputs
    timings: Dict[bool, CaseTiming] = {}
    references: Dict[bool, List[Tuple[int, ...]]] = {}
    with span("verify.case", kind=case.kind, seed=case.seed,
              n_inputs=case.n_inputs):
        for spec in specs:
            if spec.level is Level.ALGORITHMIC and not spec.is_clocked:
                # the golden model itself: nothing to diff against
                continue
            clocked = spec.is_clocked
            if clocked not in timings:
                timing = timings[clocked] = case_timing(params, case,
                                                        clocked)
                references[clocked] = golden_outputs(
                    params, case, clocked, timing.schedule)
            ref_name = "golden(quantised)" if clocked else "golden(exact)"
            with span("verify.level", level=spec.key):
                run = run_case_level(params, spec, case, builds,
                                     coverage=coverage,
                                     timing=timings[clocked])
            report.diffs.append(
                diff_against_reference(references[clocked], ref_name,
                                       run))
    return report
