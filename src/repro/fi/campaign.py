"""Fault-injection campaign runner.

Ties the subsystem together: a seeded workload from the verification
harness's stimulus generator, a seeded faultload over the injectable
spaces, and lockstep execution of every fault against the
schedule-matched golden model -- the dependability-assessment
counterpart of the flow's bit-accuracy refinement checks.

Execution strategies -- which one runs is decided by the engine's
entry in :data:`repro.engines.ENGINES` (``Engine.batches(level)``):

* **batched** -- on an engine that holds several patterns at the
  campaign's level, ``batch_size`` faults are batched into one
  simulation: gate faults as pattern lanes of a saboteur overlay --
  on native one program that holds the whole faultload
  (:class:`SaboteurProgram`, built once per campaign and reset
  between batches), on compiled one overlay per batch -- behavioural
  faults as per-pattern bit flips.  Pattern 0 carries the fault-free
  run as an in-flight golden cross-check.
* **one fault per run** -- on an engine that holds a single pattern
  at the level (interpreted everywhere, every engine at RTL), each
  fault gets its own simulation.

The workload (:class:`Workload`) is built once per campaign from the
clock-quantised schedule through
:func:`~repro.src_design.schedule.clocked_stimulus`.  Every runner, at
every level, replays its per-cycle port waveform: the RTL and
behavioural DUTs take the same pins as the gates -- in one loop,
:func:`_replay`, which also reads the ports the workload names, so the
corpus (:mod:`repro.corpus.inject`) runs its recorded waveforms through
the gate driver, :func:`run_gate_batch`.  A batch and a one-fault run
differ only in their lanes: ``[None, *faults]`` (lane 0 fault-free)
against ``[fault]``.

Campaigns scale across a ``multiprocessing`` worker pool
(:func:`parallel_map`); classification is a pure function of
``(fault, workload)``, so any job count produces identical records.
Every pool task runs under :class:`~repro.obs.trace.TracedTask`, so a
worker's spans and its metrics delta -- compile-cache and native
disk-cache counts, batch fallbacks -- come back with its result and
the parent's counters cover the whole run under ``--jobs``.  A
campaign builds its engine's kernel before any pool worker forks, and
every worker finds it in its inherited compile cache: at RTL the
simulator every fault reuses, at the behavioural level one FSM batch,
and at gate level on native its one saboteur program -- a table on the
gate kernel, whose build the campaign starts first, so ``cc`` runs
beside the campaign's own work and the probe.

The probe re-runs faults spread evenly across the campaign's
faultload, the first and the last included (:func:`probe_indices`),
on the interpreted engine, the one reference independent of the
generated-code engines (compiled and native run one code-generation
walk per level, and the equivalence suites hold them equal), and every
probe record must equal the campaign's record of the same fault field
for field.  The spread reaches later batches on the reset simulator,
high lanes and the padded last batch, not only the first batch's low
lanes.
"""

from __future__ import annotations

import functools
import multiprocessing
import time
import warnings
from dataclasses import dataclass
from typing import (Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple)

from ..compile_cache import aggregate_stats
from ..datatypes.integers import wrap_signed
from ..engines import ENGINES, batch_engines, engine_class, resolve, restart
from ..flow.refinement import Level, build_module
from ..gatesim import GateSimulator
from ..native import Build, NativeToolchainError
from ..obs.metrics import REGISTRY
from ..obs.trace import (TracedTask, absorb_telemetry, current_context,
                         record_span, span)
from ..rtl import RtlSimulator
from ..src_design.behavioral import (BehavioralSimulation,
                                     build_behavioral_fsm)
from ..src_design.params import SrcParams
from ..synth import synthesize
from ..verify.runner import case_timing, golden_outputs
from ..verify.stimulus import StimulusCase, generate_cases
from .faultload import (generate_beh_faultload, generate_gate_faultload,
                        generate_rtl_faultload)
from .faults import FAULT_MODELS, Fault, build_overlay, control_name
from .report import (CampaignReport, FaultRecord, SelfCheckResult,
                     Throughput, tally)

#: campaign levels (the clocked implementation levels of the flow)
LEVELS = ("rtl", "beh", "gate")


class CampaignError(RuntimeError):
    """Raised for campaign-harness failures (never for fault effects)."""


#: workload sizes per budget name: input samples driven through the SRC
BUDGET_FRAMES = {"smoke": 8, "small": 12, "medium": 24, "large": 64}


@dataclass(frozen=True)
class CampaignConfig:
    """Everything a campaign needs; fully determines its outcome."""

    params: SrcParams
    level: str = "gate"              # 'gate' | 'rtl' | 'beh'
    n_faults: int = 100
    jobs: int = 1
    seed: int = 0
    budget: str = "small"            # workload size, see BUDGET_FRAMES
    models: Tuple[str, ...] = FAULT_MODELS
    exhaustive: bool = False
    #: classification engine, one of :func:`repro.engines.batch_engines`
    #: ('native' degrades to 'compiled' sans toolchain)
    backend: str = "compiled"
    #: faults per batch (plus pattern 0 = fault-free)
    batch_size: int = 31
    #: faults re-run on the interpreted engine, spread across the
    #: faultload, for the cross-engine probe and its throughput row
    probe_faults: int = 16

    def validated(self) -> "CampaignConfig":
        if self.level not in LEVELS:
            raise CampaignError(
                f"unknown level {self.level!r} (expected one of {LEVELS})")
        if self.backend not in batch_engines():
            raise CampaignError(
                f"unknown campaign backend {self.backend!r} "
                f"(expected one of {batch_engines()})")
        if self.budget not in BUDGET_FRAMES:
            raise CampaignError(
                f"unknown budget {self.budget!r} "
                f"(known: {', '.join(BUDGET_FRAMES)})")
        if self.n_faults < 1:
            raise CampaignError("n_faults must be >= 1")
        if self.batch_size < 1:
            raise CampaignError("batch_size must be >= 1")
        cap = ENGINES[self.backend].max_patterns[self.level]
        if cap is not None and cap > 1 and self.batch_size >= cap:
            raise CampaignError(
                f"batch_size {self.batch_size} plus the fault-free "
                f"pattern exceeds the {cap}-pattern {self.level} batch "
                f"of the {self.backend!r} engine")
        return self


@dataclass
class Workload:
    """What a campaign replays on every fault, and what it must produce.

    Every runner broadcasts ``waveform`` -- one dict of input-port
    writes per clock tick of the whole run.  The gate-level driver
    (:func:`run_gate_batch`) reads back ``valid_port``, ``frame_ports``
    and ``detect_ports``, so it serves any design: the SRC campaign
    below and the corpus's recorded waveforms alike.  SRC workloads
    also carry their stimulus case.
    """

    golden: List[Tuple[int, ...]]
    waveform: List[Dict[str, int]]
    valid_port: str = "out_valid"
    frame_ports: Tuple[str, ...] = ("out_l", "out_r")
    #: a lane with any bit of one of these ports asserted is detected
    detect_ports: Tuple[str, ...] = ()
    #: frames decode as two's complement (else unsigned)
    signed: bool = True
    case: Optional[StimulusCase] = None

    @property
    def expected(self) -> int:
        return len(self.golden)

    @property
    def cycle_budget(self) -> int:
        """The last clock tick of the run."""
        return len(self.waveform) - 1


def make_workload(params: SrcParams, seed: int, budget: str) -> Workload:
    """Build the campaign workload: stimulus, schedule, golden outputs.

    The workload is the first case the verification harness would fuzz
    with the same seed (kind ``random``), run over the clock-quantised
    schedule -- so fault outcomes are judged against exactly the golden
    stream the differential harness uses.
    """
    n_inputs = BUDGET_FRAMES[budget]
    case = generate_cases(params, seed, 1, n_inputs)[0]
    timing = case_timing(params, case, quantized=True)
    golden = [tuple(f) for f in golden_outputs(params, case, True,
                                               timing.schedule)]
    return Workload(golden, timing.waveform, case=case)


def build_campaign_netlist(params: SrcParams) -> "object":
    """The gate-level DUT of the campaign: the synthesised RTL netlist.

    Synthesis inserts the scan chain (the paper's area numbers include
    one in every design), which guarantees
    :func:`repro.fi.targets.flop_targets` enumerates the complete state
    space.  ``scan_en`` stays 0 throughout the workload, so the scan
    netlist is workload-equivalent to the plain one.
    """
    return synthesize(build_module(params, Level.GATE_RTL))


def _classify(fault: Fault, outputs, detected, golden) -> FaultRecord:
    """Map one fault's observed behaviour onto the outcome taxonomy."""
    if detected is not None:
        cycle, detail = detected
        return FaultRecord(fault, "detected", detected_cycle=cycle,
                           detail=detail, n_outputs=len(outputs))
    if len(outputs) < len(golden):
        return FaultRecord(fault, "hang", n_outputs=len(outputs))
    for i, (got, want) in enumerate(zip(outputs, golden)):
        if got != want:
            return FaultRecord(fault, "sdc", first_frame=i,
                               n_outputs=len(outputs))
    return FaultRecord(fault, "masked", n_outputs=len(outputs))


# ----------------------------------------------------------------------
# one replay loop: every level, every engine
# ----------------------------------------------------------------------

class _Reader(NamedTuple):
    """How :func:`_replay` reads a simulator's ports after a tick.

    ``read(port)`` is the port's value in every lane, None in a lane
    where any bit of it is X; ``width(port)`` is its width in bits.
    """

    read: Callable[[str], List[Optional[int]]]
    width: Callable[[str], int]


def _plane_reader(sim, netlist, n: int) -> _Reader:
    """The *n* lanes of a gate engine, from its bit planes (bit *p* of
    a plane is lane *p*)."""
    def read(port: str) -> List[Optional[int]]:
        ones, unks = sim.get_port_planes(port)
        values: List[Optional[int]] = [0] * n
        for i, plane in enumerate(ones):
            while plane:
                low = plane & -plane
                values[low.bit_length() - 1] |= 1 << i
                plane ^= low
        unknown = 0
        for plane in unks:
            unknown |= plane
        while unknown:
            low = unknown & -unknown
            values[low.bit_length() - 1] = None
            unknown ^= low
        return values

    return _Reader(read, lambda port: len(netlist.outputs[port]))


def _replay(sim, reader: _Reader, workload: Workload,
            lanes: Sequence[Optional[Fault]],
            pokes: Dict[int, List[Callable[[], None]]]
            ) -> List[FaultRecord]:
    """Replay the workload once on *sim*; classify every fault lane.

    Lane *p* is the simulator's pattern *p*.  A None lane runs
    fault-free and must reproduce the golden stream, else the harness
    is broken (:class:`CampaignError`).  Every tick applies its
    *pokes* (at the start of the cycle, before its evaluation), drives
    the waveform's writes and clocks once; then each live lane is
    observed: a detect port with any bit set or X, an X on the valid
    port or X frame data detect it, and a valid frame decodes
    (two's complement when ``workload.signed``) into its stream, which
    ends the lane once it holds the expected frames.

    An exception in a one-fault run detects that fault: a simulator or
    model check fired.  In a batch it propagates, so :func:`_fi_task`
    can isolate the fault behind it.
    """
    read, width = reader
    golden = workload.golden
    valid_port, signed = workload.valid_port, workload.signed
    widths = [width(port) for port in workload.frame_ports]
    outputs: List[List[Tuple[int, ...]]] = [[] for _ in lanes]
    detected: List[Optional[Tuple[int, str]]] = [None] * len(lanes)
    live = list(range(len(lanes)))
    tick = 0
    try:
        for tick, drive in enumerate(workload.waveform):
            if not live:
                break
            for poke in pokes.get(tick, ()):
                poke()
            for name, value in drive.items():
                sim.set_input(name, value)
            sim.step()

            alarm: Dict[int, str] = {}  # lane -> first detect port set
            for port in workload.detect_ports:
                for p, value in enumerate(read(port)):
                    if value != 0:
                        alarm.setdefault(p, port)
            valid = read(valid_port)
            if not alarm and valid.count(0) == len(valid):
                continue  # no lane delivered or raised anything
            frames = None
            still_live = []
            for p in live:
                if p in alarm:
                    detected[p] = (tick, f"{alarm[p]} asserted")
                elif valid[p] is None:
                    detected[p] = (tick, f"{valid_port} is X")
                elif not valid[p]:
                    still_live.append(p)
                else:
                    if frames is None:
                        frames = [read(port)
                                  for port in workload.frame_ports]
                    frame = [values[p] for values in frames]
                    if None in frame:
                        detected[p] = (tick, "output data is X")
                        continue
                    outputs[p].append(tuple(
                        wrap_signed(value, w) if signed else value
                        for value, w in zip(frame, widths)))
                    if len(outputs[p]) < workload.expected:
                        still_live.append(p)
            live = still_live
    except Exception as exc:
        if lanes[0] is None:
            raise
        detected[0] = (tick, f"{type(exc).__name__}: {exc}")
    if lanes[0] is None and (detected[0] is not None
                             or outputs[0] != golden):
        raise CampaignError(
            "fault-free lane diverged from the golden model -- "
            "campaign harness bug")
    return [_classify(fault, outputs[p], detected[p], golden)
            for p, fault in enumerate(lanes) if fault is not None]


# ----------------------------------------------------------------------
# gate level: saboteur overlays, one lane per pattern
# ----------------------------------------------------------------------

class SaboteurProgram:
    """One saboteur overlay for a whole faultload, and its simulator.

    The overlay carries a saboteur for every structural fault of
    *faults*.  A saboteur whose control is 0 is transparent and a lane
    asserts only its own fault's control, so every batch drawn from
    *faults* runs on this one program: one walk, not one per batch
    (see :func:`shared_program` for the engines where that pays).

    The simulator holds *lanes* patterns and is built on first use;
    before every later batch it is restarted to the state a new one
    starts in (:func:`repro.engines.restart`: every input, the controls
    included, back to 0, then flops and memories).  A forked pool worker inherits its parent's program and
    simulator.
    """

    def __init__(self, netlist, faults: Sequence[Fault], backend: str,
                 lanes: int):
        self.overlay = build_overlay(netlist, faults)
        self.backend = backend
        self.lanes = lanes
        self._sim = None

    def simulator(self):
        """The process's simulator of the program, as a new one starts."""
        sim = self._sim
        if sim is None:
            sim = self._sim = GateSimulator(
                self.overlay.netlist, backend=self.backend,
                n_patterns=self.lanes)
            return sim
        restart(sim, self.overlay.netlist.inputs)
        return sim

    def load(self) -> None:
        """Build the process's simulator now, so the program is in the
        compile cache before any pool worker forks (a campaign reaps its
        kernel's build just before).  A failed kernel build is left to
        the batches: each raises it again and falls back as a batch that
        failed on its own build does (:func:`_fi_task`)."""
        try:
            self.simulator()
        except NativeToolchainError:
            pass


def shared_program(netlist, faults: Sequence[Fault], backend: str,
                   lanes: int) -> Optional[SaboteurProgram]:
    """The :class:`SaboteurProgram` every batch of *faults* shares, on
    an engine whose gate host says so (``union_program``: native, where
    a program is a table walk); None on compiled, where a batch's own
    overlay costs less to print and ``compile()`` than the union's
    bigger kernel adds to every step of every batch (EXPERIMENTS
    PERF10)."""
    if not engine_class(backend, "gate").union_program:
        return None
    return SaboteurProgram(netlist, faults, backend, lanes)


def _run_gate(netlist, workload: Workload,
              lanes: Sequence[Optional[Fault]], backend: str,
              program: Optional[SaboteurProgram] = None
              ) -> List[FaultRecord]:
    """Classify gate-level fault lanes on one saboteur program.

    Without *program*, one is built for these lanes alone.  Lane *p*
    asserts its fault's control per the fault's schedule (permanent
    ones from the first tick), and a memory SEU flips a bit of lane
    *p*'s private memory at its cycle; lanes past *lanes* up to the
    program's width run fault-free.
    """
    if program is None:
        program = SaboteurProgram(
            netlist, [f for f in lanes if f is not None], backend,
            len(lanes))
    n = program.lanes
    if len(lanes) > n:
        raise CampaignError(f"{len(lanes)} lanes on a {n}-lane program")
    for fault in lanes:
        if fault is not None and fault.structural and \
                fault.index not in program.overlay.controls:
            raise CampaignError(f"no saboteur for {fault.format()}")
    lanes = [*lanes, *[None] * (n - len(lanes))]
    sim = program.simulator()
    pokes: Dict[int, List[Callable[[], None]]] = {}
    for p, fault in enumerate(lanes):
        if fault is None:
            continue
        if fault.target_kind == "mem":
            pokes.setdefault(fault.cycle, []).append(
                lambda f=fault, p=p: sim.privatize_memory(
                    f.target, p).flip_bit(f.address, f.bit))
            continue
        ctrl = control_name(fault)
        on = [0] * n
        on[p] = 1
        pokes.setdefault(max(fault.cycle, 0), []).append(
            functools.partial(sim.set_input_patterns, ctrl, on))
        if not fault.permanent:
            pokes.setdefault(fault.cycle + fault.duration, []).append(
                functools.partial(sim.set_input_patterns, ctrl, [0] * n))
    return _replay(sim, _plane_reader(sim, program.overlay.netlist, n),
                   workload, lanes, pokes)


def run_gate_batch(netlist, workload: Workload, faults: Sequence[Fault],
                   params: Optional[SrcParams],
                   backend: str = "compiled",
                   program: Optional[SaboteurProgram] = None
                   ) -> List[FaultRecord]:
    """Classify a batch of gate-level faults in one batched sweep.

    Simulates ``len(faults) + 1`` patterns at once on a saboteur
    program -- pattern 0 fault-free, pattern ``b + 1`` with fault
    ``b``'s control asserted per its schedule -- and diffs each
    pattern's output stream against the golden model.  The fault-free
    pattern doubles as an in-run sanity check: if it diverges from the
    golden model the harness itself is broken.  *program*, built on
    *backend* for a faultload that holds *faults*, serves every batch of
    a campaign (:class:`SaboteurProgram`); without it the batch builds
    an overlay of its own faults.

    Every pattern is driven with the workload's port waveform; the
    workload names the ports observed and how frames decode (see
    :class:`Workload`), so the SRC campaign and the corpus share this
    driver and *params* goes unread.  *backend* selects the pattern
    engine; its pattern cap is in :data:`repro.engines.ENGINES`
    (native: one 64-pattern word).
    """
    return _run_gate(netlist, workload, [None, *faults], backend, program)


def run_gate_fault_scalar(netlist, workload: Workload, fault: Fault,
                          params: Optional[SrcParams],
                          backend: str = "interpreted") -> FaultRecord:
    """Classify one gate-level fault with a single-pattern simulation:
    :func:`run_gate_batch`'s sweep with the fault's lane alone."""
    return _run_gate(netlist, workload, [fault], backend)[0]


# ----------------------------------------------------------------------
# rtl and behavioural levels: bit flips poked into the environment
# ----------------------------------------------------------------------

def _rtl_simulator(module, backend: str):
    """The process's simulator of *module* on *backend*, in the state a
    new one starts in: built on first use, later restarted
    (:func:`repro.engines.restart`).  One per engine, for the module
    last asked for."""
    sims = _WORKER.setdefault("rtl_sims", {})
    held = sims.get(backend)
    if held is None or held[0] is not module:
        sim = RtlSimulator(module, backend=backend)
        sims[backend] = (module, sim)
        return sim
    restart(held[1], module.input_names())
    return held[1]


def run_rtl_fault(module, workload: Workload, fault: Fault,
                  params: SrcParams,
                  backend: str = "interpreted") -> FaultRecord:
    """Classify one RTL register SEU on any RTL engine, on the process's
    one simulator of *module* for *backend* (:func:`_rtl_simulator`).

    All logic evaluated on the injection cycle -- and the next-state
    functions -- see the upset value.
    """
    sim = _rtl_simulator(module, backend)

    def poke() -> None:
        sim.env[fault.target] = sim.env[fault.target] ^ (1 << fault.bit)
        sim.settle()

    reader = _Reader(lambda port: [sim.get(port)], module.net_width)
    return _replay(sim, reader, workload, [fault], {fault.cycle: [poke]})[0]


def run_beh_batch(fsm, workload: Workload, faults: Sequence[Fault],
                  params: SrcParams,
                  backend: str = "compiled") -> List[FaultRecord]:
    """Classify a batch of behavioural faults in one batched sweep.

    One FSM batch of *backend* (pattern-major lists on
    ``"compiled"``, C buffers on ``"native"``) carries
    ``len(faults) + 1`` private copies of *fsm* and its front end
    under the common workload: pattern 0 runs fault-free as the
    in-flight golden cross-check, pattern ``b + 1`` takes fault
    ``b``'s variable-bit flip at its injection cycle -- the
    behavioural mirror of the gate level's parallel-fault batches.
    """
    sim = engine_class(backend, "fsm_batch")(fsm, len(faults) + 1)
    pokes: Dict[int, List[Callable[[], None]]] = {}
    for p, fault in enumerate(faults, 1):
        pokes.setdefault(fault.cycle, []).append(functools.partial(
            sim.flip_bit, p, fault.target, fault.bit))
    reader = _Reader(sim.get_output_patterns,
                     lambda port: fsm.program.ports[port].width)
    return _replay(sim, reader, workload, [None, *faults], pokes)


def run_beh_fault_scalar(fsm, workload: Workload, fault: Fault,
                         params: SrcParams,
                         backend: str = "interpreted") -> FaultRecord:
    """Classify one behavioural fault on any FSM engine, with the same
    observation window as :func:`run_rtl_fault`."""
    sim = BehavioralSimulation(params, fsm=fsm, backend=backend)

    def poke() -> None:
        env = sim.interp.env
        env[fault.target] = env[fault.target] ^ (1 << fault.bit)

    reader = _Reader(lambda port: [sim.get(port)],
                     lambda port: fsm.program.ports[port].width)
    return _replay(sim, reader, workload, [fault], {fault.cycle: [poke]})[0]


# ----------------------------------------------------------------------
# worker pool
# ----------------------------------------------------------------------

#: per-process campaign state, (re)built by :func:`_init_worker`
_WORKER: Dict[str, object] = {}


def _init_worker(params: SrcParams, level: str, seed: int,
                 budget: str, backend: str = "compiled") -> None:
    """(Re)build per-process campaign state.

    Pure function of its arguments, so forked workers (which inherit
    the parent's state -- detected via the key check) skip the rebuild,
    while spawned workers reconstruct identical state from scratch.
    """
    key = (params, level, seed, budget, backend)
    if _WORKER.get("key") == key:
        return
    _WORKER.clear()
    _WORKER["key"] = key
    _WORKER["params"] = params
    _WORKER["level"] = level
    _WORKER["backend"] = backend
    with span("fi.workload", seed=seed, budget=budget):
        _WORKER["workload"] = make_workload(params, seed, budget)
    with span("fi.build_dut", level=level):
        if level == "gate":
            _WORKER["dut"] = build_campaign_netlist(params)
        elif level == "beh":
            _WORKER["dut"] = build_behavioral_fsm(params, True)
        else:
            _WORKER["dut"] = build_module(params, Level.RTL_OPT)


def _runners(level: str):
    """The (batch, one-fault) classifiers of a campaign level; no
    engine holds several RTL patterns, so RTL has no batch runner."""
    # built per call, so wrappers patched onto this module's functions
    # (the benchmark's traced run) see every call
    return {"gate": (run_gate_batch, run_gate_fault_scalar),
            "rtl": (None, run_rtl_fault),
            "beh": (run_beh_batch, run_beh_fault_scalar)}[level]


def _fi_task(faults: Sequence[Fault]) -> List[FaultRecord]:
    """Pool task: classify a slice of the faultload on the campaign's
    engine; returns its records."""
    level, backend = _WORKER["level"], _WORKER["backend"]
    dut, workload = _WORKER["dut"], _WORKER["workload"]
    params = _WORKER["params"]
    batch, single = _runners(level)
    if not ENGINES[backend].batches(level):
        records = []
        for fault in faults:
            with span("fi.fault", level=level, target=fault.target):
                records.append(single(dut, workload, fault, params,
                                      backend=backend))
    else:
        # a campaign's saboteur program, when it made one
        program = _WORKER.get("program")
        extra = {} if program is None else {"program": program}
        with span("fi.batch", level=level,
                  n_faults=len(faults)) as batch_span:
            try:
                records = batch(dut, workload, faults, params,
                                backend=backend, **extra)
            except CampaignError:
                raise
            except Exception as exc:
                # a whole-batch failure cannot be attributed to one
                # fault: isolate by re-running each fault in its own
                # single-pattern run, and say so
                batch_span.note(fallback=type(exc).__name__)
                REGISTRY.counter(
                    "repro_fi_batch_fallbacks_total",
                    help="FI batches re-run one fault per simulation on "
                         "compiled after the batch raised",
                    level=level, backend=backend).inc()
                reason = f"{type(exc).__name__}: {exc}".splitlines()[0]
                warnings.warn(
                    f"a {level} batch of {len(faults)} faults failed on "
                    f"{backend} ({reason}); re-running each fault alone "
                    f"on compiled", RuntimeWarning)
                records = [single(dut, workload, fault, params,
                                  backend="compiled")
                           for fault in faults]
    return records


class PoolInterrupted(KeyboardInterrupt):
    """A cancelled parallel run, carrying the results finished so far.

    Raised by :func:`parallel_map` when the run is interrupted
    (Ctrl-C, cancellation): the pool has already been torn down --
    terminated *and* joined, no orphaned workers -- and ``partial``
    holds the completed leading results in task order, so callers can
    surface a partial report instead of losing the whole run.
    """

    def __init__(self, partial: Sequence) -> None:
        super().__init__()
        self.partial = list(partial)


def parallel_map(fn, tasks: Sequence, jobs: int,
                 initializer=None, initargs=()) -> List:
    """``map(fn, tasks)`` over a worker pool, order-preserving.

    With ``jobs <= 1`` (or a single task) everything runs in-process.
    Fork is preferred -- workers inherit built state for free -- with
    spawn as the fallback; *initializer* must rebuild any needed state
    deterministically, which keeps both start methods equivalent.

    Teardown is explicit on every exit path: a task failure or an
    interrupt terminates the pool and *joins* it before re-raising, so
    no worker process outlives the call; an interrupt re-raises as
    :class:`PoolInterrupted` with the results completed so far.

    In a pool every task runs under :class:`TracedTask`: a worker
    adopts the parent's trace context, when it has one, and ships its
    spans and metrics delta back with each result; the parent absorbs
    them as results stream in, so partial (interrupted) runs keep their
    telemetry too.
    """
    if jobs <= 1 or len(tasks) <= 1:
        if initializer is not None:
            initializer(*initargs)
        results = []
        try:
            for task in tasks:
                results.append(fn(task))
        except KeyboardInterrupt:
            raise PoolInterrupted(results) from None
        return results
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")
    pool = ctx.Pool(min(jobs, len(tasks)), initializer, initargs)
    results = []
    try:
        for result, telemetry in pool.imap(
                TracedTask(fn, current_context()), tasks):
            absorb_telemetry(telemetry)
            results.append(result)
        pool.close()
        pool.join()
        return results
    except KeyboardInterrupt:
        pool.terminate()
        pool.join()
        raise PoolInterrupted(results) from None
    except BaseException:
        pool.terminate()
        pool.join()
        raise


# ----------------------------------------------------------------------
# campaign entry points
# ----------------------------------------------------------------------

def campaign_faultload(config: CampaignConfig) -> Tuple[List[Fault], str]:
    """The campaign's deterministic faultload and its DUT name.

    Requires the per-process campaign state (:func:`_init_worker` with
    the config's parameters), so the DUT is already built.  The result
    is a pure function of the config -- the property that lets the
    campaign service content-address classification results by
    faultload digest and serve identical requests from its cache.
    """
    workload: Workload = _WORKER["workload"]  # type: ignore[assignment]
    dut = _WORKER["dut"]
    if config.level == "gate":
        faults = generate_gate_faultload(
            dut, config.n_faults, config.seed, workload.cycle_budget,
            models=config.models, exhaustive=config.exhaustive)
    elif config.level == "beh":
        faults = generate_beh_faultload(
            dut, config.n_faults, config.seed, workload.cycle_budget,
            exhaustive=config.exhaustive)
    else:
        faults = generate_rtl_faultload(
            dut, config.n_faults, config.seed, workload.cycle_budget,
            exhaustive=config.exhaustive)
    return faults, dut.name


def run_campaign(config: CampaignConfig) -> CampaignReport:
    """Run a full fault-injection campaign per *config*.

    Classifies every fault on the engine the configured one resolves
    to on this host (``batch_size`` faults per batch where it holds
    several patterns at the level, else one fault per run), and re-runs
    a probe spread across the faultload (:func:`probe_indices`) on the
    interpreted engine -- cross-checking that the probe's records agree
    with the campaign's field for field, and measuring both engines'
    injection throughput.

    At gate level on native every batch runs on one
    :class:`SaboteurProgram`.  Its kernel is the same for every
    netlist, so the campaign starts the kernel's build first and its
    ``cc`` runs beside the campaign's own work, the probe included; the
    build is reaped just before the program loads, and so before any
    pool worker forks.  An exception or interrupt before the load
    cancels the build.  At RTL and the behavioural level the campaign
    builds its kernel -- the simulator every fault reuses, one FSM
    batch -- before its probe, so before any pool worker forks too.

    An interrupt (Ctrl-C) does not lose the run: the pool is torn down
    cleanly and the report carries every fault classified so far,
    flagged ``interrupted`` (without the probe comparison and row).
    """
    config = config.validated()
    with span("fi.campaign", level=config.level, backend=config.backend,
              n_faults=config.n_faults, jobs=config.jobs):
        # without a C toolchain native runs on its fallback: the rows
        # and the probe comparison name the engine that ran
        backend = resolve(config.backend, CampaignError)
        host = engine_class(backend, "gate")
        build = None
        if config.level == "gate" and ENGINES[backend].batches("gate") \
                and host.union_program:
            build = host.start_kernel_build()
        try:
            return _run_campaign(config, backend, build)
        finally:
            if build is not None:
                build.cancel()  # a no-op once the load reaped it


def _run_campaign(config: CampaignConfig, backend: str,
                  build: Optional[Build]) -> CampaignReport:
    _init_worker(config.params, config.level, config.seed, config.budget,
                 backend)
    workload: Workload = _WORKER["workload"]  # type: ignore[assignment]
    dut = _WORKER["dut"]
    with span("fi.faultload", level=config.level) as faultload_span:
        faults, design = campaign_faultload(config)
        faultload_span.note(n_faults=len(faults))

    batches = ENGINES[backend].batches(config.level)
    width = config.batch_size if batches else 1
    tasks = [faults[i:i + width] for i in range(0, len(faults), width)]

    t0 = time.perf_counter()
    program = None
    # the kernel is built here, before any pool worker forks, so every
    # worker finds it in its compile cache; a failed build is left to
    # the tasks, which raise it again
    if config.level == "gate":
        if batches:
            program = shared_program(dut, faults, backend,
                                     min(width, len(faults)) + 1)
    else:
        try:
            if config.level == "rtl":
                _rtl_simulator(dut, backend)  # the one every fault reuses
            else:
                engine_class(backend, "fsm_batch")(dut, 1)
        except NativeToolchainError:
            pass
    # the batches' own cost: the program's set-up and load, its kernel's
    # build by the cc child's CPU seconds (the build's wall, from start
    # to reap, also covers the campaign's own work and the probe), and
    # the batch run
    main_wall = time.perf_counter() - t0
    probe_at = probe_indices(len(faults), config.probe_faults)
    probe_records, probe_wall = _run_probe(
        config, [faults[i] for i in probe_at], workload)
    if program is not None:
        # the host that shares a program started its kernel's build
        try:
            build.wait()
        except NativeToolchainError:
            pass  # the load's own failure: left to the batches
        else:
            t0 = time.perf_counter()
            program.load()
            main_wall += time.perf_counter() - t0
        main_wall += build.cpu_s
    _WORKER["program"] = program
    interrupted = False
    try:
        t0 = time.perf_counter()
        try:
            results = parallel_map(
                _fi_task, tasks, config.jobs, initializer=_init_worker,
                initargs=(config.params, config.level, config.seed,
                          config.budget, backend))
        except PoolInterrupted as stop:
            results = stop.partial
            interrupted = True
        main_wall += time.perf_counter() - t0
    finally:
        _WORKER.pop("program", None)
    records = [rec for r in results for rec in r]
    for outcome, count in tally(records).items():
        if count:
            REGISTRY.counter(
                "repro_fi_outcomes_total",
                help="Fault classifications by outcome",
                level=config.level, outcome=outcome).inc(count)

    throughput = [Throughput(backend, len(records) if interrupted
                             else len(faults), main_wall)]
    if not interrupted:
        for i, other in zip(probe_at, probe_records):
            mine, theirs = records[i].as_dict(), other.as_dict()
            field = next((k for k in mine if mine[k] != theirs[k]), None)
            if field is not None:
                raise CampaignError(
                    f"engines disagree on {other.fault.format()}: "
                    f"interpreted says {field}={theirs[field]!r}, "
                    f"{backend} says {field}={mine[field]!r}")
        throughput.append(Throughput("interpreted", len(probe_records),
                                     probe_wall))
    return CampaignReport(
        level=config.level, design=design, seed=config.seed,
        budget=config.budget, jobs=config.jobs,
        backend=config.backend,
        n_workload_frames=workload.case.n_inputs,
        cycle_budget=workload.cycle_budget, records=records,
        throughput=throughput, cache_stats=aggregate_stats(),
        interrupted=interrupted)


def probe_indices(n: int, k: int) -> List[int]:
    """The positions of a *k*-fault probe in an *n*-fault faultload:
    evenly spread, the first and the last included (fault 0 alone when
    *k* is 1, every fault when *k* >= *n*)."""
    k = min(k, n)
    if k <= 1:
        return list(range(k))
    return [i * (n - 1) // (k - 1) for i in range(k)]


def _run_probe(config: CampaignConfig, probe: Sequence[Fault],
               workload: Workload) -> Tuple[List[FaultRecord], float]:
    """The cross-engine probe: the faults *probe*, one simulation
    each, on the interpreted engine -- the one reference independent
    of the generated-code engines, which run one code-generation walk
    that the equivalence suites hold equal.  Returns the records and
    their wall seconds, for the campaign to compare with its own
    records."""
    single = _runners(config.level)[1]
    dut = _WORKER["dut"]
    probe_wall0 = time.time()
    t0 = time.perf_counter()
    records = [single(dut, workload, fault, config.params,
                      backend="interpreted") for fault in probe]
    seconds = time.perf_counter() - t0
    record_span("fi.probe", probe_wall0, time.time(),
                engine="interpreted", n_faults=len(probe))
    return records, seconds


def run_fi_self_check(config: CampaignConfig) -> SelfCheckResult:
    """Classify one known-SDC and one known-masked fault.

    The known-SDC fault sticks the ``out_l`` LSB at the polarity that
    contradicts at least one golden frame, so the stream must corrupt
    silently.  The known-masked fault sticks ``scan_en`` at 0 -- the
    workload never asserts scan mode, so forcing its idle value cannot
    change anything.  Both run through the regular batch classifier on
    the engine the campaign ran on, over its state; misclassification
    of either means the campaign machinery is broken.  Both faults are
    gate-level nets, so a campaign at another level has no self-check:
    it raises :class:`CampaignError`.
    """
    config = config.validated()
    if config.level != "gate":
        raise CampaignError(
            f"the FI self-check classifies gate-level faults; a "
            f"{config.level!r} campaign has none")
    backend = resolve(config.backend, CampaignError)
    _init_worker(config.params, config.level, config.seed, config.budget,
                 backend)
    netlist = _WORKER["dut"]
    workload: Workload = _WORKER["workload"]  # type: ignore[assignment]
    if not workload.golden:
        raise CampaignError("self-check needs a non-empty golden stream")

    out_net = netlist.outputs["out_l"][0]
    # pick the stuck polarity that some golden frame contradicts
    if any(frame[0] & 1 for frame in workload.golden):
        sdc_model, sdc_value = "stuck0", 0
    else:
        sdc_model, sdc_value = "stuck1", 1
    sdc_fault = Fault(0, sdc_model, "gate", "net", out_net.name,
                      uid=out_net.uid, value=sdc_value)

    scan_en = netlist.inputs["scan_en"][0]
    masked_fault = Fault(1, "stuck0", "gate", "net", scan_en.name,
                         uid=scan_en.uid, value=0)

    records = run_gate_batch(netlist, workload,
                             [sdc_fault, masked_fault], config.params,
                             backend=backend)
    return SelfCheckResult(sdc_record=records[0],
                           masked_record=records[1])
