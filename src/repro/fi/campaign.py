"""Fault-injection campaign runner.

Ties the subsystem together: a seeded workload from the verification
harness's stimulus generator, a seeded faultload over the injectable
spaces, and lockstep execution of every fault against the
schedule-matched golden model -- the dependability-assessment
counterpart of the flow's bit-accuracy refinement checks.

Execution strategies -- which one runs is decided by the engine's
entry in :data:`repro.engines.ENGINES` (see :func:`fi_batch_width`):

* **batched** -- on an engine that holds several patterns at the
  campaign's level, ``batch_size`` faults are batched into one
  simulation: gate faults into one saboteur overlay over the pattern
  planes, behavioural faults as per-pattern bit flips.  Pattern 0
  carries the fault-free run as an in-flight golden cross-check.
* **one fault per run** -- on an engine that holds a single pattern
  at the level (interpreted everywhere, every engine at RTL), each
  fault gets its own simulation.

The workload (:class:`Workload`) is built once per campaign from the
clock-quantised schedule through
:func:`~repro.src_design.schedule.clocked_stimulus`.  Every runner, at
every level, replays its per-cycle port waveform: the RTL and
behavioural DUTs take the same pins as the gates.  The gate driver,
:func:`run_gate_batch`, also reads the ports the workload names, so the
corpus (:mod:`repro.corpus.inject`) runs its recorded waveforms through
the same driver.

Campaigns scale across a ``multiprocessing`` worker pool
(:func:`parallel_map`); classification is a pure function of
``(fault, workload)``, so any job count produces identical records,
and per-task compile-cache deltas are shipped back to the parent so
cache statistics stay correct under ``--jobs``.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..compile_cache import (absorb_deltas, aggregate_stats,
                             counters_delta, counters_snapshot)
from ..datatypes import logic as L
from ..datatypes.integers import wrap_signed
from ..engines import ENGINES, batch_engines, engine_class
from ..flow.refinement import Level, build_module
from ..gatesim import GateSimulator
from ..obs.metrics import REGISTRY
from ..obs.trace import (TracedTask, absorb_events, current_context,
                         record_span, span)
from ..rtl import RtlSimulator
from ..src_design.behavioral import (BehavioralSimulation,
                                     build_behavioral_fsm)
from ..src_design.params import SrcParams
from ..src_design.schedule import clocked_stimulus, make_schedule
from ..src_design.testbench import src_port_waveform
from ..synth import synthesize
from ..verify.runner import golden_outputs
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
    #: faults re-run on the interpreted engine for the throughput probe
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
    golden = [tuple(f) for f in golden_outputs(params, case,
                                               quantized=True)]
    schedule = make_schedule(params, case.mode, case.n_inputs,
                             quantized=True,
                             mode_changes=case.mode_changes)
    stimulus = clocked_stimulus(params, schedule, case.inputs)
    return Workload(golden, src_port_waveform(stimulus), case=case)


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
# gate level: parallel-fault batches over the workload's port waveform
# ----------------------------------------------------------------------

def run_gate_batch(netlist, workload: Workload, faults: Sequence[Fault],
                   params: SrcParams,
                   backend: str = "compiled") -> List[FaultRecord]:
    """Classify a batch of gate-level faults in one batched sweep.

    Builds a single overlay carrying every structural fault, simulates
    ``len(faults) + 1`` patterns at once -- pattern 0 fault-free, pattern
    ``b + 1`` with fault ``b``'s control asserted per its schedule --
    and diffs each pattern's output stream against the golden model.
    The fault-free pattern doubles as an in-run sanity check: if it
    diverges from the golden model the harness itself is broken.

    Every pattern is driven with the workload's port waveform; the
    workload names the ports observed and how frames decode (see
    :class:`Workload`), so the SRC campaign and the corpus share this
    driver and *params* goes unread.  *backend* selects the pattern
    engine; its pattern cap is in :data:`repro.engines.ENGINES`
    (native: one 64-pattern word).
    """
    overlay = build_overlay(netlist, faults)
    n = len(faults)
    # the overlay runs this one workload: its length picks the build
    sim = GateSimulator(overlay.netlist, backend=backend,
                        n_patterns=n + 1,
                        run_cycles=len(workload.waveform))
    pattern_of = {f.index: b + 1 for b, f in enumerate(faults)}

    toggles: Dict[int, List[Tuple[Fault, int]]] = {}
    mem_pokes: Dict[int, List[Fault]] = {}
    for fault in faults:
        if fault.target_kind == "mem":
            mem_pokes.setdefault(fault.cycle, []).append(fault)
        elif fault.permanent:
            values = [0] * (n + 1)
            values[pattern_of[fault.index]] = 1
            sim.set_input_patterns(control_name(fault), values)
        else:
            toggles.setdefault(fault.cycle, []).append((fault, 1))
            toggles.setdefault(fault.cycle + fault.duration,
                               []).append((fault, 0))

    golden = workload.golden
    expected = workload.expected
    valid_port = workload.valid_port
    outputs: List[List[Tuple[int, ...]]] = [[] for _ in range(n + 1)]
    detected: List[Optional[Tuple[int, str]]] = [None] * (n + 1)
    live = list(range(n + 1))

    for tick, drive in enumerate(workload.waveform):
        if not live:
            break
        for name, value in drive.items():
            sim.set_input(name, value)
        for fault, value in toggles.get(tick, ()):
            values = [0] * (n + 1)
            values[pattern_of[fault.index]] = value
            sim.set_input_patterns(control_name(fault), values)
        for fault in mem_pokes.get(tick, ()):
            model = sim.privatize_memory(fault.target,
                                         pattern_of[fault.index])
            model.flip_bit(fault.address, fault.bit)
        sim.step()

        # per detect port, the lanes with any bit asserted (or X)
        alarms, alarmed = [], 0
        for port in workload.detect_ports:
            lanes = 0
            for ones, unks in zip(*sim.get_port_planes(port)):
                lanes |= ones | unks
            alarms.append((port, lanes))
            alarmed |= lanes
        v_ones, v_unks = sim.get_port_planes(valid_port)
        valid_ones, valid_unk = v_ones[0], v_unks[0]
        planes = None
        if valid_ones or valid_unk:
            planes = [sim.get_port_planes(p) for p in workload.frame_ports]
        still_live = []
        for p in live:
            bit = 1 << p
            if alarmed & bit:
                port = next(port for port, lanes in alarms if lanes & bit)
                detected[p] = (tick, f"{port} asserted")
                continue
            if valid_unk & bit:
                detected[p] = (tick, f"{valid_port} is X")
                continue
            if valid_ones & bit:
                frame = _decode_frame(planes, p, workload.signed)
                if frame is None:
                    detected[p] = (tick, "output data is X")
                    continue
                outputs[p].append(frame)
                if len(outputs[p]) >= expected:
                    continue  # pattern finished its stream
            still_live.append(p)
        live = still_live

    if detected[0] is not None or outputs[0] != golden:
        raise CampaignError(
            f"fault-free pattern diverged from the golden model on "
            f"overlay {overlay.netlist.name!r} -- campaign harness bug")
    return [_classify(fault, outputs[b + 1], detected[b + 1], golden)
            for b, fault in enumerate(faults)]


def _decode_frame(planes, p: int,
                  signed: bool) -> Optional[Tuple[int, ...]]:
    """Pattern *p*'s frame from per-port bit planes; None when any bit
    is X."""
    bit = 1 << p
    frame = []
    for ones, unks in planes:
        value = 0
        for i in range(len(ones)):
            if unks[i] & bit:
                return None
            if ones[i] & bit:
                value |= 1 << i
        frame.append(wrap_signed(value, len(ones)) if signed else value)
    return tuple(frame)


# ----------------------------------------------------------------------
# gate level: one fault per run (interpreted-engine baseline)
# ----------------------------------------------------------------------

def run_gate_fault_scalar(netlist, workload: Workload, fault: Fault,
                          params: SrcParams,
                          backend: str = "interpreted") -> FaultRecord:
    """Classify one gate-level fault of an SRC campaign with a
    single-pattern simulation."""
    overlay = build_overlay(netlist, [fault])
    golden = workload.golden
    expected = workload.expected
    dw = params.data_width
    outputs: List[Tuple[int, int]] = []
    detected: Optional[Tuple[int, str]] = None
    tick = 0
    try:
        sim = GateSimulator(overlay.netlist, backend=backend)
        ctrl = control_name(fault) if fault.structural else None
        ctrl_state = 0
        for tick, drive in enumerate(workload.waveform):
            if len(outputs) >= expected:
                break
            for name, value in drive.items():
                sim.set_input(name, value)
            if ctrl is not None:
                want = 1 if fault.active(tick) else 0
                if want != ctrl_state:
                    sim.set_input(ctrl, want)
                    ctrl_state = want
            elif fault.target_kind == "mem" and tick == fault.cycle:
                sim.memory_model(fault.target).flip_bit(
                    fault.address, fault.bit)
            sim.step()
            valid = sim.get_logic("out_valid")[0]
            if valid not in (L.L0, L.L1):
                detected = (tick, "out_valid is X")
                break
            if valid == L.L1:
                frame = []
                for port in ("out_l", "out_r"):
                    bits = sim.get_logic(port)
                    if any(b not in (L.L0, L.L1) for b in bits):
                        detected = (tick, "output data is X")
                        break
                    frame.append(wrap_signed(
                        sum(1 << i for i, b in enumerate(bits)
                            if b == L.L1), dw))
                if detected is not None:
                    break
                outputs.append((frame[0], frame[1]))
    except Exception as exc:  # simulator check fired: the fault was caught
        detected = (tick, f"{type(exc).__name__}: {exc}")
    return _classify(fault, outputs, detected, golden)


# ----------------------------------------------------------------------
# rtl and behavioural levels: bit flips poked into the environment
# ----------------------------------------------------------------------

def _replay_one(make_sim, poke, workload: Workload, fault: Fault,
                params: SrcParams) -> FaultRecord:
    """Classify one RTL or behavioural fault on a single-pattern DUT.

    ``make_sim()`` builds the DUT (``set_input`` / ``step`` / ``get``);
    ``poke(sim)`` flips the fault's bit at the start of the injection
    cycle, before that cycle's evaluation -- the gate-level XOR
    saboteur's observation window.
    """
    golden = workload.golden
    expected = workload.expected
    dw = params.data_width
    outputs: List[Tuple[int, int]] = []
    detected: Optional[Tuple[int, str]] = None
    tick = 0
    try:
        sim = make_sim()
        for tick, drive in enumerate(workload.waveform):
            if len(outputs) >= expected:
                break
            if tick == fault.cycle:
                poke(sim)
            for name, value in drive.items():
                sim.set_input(name, value)
            sim.step()
            if sim.get("out_valid"):
                outputs.append((wrap_signed(sim.get("out_l"), dw),
                                wrap_signed(sim.get("out_r"), dw)))
    except Exception as exc:  # model check fired: the fault was caught
        detected = (tick, f"{type(exc).__name__}: {exc}")
    return _classify(fault, outputs, detected, golden)


def run_rtl_fault(module, workload: Workload, fault: Fault,
                  params: SrcParams,
                  backend: str = "interpreted") -> FaultRecord:
    """Classify one RTL register SEU on any RTL engine.

    All logic evaluated on the injection cycle -- and the next-state
    functions -- see the upset value.
    """
    def poke(sim) -> None:
        sim.env[fault.target] = sim.env[fault.target] ^ (1 << fault.bit)
        sim.settle()

    return _replay_one(lambda: RtlSimulator(module, backend=backend),
                       poke, workload, fault, params)


def run_beh_batch(fsm, workload: Workload, faults: Sequence[Fault],
                  params: SrcParams,
                  backend: str = "compiled") -> List[FaultRecord]:
    """Classify a batch of behavioural faults in one batched sweep.

    One FSM batch of *backend* (``"compiled"`` per-pattern
    environments, ``"native"`` pattern-major C buffers) carries
    ``len(faults) + 1`` private copies of *fsm* and its front end
    under the common workload: pattern 0 runs fault-free as the
    in-flight golden cross-check, pattern ``b + 1`` takes fault
    ``b``'s variable-bit flip at its injection cycle -- the
    behavioural mirror of the gate level's parallel-fault batches.
    """
    golden = workload.golden
    expected = workload.expected
    dw = params.data_width
    n = len(faults) + 1
    sim = engine_class(backend, "fsm_batch")(fsm, n)
    pokes: Dict[int, List[Tuple[int, Fault]]] = {}
    for b, fault in enumerate(faults):
        pokes.setdefault(fault.cycle, []).append((b + 1, fault))
    read = sim.get_output_patterns
    outputs: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    remaining = n
    for tick, drive in enumerate(workload.waveform):
        if not remaining:
            break
        for p, fault in pokes.get(tick, ()):
            sim.flip_bit(p, fault.target, fault.bit)
        for name, value in drive.items():
            sim.set_input(name, value)
        sim.step()
        valid = read("out_valid")
        if any(valid):
            out_l = read("out_l")
            out_r = read("out_r")
            for p in range(n):
                if valid[p] and len(outputs[p]) < expected:
                    outputs[p].append((wrap_signed(out_l[p], dw),
                                       wrap_signed(out_r[p], dw)))
                    if len(outputs[p]) >= expected:
                        remaining -= 1
    if outputs[0] != golden:
        raise CampaignError(
            f"fault-free pattern diverged from the golden model on "
            f"FSM {fsm.name!r} -- campaign harness bug")
    return [_classify(fault, outputs[b + 1], None, golden)
            for b, fault in enumerate(faults)]


def run_beh_fault_scalar(fsm, workload: Workload, fault: Fault,
                         params: SrcParams,
                         backend: str = "interpreted") -> FaultRecord:
    """Classify one behavioural fault on any FSM engine, with the same
    observation window as :func:`run_rtl_fault`."""
    def poke(sim) -> None:
        env = sim.interp.env
        env[fault.target] = env[fault.target] ^ (1 << fault.bit)

    return _replay_one(
        lambda: BehavioralSimulation(params, fsm=fsm, backend=backend),
        poke, workload, fault, params)


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


def fi_batch_width(level: str, backend: str,
                   batch_size: int) -> Optional[int]:
    """Faults per batch when *backend* classifies at *level*.

    None when the engine holds one pattern at that level: each fault
    then runs in its own simulation.  Otherwise *batch_size* faults
    (plus the fault-free pattern 0).
    """
    if not ENGINES[backend].batches(level):
        return None
    return batch_size


def _fi_task(faults: Sequence[Fault]):
    """Pool task: classify a slice of the faultload on the campaign's
    engine; returns the records and the compile-cache deltas."""
    level, backend = _WORKER["level"], _WORKER["backend"]
    dut, workload = _WORKER["dut"], _WORKER["workload"]
    params = _WORKER["params"]
    batch, single = _runners(level)
    before = counters_snapshot()
    if not ENGINES[backend].batches(level):
        records = []
        for fault in faults:
            with span("fi.fault", level=level, target=fault.target):
                records.append(single(dut, workload, fault, params,
                                      backend=backend))
    else:
        with span("fi.batch", level=level, n_faults=len(faults)):
            try:
                records = batch(dut, workload, faults, params,
                                backend=backend)
            except CampaignError:
                raise
            except Exception:
                # a whole-batch failure cannot be attributed to one
                # fault: isolate by re-running each fault in its own
                # single-pattern run
                records = [single(dut, workload, fault, params,
                                  backend="compiled")
                           for fault in faults]
    return records, counters_delta(before, counters_snapshot())


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

    When tracing is enabled the task function is transparently wrapped
    so workers adopt the parent's trace context and ship their new
    spans back with each result; the parent absorbs them as results
    stream in, so partial (interrupted) runs keep their spans too.
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
    trace_ctx = current_context()
    task_fn = fn if trace_ctx is None else TracedTask(fn, trace_ctx)
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")
    pool = ctx.Pool(min(jobs, len(tasks)), initializer, initargs)
    results = []
    try:
        for result in pool.imap(task_fn, tasks):
            if trace_ctx is not None:
                result, events = result
                absorb_events(events)
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

    Classifies every fault on the configured engine (batched as
    :func:`fi_batch_width` says), then re-runs a probe slice on the
    compiled and interpreted engines to measure every engine's
    injection throughput -- cross-checking that the probe's
    classifications agree exactly.

    An interrupt (Ctrl-C) does not lose the run: the pool is torn down
    cleanly and the report carries every fault classified so far,
    flagged ``interrupted`` (throughput probes are skipped).
    """
    config = config.validated()
    with span("fi.campaign", level=config.level, backend=config.backend,
              n_faults=config.n_faults, jobs=config.jobs):
        return _run_campaign(config)


def _run_campaign(config: CampaignConfig) -> CampaignReport:
    _init_worker(config.params, config.level, config.seed, config.budget,
                 config.backend)
    workload: Workload = _WORKER["workload"]  # type: ignore[assignment]
    backend = config.backend
    with span("fi.faultload", level=config.level) as faultload_span:
        faults, design = campaign_faultload(config)
        faultload_span.note(n_faults=len(faults))

    width = fi_batch_width(config.level, backend, config.batch_size) or 1
    tasks = [faults[i:i + width] for i in range(0, len(faults), width)]

    interrupted = False
    t0 = time.perf_counter()
    try:
        results = parallel_map(
            _fi_task, tasks, config.jobs, initializer=_init_worker,
            initargs=(config.params, config.level, config.seed,
                      config.budget, config.backend))
    except PoolInterrupted as stop:
        results = stop.partial
        interrupted = True
    main_wall = time.perf_counter() - t0
    if config.jobs > 1 and len(tasks) > 1:
        # pool runs hit worker-local caches; in-process runs already
        # counted against the parent's, so absorbing would double-count
        absorb_deltas([r[1] for r in results])
    records = [rec for batch, _ in results for rec in batch]
    for outcome, count in tally(records).items():
        if count:
            REGISTRY.counter(
                "repro_fi_outcomes_total",
                help="Fault classifications by outcome",
                level=config.level, outcome=outcome).inc(count)

    throughput = [Throughput(backend, len(records) if interrupted
                             else len(faults), main_wall)]
    if interrupted:
        cache_stats = aggregate_stats()
        return CampaignReport(
            level=config.level, design=design, seed=config.seed,
            budget=config.budget, jobs=config.jobs,
            backend=config.backend,
            n_workload_frames=workload.case.n_inputs,
            cycle_budget=workload.cycle_budget, records=records,
            throughput=throughput, cache_stats=cache_stats,
            interrupted=True)
    probe = faults[:min(config.probe_faults, len(faults))]

    # cross-engine probes: the same leading faults on the compiled
    # batch baseline the campaign's engine replaces, then on the
    # interpreted reference; classifications must agree exactly
    batch, single = _runners(config.level)
    dut = _WORKER["dut"]
    for engine in [e for e in ("compiled", "interpreted") if e != backend]:
        probe_wall0 = time.time()
        t0 = time.perf_counter()
        width = fi_batch_width(config.level, engine, config.batch_size)
        if width is None:
            probe_records = [single(dut, workload, fault, config.params,
                                    backend=engine) for fault in probe]
        else:
            probe_records = []
            for i in range(0, len(probe), width):
                probe_records += batch(dut, workload, probe[i:i + width],
                                       config.params, backend=engine)
        probe_wall = time.perf_counter() - t0
        for fault, main_record, other in zip(probe, records,
                                             probe_records):
            if other.outcome != main_record.outcome:
                raise CampaignError(
                    f"engines disagree on {fault.format()}: {engine} "
                    f"says {other.outcome}, {backend} says "
                    f"{main_record.outcome}")
        throughput.append(Throughput(engine, len(probe), probe_wall))
        record_span("fi.probe", probe_wall0, time.time(),
                    engine=engine, n_faults=len(probe))

    cache_stats = aggregate_stats()

    report = CampaignReport(
        level=config.level, design=design, seed=config.seed,
        budget=config.budget, jobs=config.jobs,
        backend=config.backend,
        n_workload_frames=workload.case.n_inputs,
        cycle_budget=workload.cycle_budget, records=records,
        throughput=throughput,
        cache_stats=cache_stats,
    )
    return report


def run_fi_self_check(config: CampaignConfig) -> SelfCheckResult:
    """Classify one known-SDC and one known-masked fault.

    The known-SDC fault sticks the ``out_l`` LSB at the polarity that
    contradicts at least one golden frame, so the stream must corrupt
    silently.  The known-masked fault sticks ``scan_en`` at 0 -- the
    workload never asserts scan mode, so forcing its idle value cannot
    change anything.  Both run through the regular batch classifier;
    misclassification of either means the campaign machinery is broken.
    """
    config = config.validated()
    _init_worker(config.params, "gate", config.seed, config.budget)
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
                             [sdc_fault, masked_fault], config.params)
    return SelfCheckResult(sdc_record=records[0],
                           masked_record=records[1])
