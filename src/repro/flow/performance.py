"""Simulation-performance measurement (paper Section 5.1, Figure 8).

Measures wall-clock throughput of every abstraction level in *simulated
clock cycles per second*.  As in the paper, "implementations without a
clock were scaled appropriately according to the ratio of simulation
time and simulated time", assuming the system clock (25 MHz for the
paper configuration).

Absolute numbers depend on the host; only the ordering and rough ratios
are meaningful -- which is precisely how the paper presents Figure 8.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..engines import ENGINES, engine_class, resolve
from ..gatesim import GateSimulator
from ..kernel import Clock, Module, Simulation
from ..rtl import RtlSimulator
from ..src_design.behavioral import BehavioralSimulation, build_main_fsm
from ..src_design.algorithmic import AlgorithmicSrc
from ..src_design.params import SrcParams
from ..src_design.schedule import (SampleEvent, clocked_stimulus,
                                   count_outputs, make_schedule)
from ..src_design.testbench import (BehavioralDutDriver, RtlDutDriver,
                                    run_clocked, run_tlm)
from ..dsp.stimulus import sine_samples


@dataclass
class SimPerfResult:
    """One measured point of Figure 8 / Figure 9."""

    level: str
    wall_seconds: float
    simulated_cycles: float
    output_frames: int
    #: simulation engine behind this point ("interpreted" / "compiled";
    #: untimed/abstract levels keep the default)
    backend: str = "interpreted"
    #: stimulus vectors evaluated per pass (parallel-pattern runs > 1)
    n_patterns: int = 1

    @property
    def cycles_per_second(self) -> float:
        """Throughput; parallel-pattern runs count pattern-cycles."""
        if self.wall_seconds <= 0.0:
            return float("inf")
        return self.simulated_cycles * self.n_patterns / self.wall_seconds

    def as_dict(self) -> Dict[str, object]:
        return {
            "level": self.level,
            "backend": self.backend,
            "n_patterns": self.n_patterns,
            "cycles_per_second": self.cycles_per_second,
            "simulated_cycles": self.simulated_cycles,
            "wall_seconds": self.wall_seconds,
            "output_frames": self.output_frames,
        }

    def format(self) -> str:
        return (f"{self.level:18s} {self.cycles_per_second:12.1f} cyc/s "
                f"({self.simulated_cycles:.0f} cycles in "
                f"{self.wall_seconds:.3f} s)")


def host_info() -> Dict[str, object]:
    """The machine identity recorded next to every benchmark run.

    Cross-engine speedups are only comparable against numbers from the
    same host class; consumers should match on this block before
    reporting a regression against recorded data.
    """
    import platform

    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
    }


def write_bench_json(path: str, results: Sequence[SimPerfResult],
                     extra: Optional[Dict[str, object]] = None) -> str:
    """Write measured points as machine-readable JSON.

    The target directory can be redirected with ``REPRO_BENCH_DIR``;
    returns the path written.  Used by the benchmark scripts to leave
    ``BENCH_fig08.json`` / ``BENCH_fig09.json`` next to the test run so
    the performance trajectory is trackable across changes.  Every
    document records the measuring host (:func:`host_info`) so
    speedups are only compared against a matching machine.
    """
    bench_dir = os.environ.get("REPRO_BENCH_DIR")
    if bench_dir:
        os.makedirs(bench_dir, exist_ok=True)
        path = os.path.join(bench_dir, os.path.basename(path))
    payload: Dict[str, object] = {
        "results": [r.as_dict() for r in results],
        "host": host_info(),
    }
    if extra:
        payload.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def default_stimulus(params: SrcParams, n_inputs: int,
                     mode: int = 0) -> List[Tuple[int, int]]:
    """Standard stereo sine stimulus used by all performance runs."""
    samples = sine_samples(n_inputs, 1_000.0, params.modes[mode].f_in,
                           params.data_width)
    return [(s, -s) for s in samples]


def _simulated_cycles(params: SrcParams,
                      schedule: Sequence[SampleEvent]) -> float:
    end_ps = max(float(ev.time_ps) for ev in schedule)
    return end_ps / params.clock_period_ps


def measure_algorithmic(params: SrcParams, n_inputs: int) -> SimPerfResult:
    """The pure C++ model: fastest, untimed, scaled to clock cycles."""
    schedule = make_schedule(params, 0, n_inputs)
    inputs = default_stimulus(params, n_inputs)
    src = AlgorithmicSrc(params, 0)
    start = time.perf_counter()
    outputs = src.process_schedule(schedule, inputs)
    wall = time.perf_counter() - start
    return SimPerfResult("C++", wall, _simulated_cycles(params, schedule),
                         len(outputs))


def measure_tlm(params: SrcParams, n_inputs: int,
                refined: bool = True) -> SimPerfResult:
    """SystemC with channels, inside the discrete-event kernel."""
    schedule = make_schedule(params, 0, n_inputs)
    inputs = default_stimulus(params, n_inputs)
    start = time.perf_counter()
    outputs = run_tlm(params, schedule, inputs, refined=refined)
    wall = time.perf_counter() - start
    return SimPerfResult("SystemC", wall,
                         _simulated_cycles(params, schedule), len(outputs))


class _KernelClockedBench(Module):
    """Kernel-hosted clocked DUT: one driver cycle per clock edge.

    The DUT -- behavioural FSM or RTL model -- lives in the same SystemC
    kernel as the testbench, one full design evaluation per clock edge
    (the BEH and RTL-SystemC simulations of Figure 8).
    """

    def __init__(self, name: str, params: SrcParams, driver,
                 schedule: Sequence[SampleEvent],
                 inputs: Sequence[Tuple[int, int]]):
        super().__init__(name)
        self.driver = driver
        self.outputs: List[Tuple[int, int]] = []
        self._expected = count_outputs(schedule)
        self._stimulus = clocked_stimulus(params, schedule, inputs)
        self.clock = Clock(f"{name}.clk", params.clock_period_ps)
        self.add_thread(self._drive, name=f"{name}.drive")

    def _drive(self):
        from ..kernel import current_simulation

        for frame, cfg, req in self._stimulus:
            if len(self.outputs) >= self._expected:
                break
            yield self.clock.posedge
            result = self.driver.cycle(frame=frame, cfg=cfg, req=req)
            if result is not None:
                self.outputs.append(result)
        # the free-running clock would keep the kernel alive forever
        current_simulation().stop()


def measure_behavioral(params: SrcParams, n_inputs: int,
                       optimized: bool = True,
                       backend: str = "interpreted") -> SimPerfResult:
    """Synthesisable behavioural level, hosted in the kernel."""
    schedule = make_schedule(params, 0, n_inputs, quantized=True)
    inputs = default_stimulus(params, n_inputs)
    beh = BehavioralSimulation(params, optimized, backend=backend)
    bench = _KernelClockedBench("beh_bench", params,
                                BehavioralDutDriver(beh, params), schedule,
                                inputs)
    start = time.perf_counter()
    with Simulation(bench) as sim:
        sim.run()
    wall = time.perf_counter() - start
    return SimPerfResult("BEH", wall, _simulated_cycles(params, schedule),
                         len(bench.outputs), backend=backend)


def measure_beh_throughput(params: SrcParams, cycles: int,
                           backend: str = "interpreted",
                           n_patterns: int = 1, optimized: bool = True,
                           seed: int = 0,
                           label: str = "BEH") -> SimPerfResult:
    """Raw behavioural (scheduled-FSM) stimulus throughput.

    Drives every input port of the main-process FSM with fresh random
    vectors each cycle -- the access pattern of batch regression and
    fault simulation, mirroring
    :func:`repro.cosim.measure.measure_gate_throughput`.  With the
    compiled or native backend and ``n_patterns=N`` each simulated
    cycle evaluates N independent stimulus vectors in one
    generated-code call, and :attr:`SimPerfResult.cycles_per_second`
    reports pattern-cycles per second.  Both batches hold their
    patterns pattern-major, compiled in lists and native in C
    buffers.  ``n_patterns=1`` drives the engine's scalar FSM host, the
    one verify and one-fault FI runs drive.
    """
    fsm = build_main_fsm(params, optimized)
    in_ports = [(p.name, 1 << p.width)
                for p in fsm.program.ports.values() if p.direction == "in"]
    out_name = next(p.name for p in fsm.program.ports.values()
                    if p.direction == "out")
    backend = resolve(backend)
    batched = n_patterns != 1
    if not batched:
        sim = engine_class(backend, "fsm")(fsm)
    elif ENGINES[backend].batches("beh"):
        sim = engine_class(backend, "fsm_batch")(fsm, n_patterns)
    else:
        raise ValueError("parallel patterns need a batch backend")
    rng = random.Random(seed)
    # Stimulus is pre-generated so the timed region measures the FSM
    # engine, not the random-number generator (whose cost would grow
    # with n_patterns and flatten the batch advantage).
    if batched:
        stim = [[(name, [rng.randrange(span) for _ in range(n_patterns)])
                 for name, span in in_ports] for _ in range(cycles)]
        start = time.perf_counter()
        for vectors in stim:
            for name, values in vectors:
                sim.set_input_patterns(name, values)
            sim.step()
        sim.get_output_patterns(out_name)
    else:
        stim = [[(name, rng.randrange(span)) for name, span in in_ports]
                for _ in range(cycles)]
        start = time.perf_counter()
        for vectors in stim:
            for name, value in vectors:
                sim.set_input(name, value)
            sim.step()
        sim.get_output(out_name)
    wall = time.perf_counter() - start
    return SimPerfResult(label, wall, float(cycles), 0, backend=backend,
                         n_patterns=n_patterns)


def measure_cycle_dut(params: SrcParams, sim, n_inputs: int,
                      label: str) -> SimPerfResult:
    """RTL or gate-level DUT through the standard clocked testbench
    (bare cycle loop -- the standalone HDL-simulator view of Figure 9)."""
    schedule = make_schedule(params, 0, n_inputs, quantized=True)
    inputs = default_stimulus(params, n_inputs)
    driver = RtlDutDriver(sim, params)
    start = time.perf_counter()
    outputs = run_clocked(params, driver, schedule, inputs)
    wall = time.perf_counter() - start
    return SimPerfResult(label, wall,
                         _simulated_cycles(params, schedule), len(outputs))


def measure_kernel_cycle_dut(params: SrcParams, dut_sim, n_inputs: int,
                             label: str) -> SimPerfResult:
    """A cycle DUT hosted inside the kernel (Figure 8's RTL point)."""
    schedule = make_schedule(params, 0, n_inputs, quantized=True)
    inputs = default_stimulus(params, n_inputs)
    bench = _KernelClockedBench("dut_bench", params,
                                RtlDutDriver(dut_sim, params), schedule,
                                inputs)
    start = time.perf_counter()
    with Simulation(bench) as sim:
        sim.run()
    wall = time.perf_counter() - start
    return SimPerfResult(label, wall, _simulated_cycles(params, schedule),
                         len(bench.outputs))


def measure_figure8(params: SrcParams, n_inputs: int = 400,
                    rtl_module=None,
                    backend: str = "interpreted") -> List[SimPerfResult]:
    """All four points of Figure 8, most abstract first.

    Every point runs inside the SystemC kernel, as in the paper (the
    abstraction level changes, the simulation environment does not).
    *backend* selects the simulation engine for the clocked points: the
    BEH point's FSM engine (interpreted stepper vs. generated code) and
    the RTL point's netlist simulator.  The untimed levels have nothing
    to compile and keep the default.
    """
    from ..src_design.rtl_design import build_rtl_design

    results = [
        measure_algorithmic(params, n_inputs),
        measure_tlm(params, n_inputs),
        measure_behavioral(params, max(40, n_inputs // 4),
                           backend=backend),
    ]
    module = rtl_module or build_rtl_design(params, optimized=True).module
    rtl_inputs = max(20, n_inputs // 8)
    rtl = measure_kernel_cycle_dut(
        params, RtlSimulator(module, backend=backend), rtl_inputs, "RTL"
    )
    rtl.backend = backend
    results.append(rtl)
    return results


def profile_behavioral_split(params: SrcParams, n_inputs: int = 60,
                             optimized: bool = True) -> Dict[str, float]:
    """Answer the paper's open profiling question (Section 5.1).

    "Due to the lack of proper profiling tools for the SystemC
    simulation, it could not be checked whether the RTL parts dominated
    the overall simulation" -- so we built the profiler.  Runs the
    kernel-hosted behavioural simulation with per-process wall-time
    accounting plus an internal split of the behavioural model into its
    main FSM process (the state bodies) vs. the RT-level front end (its
    evaluation plus the rest of the drive process), and returns the
    time shares::

        {"main_process": ..., "rtl_front_end": ..., "kernel": ...}

    (fractions of total simulation time; they sum to ~1.0).
    """
    import time as _time

    from ..kernel import SimulationProfiler

    schedule = make_schedule(params, 0, n_inputs, quantized=True)
    inputs = default_stimulus(params, n_inputs)
    beh = BehavioralSimulation(params, optimized)
    bench = _KernelClockedBench("profile_bench", params,
                                BehavioralDutDriver(beh, params), schedule,
                                inputs)

    # split the behavioural model internally: time the interpreter's
    # step, and inside it the front end's own evaluation methods
    interp = beh.interp
    seconds = {"step": 0.0, "front_end": 0.0}

    def timed(fn, key):
        def wrapper(*args):
            t0 = _time.perf_counter()
            try:
                return fn(*args)
            finally:
                seconds[key] += _time.perf_counter() - t0
        return wrapper

    # instance attributes shadow the methods step() calls
    interp.step = timed(interp.step, "step")
    interp.settle_front_end = timed(interp.settle_front_end, "front_end")
    interp.commit_front_end = timed(interp.commit_front_end, "front_end")

    start = _time.perf_counter()
    with Simulation(bench) as sim:
        profiler = SimulationProfiler(sim)
        sim.run()
        report = profiler.report()
    total = _time.perf_counter() - start

    drive = sum(p.wall_seconds for p in report.profiles
                if "drive" in p.name)
    clock = sum(p.wall_seconds for p in report.profiles
                if "clk" in p.name)
    main = min(seconds["step"] - seconds["front_end"], drive)
    front_end = max(0.0, drive - main)
    kernel = max(0.0, total - drive - clock) + clock
    return {
        "main_process": main / total,
        "rtl_front_end": front_end / total,
        "kernel": kernel / total,
        "total_seconds": total,
    }


def format_results(results: Sequence[SimPerfResult],
                   title: str = "Simulation performance") -> str:
    lines = [title, f"{'level':18s} {'cycles/second':>14s}"]
    for r in results:
        lines.append(f"{r.level:18s} {r.cycles_per_second:14.1f}")
    return "\n".join(lines)
