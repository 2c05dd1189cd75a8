"""Testbenches driving the SRC models inside the simulation kernel.

The TLM testbench mirrors paper Figure 5: an independent producer thread
writes input samples at the input rate, an independent consumer thread
reads output samples at the output rate, and a control action configures
the operation mode.  Event times come from the same schedule the golden
model consumes, so bit-accurate comparison across levels is meaningful.

Tie-breaking: when an input and an output land on the same instant, the
input wins (see :mod:`repro.src_design.schedule`); the consumer thread
therefore wakes one picosecond late, which can never reorder it past a
*different* event (the minimum non-zero event gap at audio rates is far
larger than 1 ps).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from ..datatypes.integers import wrap_signed
from ..kernel.context import current_simulation
from ..kernel.event import Timeout
from ..kernel.module import Module
from ..kernel.scheduler import Simulation
from .algorithmic import AccessMonitor
from .params import SrcParams
from .schedule import (IDLE, KIND_IN, KIND_MODE, KIND_OUT, CycleStimulus,
                       SampleEvent, clocked_stimulus, count_outputs)
from .tlm import SrcChannelMonolithic, SrcChannelRefined


def _round_ps(time_ps: Fraction) -> int:
    """Round an exact event time to integer picoseconds (half up)."""
    return int(time_ps + Fraction(1, 2))


class TlmTestbench(Module):
    """Producer/consumer testbench around an SRC channel."""

    def __init__(self, name: str, params: SrcParams, channel,
                 schedule: Sequence[SampleEvent],
                 inputs: Sequence[Sequence[int]]):
        super().__init__(name)
        self.params = params
        self.channel = channel
        self.inputs = inputs
        self.outputs: List[Tuple[int, ...]] = []
        self._producer_events = [
            ev for ev in schedule if ev.kind in (KIND_MODE, KIND_IN)
        ]
        self._consumer_events = [
            ev for ev in schedule if ev.kind == KIND_OUT
        ]
        self.add_thread(self._producer, name=f"{name}.producer")
        self.add_thread(self._consumer, name=f"{name}.consumer")

    def _wait_until(self, target_ps: int):
        now = current_simulation().time_ps
        if target_ps > now:
            yield Timeout(target_ps - now)

    def _producer(self):
        for ev in self._producer_events:
            yield from self._wait_until(_round_ps(ev.time_ps))
            if ev.kind == KIND_MODE:
                self.channel.set_mode(ev.value)
            else:
                yield from self.channel.write_sample(self.inputs[ev.value])

    def _consumer(self):
        for ev in self._consumer_events:
            # +1 ps: input-before-output tie-break (see module docstring).
            yield from self._wait_until(_round_ps(ev.time_ps) + 1)
            frame = yield from self.channel.read_sample()
            self.outputs.append(tuple(frame))


def drive_src_ports(sim, frame=None, cfg=None, req=False) -> None:
    """Write one clock cycle of stimulus onto the SRC's input ports.

    The strobes (``in_valid``, ``cfg_valid``, ``out_req``) are written
    every cycle; the data ports only with their strobe, and hold their
    last value otherwise.
    """
    sim.set_input("in_valid", 0 if frame is None else 1)
    if frame is not None:
        sim.set_input("in_l", frame[0])
        sim.set_input("in_r", frame[1])
    sim.set_input("cfg_valid", 0 if cfg is None else 1)
    if cfg is not None:
        sim.set_input("cfg_mode", cfg)
    sim.set_input("out_req", 1 if req else 0)


class _PortWrites(dict):
    """A dict that records ``set_input`` calls."""

    set_input = dict.__setitem__


def src_port_waveform(stimulus: Sequence[CycleStimulus]
                      ) -> List[Dict[str, int]]:
    """The :func:`drive_src_ports` writes of every cycle of *stimulus*,
    as a recorded port waveform; idle cycles share one dict."""
    def record(cycle: CycleStimulus) -> Dict[str, int]:
        writes = _PortWrites()
        drive_src_ports(writes, *cycle)
        return dict(writes)

    idle = record(IDLE)
    return [idle if cycle is IDLE else record(cycle) for cycle in stimulus]


class RtlDutDriver:
    """Drives an :class:`RtlSimulator`, :class:`GateSimulator` or
    behavioural DUT.

    The simulators share the ``set_input`` / ``step`` / ``get`` API; the
    driver converts stimulus frames to port values and output ports back
    to signed samples.
    """

    def __init__(self, sim, params: SrcParams):
        self.sim = sim
        self.params = params

    def cycle(self, frame=None, cfg=None, req=False):
        sim = self.sim
        drive_src_ports(sim, frame, cfg, req)
        sim.step()
        if sim.get("out_valid"):
            dw = self.params.data_width
            return (wrap_signed(sim.get("out_l"), dw),
                    wrap_signed(sim.get("out_r"), dw))
        return None


class BehavioralDutDriver(RtlDutDriver):
    """Drives a :class:`~repro.src_design.behavioral.BehavioralSimulation`,
    which takes the same pins as the RTL and gate DUTs."""

    def cycle(self, frame=None, cfg=None, req=False):
        # Defined here, not inherited: the benchmark's per-layer tracer
        # (perfbench/layers.py) wraps this class's own ``cycle``.
        return super().cycle(frame, cfg, req)


def run_clocked(
    params: SrcParams,
    driver,
    schedule: Sequence[SampleEvent],
    inputs: Sequence[Sequence[int]],
    on_cycle=None,
) -> List[Tuple[int, ...]]:
    """Run a clocked DUT over a *clock-quantised* schedule.

    The schedule's event times must be integer multiples of the clock
    period (build it with ``make_schedule(..., quantized=True)``); the
    matching golden reference is the algorithmic model run over the same
    quantised schedule -- exactly the paper's Figure 7 methodology.  The
    run follows :func:`~repro.src_design.schedule.clocked_stimulus` and
    stops once every requested output has appeared.

    ``on_cycle(tick, result)`` is invoked after every clock cycle with
    the tick index and the output frame produced on that tick (or
    ``None``) -- the differential-verification harness uses it to record
    which cycle each output frame appeared on and to sample coverage.
    """
    expected = count_outputs(schedule)
    outputs: List[Tuple[int, ...]] = []
    stimulus = clocked_stimulus(params, schedule, inputs)
    for tick, (frame, cfg, req) in enumerate(stimulus):
        if len(outputs) >= expected:
            break
        result = driver.cycle(frame=frame, cfg=cfg, req=req)
        if result is not None:
            outputs.append(tuple(result))
        if on_cycle is not None:
            on_cycle(tick, result)
    if len(outputs) != expected:
        raise RuntimeError(
            f"clocked run produced {len(outputs)} outputs, "
            f"expected {expected}"
        )
    return outputs


def run_tlm(
    params: SrcParams,
    schedule: Sequence[SampleEvent],
    inputs: Sequence[Sequence[int]],
    refined: bool = True,
    monitor: Optional[AccessMonitor] = None,
    with_corner_bug: bool = True,
) -> List[Tuple[int, ...]]:
    """Simulate the TLM SRC over *schedule*; returns the output frames.

    ``refined`` selects between the monolithic hierarchical channel
    (paper Figure 5) and the refined three-submodule channel (Figure 6).
    """
    channel_cls = SrcChannelRefined if refined else SrcChannelMonolithic
    top = Module("top")
    top.src = channel_cls("src", params, monitor=monitor,
                          with_corner_bug=with_corner_bug)
    top.tb = TlmTestbench("tb", params, top.src, schedule, inputs)
    with Simulation(top) as sim:
        sim.run()
        return list(top.tb.outputs)
