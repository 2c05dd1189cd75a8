"""Sample-event schedules and their time quantisation (paper Figure 7).

The golden C++ model is untimed: which input samples precede a given
output sample follows from the *exact* rational sample periods.  The
clocked implementations only see sample events at clock edges, slightly
delaying them and thereby changing the buffer content observed by some
outputs.  To keep bit-accurate comparison possible, the paper propagated
this quantisation back into the golden model; we reproduce that by
generating the ordered event schedule once -- exact or clock-quantised --
and feeding the *same* schedule to the untimed models, while the clocked
models derive it independently from their producer/consumer threads (and
are checked to agree).  Every clocked testbench reads the quantised
schedule through :func:`clocked_stimulus`, its per-cycle form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple

from .params import SrcParams

#: event kinds, in tie-break priority order at equal time
KIND_MODE = "mode"
KIND_IN = "in"
KIND_OUT = "out"

_PRIORITY = {KIND_MODE: 0, KIND_IN: 1, KIND_OUT: 2}


@dataclass(frozen=True)
class SampleEvent:
    """One scheduled event: an input arrival, output request or mode change.

    ``time_ps`` is exact (a Fraction) for the untimed schedule and an
    integer multiple of the clock period for the quantised schedule.
    ``value`` is the input index for ``in``, the output index for ``out``
    and the new mode for ``mode``.
    """

    time_ps: Fraction
    kind: str
    value: int


def make_schedule(
    params: SrcParams,
    mode: int,
    n_inputs: int,
    quantized: bool = False,
    mode_changes: Sequence[Tuple[int, int]] = (),
) -> List[SampleEvent]:
    """Build the ordered event schedule for a conversion run.

    Parameters
    ----------
    params:
        Design parameters (rates come from ``params.modes[mode]``).
    mode:
        Initial operation mode (applied at t = 0).
    n_inputs:
        Number of input samples to schedule.
    quantized:
        When True, every event time is quantised *up* to the next clock
        edge (paper Figure 7, lower half); ties between an input and an
        output landing on the same edge resolve input-first.
    mode_changes:
        Optional ``(input_index, new_mode)`` pairs: the mode-change event
        lands in a *guaranteed-idle gap* shortly before the arrival of
        input *input_index* -- at least ``max_latency_cycles`` clock
        periods after the previous event and before the next one, so no
        clocked implementation can be mid-computation when the flush
        applies (real systems stop the stream to reconfigure).  Input and
        output periods follow the new mode from that moment on.

    Returns
    -------
    list of :class:`SampleEvent`, ordered by (time, mode < in < out).
    """
    if not 0 <= mode < len(params.modes):
        raise ValueError(f"mode {mode} out of range")
    events: List[SampleEvent] = [SampleEvent(Fraction(0), KIND_MODE, mode)]
    changes = dict(mode_changes)
    for index, new_mode in changes.items():
        if not 0 <= new_mode < len(params.modes):
            raise ValueError(f"mode {new_mode} out of range")
        if not 0 <= index < n_inputs:
            raise ValueError(
                f"mode-change input index {index} outside the run "
                f"(0..{n_inputs - 1})"
            )
    clk = Fraction(params.clock_period_ps)
    latency_guard = params.max_latency_cycles * clk
    small_guard = 4 * clk

    # Unified generation: walk input and output streams together so a
    # mode change can be placed in a verified-idle gap between events.
    current_mode = mode
    t_in = Fraction(0)        # time of the most recent input arrival
    t_out = Fraction(0)       # time of the most recent output request
    t_last_in = Fraction(0)   # most recent input (or mode) event
    t_last_out = Fraction(0)  # most recent output event
    j = 0  # next input index
    k = 0  # next output index
    pending_change: Optional[int] = None

    def period_in() -> Fraction:
        return params.sample_period_ps(params.modes[current_mode].f_in)

    def period_out() -> Fraction:
        return params.sample_period_ps(params.modes[current_mode].f_out)

    while j < n_inputs:
        if j in changes and pending_change is None:
            pending_change = changes.pop(j)
        next_in = t_in + period_in()
        next_out = t_out + period_out()
        if pending_change is not None:
            # Slot the mode event into an idle gap: the preceding output
            # must have fully drained (latency guard); inputs and the
            # upcoming events only need a small settling margin.
            window_lo = max(t_last_out + latency_guard,
                            t_last_in + small_guard)
            window_hi = min(next_in, next_out) - small_guard
            if window_lo < window_hi:
                t_mode = (window_lo + window_hi) / 2
                current_mode = pending_change
                pending_change = None
                events.append(SampleEvent(t_mode, KIND_MODE, current_mode))
                t_last_in = t_mode
                continue  # re-derive periods under the new mode
        # At exact ties the input event wins (the final sort also orders
        # in before out at equal times).
        if next_in <= next_out:
            events.append(SampleEvent(next_in, KIND_IN, j))
            t_in = next_in
            t_last_in = max(t_last_in, next_in)
            j += 1
        else:
            events.append(SampleEvent(next_out, KIND_OUT, k))
            t_out = next_out
            t_last_out = max(t_last_out, next_out)
            k += 1
    if pending_change is not None:
        raise ValueError(
            "could not place a mode-change event in an idle gap before "
            "the input stream ended; extend n_inputs or move the change"
        )
    # no outputs beyond the final input (uniform run length at all levels)

    if quantized:
        clk = params.clock_period_ps
        events = [
            SampleEvent(Fraction(-((-ev.time_ps) // clk) * clk), ev.kind,
                        ev.value)
            for ev in events
        ]

    events.sort(key=lambda ev: (ev.time_ps, _PRIORITY[ev.kind], ev.value))
    return events


def count_outputs(schedule: Iterable[SampleEvent]) -> int:
    return sum(1 for ev in schedule if ev.kind == KIND_OUT)


#: one clock cycle of stimulus ``(frame, cfg, req)``: the input frame
#: written (or None), the mode configured (or None) and whether an
#: output is requested
CycleStimulus = Tuple[Optional[Sequence[int]], Optional[int], bool]

#: a cycle with no scheduled event (:func:`clocked_stimulus` fills every
#: such cycle with this very object)
IDLE: CycleStimulus = (None, None, False)


def clocked_stimulus(params: SrcParams, schedule: Sequence[SampleEvent],
                     inputs: Sequence[Sequence[int]]
                     ) -> List[CycleStimulus]:
    """The per-cycle stimulus of a whole clocked run over *schedule*.

    Entry *t* is what the testbench drives on clock tick *t*: the frame
    ``inputs[j]`` of input event *j*, the mode of a mode event and a
    request for an output event.  The run covers every scheduled tick
    plus a drain of idle ticks -- the latency bound and eight more --
    so the slowest implementation answers the last request.

    Raises ``ValueError`` unless the schedule is clock-quantised (built
    with ``make_schedule(..., quantized=True)``).
    """
    clk = params.clock_period_ps
    ticks = []
    for ev in schedule:
        if ev.time_ps % clk:
            raise ValueError(
                "clocked runs need a clock-quantised schedule "
                "(make_schedule(..., quantized=True))")
        ticks.append(int(ev.time_ps // clk))
    drain = params.max_latency_cycles + 8
    stimulus = [IDLE] * (max(ticks, default=0) + drain + 1)
    for tick, ev in zip(ticks, schedule):
        frame, cfg, req = stimulus[tick]
        if ev.kind == KIND_IN:
            frame = inputs[ev.value]
        elif ev.kind == KIND_MODE:
            cfg = ev.value
        else:
            req = True
        stimulus[tick] = (frame, cfg, req)
    return stimulus
