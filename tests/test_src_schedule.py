"""Event schedules: ordering, rates, quantisation, mode placement, and
their per-cycle form for the clocked levels."""

from fractions import Fraction

import pytest

from repro.src_design import (KIND_IN, KIND_MODE, KIND_OUT, SMALL_PARAMS,
                              PAPER_PARAMS, clocked_stimulus, count_outputs,
                              make_schedule)
from repro.src_design.schedule import IDLE
from repro.verify.stimulus import generate_cases


def test_schedule_sorted_with_priorities():
    p = SMALL_PARAMS
    sched = make_schedule(p, 0, 50)
    times = [(e.time_ps, {"mode": 0, "in": 1, "out": 2}[e.kind])
             for e in sched]
    assert times == sorted(times)


def test_first_event_is_initial_mode():
    sched = make_schedule(SMALL_PARAMS, 1, 10)
    assert sched[0].kind == KIND_MODE
    assert sched[0].value == 1
    assert sched[0].time_ps == 0


def test_input_rate_is_exact():
    p = PAPER_PARAMS
    sched = make_schedule(p, 0, 5)
    ins = [e for e in sched if e.kind == KIND_IN]
    period = Fraction(10 ** 12, 44100)
    for j, ev in enumerate(ins):
        assert ev.time_ps == (j + 1) * period
        assert ev.value == j


def test_output_count_matches_ratio():
    p = PAPER_PARAMS
    n = 441
    sched = make_schedule(p, 0, n)
    # 44.1k in -> 48k out: roughly 480 outputs per 441 inputs
    assert abs(count_outputs(sched) - 480) <= 2


def test_downsampling_yields_fewer_outputs():
    p = PAPER_PARAMS
    sched = make_schedule(p, 1, 480)
    assert count_outputs(sched) < 480


def test_no_outputs_after_last_input():
    sched = make_schedule(SMALL_PARAMS, 0, 30)
    last_in = max(e.time_ps for e in sched if e.kind == KIND_IN)
    outs = [e for e in sched if e.kind == KIND_OUT]
    assert all(e.time_ps <= last_in for e in outs)


def test_quantized_times_are_clock_multiples():
    p = SMALL_PARAMS
    sched = make_schedule(p, 0, 30, quantized=True)
    assert all(e.time_ps % p.clock_period_ps == 0 for e in sched)
    ticks = [e.time_ps // p.clock_period_ps for e in sched]
    assert ticks == sorted(ticks)
    stimulus = clocked_stimulus(p, sched, [(j, -j) for j in range(30)])
    frames = [frame for frame, _, _ in stimulus if frame is not None]
    assert frames == [(j, -j) for j in range(30)]  # in schedule order


def test_quantization_never_moves_events_earlier():
    p = SMALL_PARAMS
    exact = make_schedule(p, 0, 30)
    quant = make_schedule(p, 0, 30, quantized=True)
    ex = {(e.kind, e.value): e.time_ps for e in exact}
    qu = {(e.kind, e.value): e.time_ps for e in quant}
    for key in ex:
        assert qu[key] >= ex[key]
        assert qu[key] - ex[key] < p.clock_period_ps


def test_unquantized_schedule_rejected_for_ticks():
    p = SMALL_PARAMS
    sched = make_schedule(p, 0, 10)
    with pytest.raises(ValueError):
        clocked_stimulus(p, sched, [(0, 0)] * 10)


def _stimulus_cases():
    """Fuzz cases of every stimulus kind, with and without a mode
    change, over their quantised schedules."""
    p = SMALL_PARAMS
    for n_inputs in (8, 96):  # a mode change needs 96 inputs
        for case in generate_cases(p, 11, 6, n_inputs):
            sched = make_schedule(p, case.mode, case.n_inputs,
                                  quantized=True,
                                  mode_changes=case.mode_changes)
            yield case, sched, clocked_stimulus(p, sched, case.inputs)


def test_stimulus_cases_include_mode_changes():
    changes = [case.mode_changes for case, _, _ in _stimulus_cases()]
    assert any(changes) and not all(changes)


def test_stimulus_holds_one_entry_per_event_on_its_tick():
    clk = SMALL_PARAMS.clock_period_ps
    for case, sched, stimulus in _stimulus_cases():
        want = {}
        for ev in sched:
            want.setdefault(int(ev.time_ps // clk), []).append(ev)
        for tick, (frame, cfg, req) in enumerate(stimulus):
            events = want.get(tick, [])
            ins = [ev.value for ev in events if ev.kind == KIND_IN]
            modes = [ev.value for ev in events if ev.kind == KIND_MODE]
            outs = [ev for ev in events if ev.kind == KIND_OUT]
            assert len(ins) <= 1 and len(modes) <= 1 and len(outs) <= 1
            assert frame == (case.inputs[ins[0]] if ins else None), case
            assert cfg == (modes[0] if modes else None), case
            assert req == bool(outs), case
        n_frames = sum(frame is not None for frame, _, _ in stimulus)
        n_cfgs = sum(cfg is not None for _, cfg, _ in stimulus)
        n_reqs = sum(req for _, _, req in stimulus)
        assert n_frames == case.n_inputs
        assert n_cfgs == 1 + len(case.mode_changes)
        assert n_reqs == count_outputs(sched)


def test_stimulus_drains_past_the_last_event():
    p = SMALL_PARAMS
    clk = p.clock_period_ps
    for _, sched, stimulus in _stimulus_cases():
        last = max(int(ev.time_ps // clk) for ev in sched)
        assert len(stimulus) == last + p.max_latency_cycles + 8 + 1
        assert stimulus[last] != IDLE
        assert all(cycle is IDLE for cycle in stimulus[last + 1:])


def test_mode_change_in_idle_gap():
    p = SMALL_PARAMS
    sched = make_schedule(p, 0, 120, mode_changes=((50, 1),))
    modes = [e for e in sched if e.kind == KIND_MODE]
    assert len(modes) == 2
    change = modes[1]
    assert change.value == 1
    guard = p.max_latency_cycles * p.clock_period_ps
    small = 4 * p.clock_period_ps
    others = sorted(e.time_ps for e in sched if e.kind != KIND_MODE)
    before = [t for t in others if t < change.time_ps]
    after = [t for t in others if t > change.time_ps]
    prev_out = max((e.time_ps for e in sched
                    if e.kind == KIND_OUT and e.time_ps < change.time_ps),
                   default=0)
    assert change.time_ps - prev_out >= guard
    assert after[0] - change.time_ps >= small


def test_rates_follow_mode_change():
    p = SMALL_PARAMS
    n = 200
    plain = make_schedule(p, 0, n)
    switched = make_schedule(p, 0, n, mode_changes=((20, 1),))
    # after switching to 48k->44.1k, inputs arrive faster: the run ends
    # earlier than the pure 44.1k->48k one
    assert switched[-1].time_ps < plain[-1].time_ps


def test_invalid_mode_rejected():
    with pytest.raises(ValueError):
        make_schedule(SMALL_PARAMS, 5, 10)
    with pytest.raises(ValueError):
        make_schedule(SMALL_PARAMS, 0, 10, mode_changes=((5, 9),))


def test_unplaceable_mode_change_raises():
    with pytest.raises(ValueError):
        # change index beyond the generated inputs can never be placed
        make_schedule(SMALL_PARAMS, 0, 10, mode_changes=((9999, 1),))
