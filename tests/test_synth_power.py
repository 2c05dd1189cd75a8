"""Toggle-based power estimation on gate-level simulations."""

import pytest

from repro.gatesim import GateSimulator
from repro.rtl import Const, Mux, Ref, RtlModule, Slice
from repro.src_design import RtlDutDriver, clocked_stimulus, make_schedule
from repro.synth import map_to_gates, synthesize
from repro.synth.power import PowerReport, ToggleMonitor, estimate_power
from tests.conftest import stereo_sine


def toggling_counter(width=8):
    m = RtlModule("cnt")
    en = m.input("en", 1)
    r = m.register("r", width, init=0)
    m.set_next(r, Mux(en, Slice(r + Const(width, 1), width - 1, 0), r))
    m.output("q", r)
    return m


def run_monitored(module, en, cycles=64):
    sim = GateSimulator(map_to_gates(module))
    monitor = ToggleMonitor(sim)
    sim.set_input("en", en)
    for _ in range(cycles):
        sim.step()
        monitor.sample()
    return sim, monitor


def test_idle_design_has_no_switching():
    sim, monitor = run_monitored(toggling_counter(), en=0)
    assert monitor.total_toggles == 0
    report = estimate_power(sim.netlist, monitor, clock_ns=40.0)
    assert report.switching_uw == 0.0
    assert report.leakage_uw > 0.0  # leakage is always there
    assert report.clock_uw > 0.0


def test_active_design_switches():
    _sim, idle = run_monitored(toggling_counter(), en=0)
    sim, busy = run_monitored(toggling_counter(), en=1)
    assert busy.total_toggles > 0
    assert busy.activity_factor() > idle.activity_factor()
    report = estimate_power(sim.netlist, busy, clock_ns=40.0)
    assert report.total_uw > report.leakage_uw
    assert "switching" in report.format()


def test_lsb_toggles_most():
    """Counter bit 0 flips every cycle -- its flop dominates toggles."""
    sim, monitor = run_monitored(toggling_counter(), en=1, cycles=32)
    # find the flop driving q[0]
    q0 = sim.netlist.outputs["q"][0]
    idx = monitor._watched.index(q0.uid)
    assert monitor.toggles[idx] == 32  # toggles every cycle


def test_power_scales_with_activity():
    sim_slow, m_slow = run_monitored(toggling_counter(), en=1, cycles=16)
    r_slow = estimate_power(sim_slow.netlist, m_slow, clock_ns=40.0)
    # same cycles at a faster clock -> higher power
    r_fast = estimate_power(sim_slow.netlist, m_slow, clock_ns=10.0)
    assert r_fast.switching_uw == pytest.approx(4 * r_slow.switching_uw)


def test_no_cycles_rejected():
    sim = GateSimulator(map_to_gates(toggling_counter()))
    monitor = ToggleMonitor(sim)
    with pytest.raises(ValueError):
        estimate_power(sim.netlist, monitor, clock_ns=40.0)


def test_src_power_estimate(small_params, rtl_opt_netlist):
    """Power of the real SRC over a realistic workload."""
    p = small_params
    stim = stereo_sine(p, 30)
    sched = make_schedule(p, 0, 30, quantized=True)
    sim = GateSimulator(rtl_opt_netlist)
    monitor = ToggleMonitor(sim)
    driver = RtlDutDriver(sim, p)

    for frame, cfg, req in clocked_stimulus(p, sched, stim):
        driver.cycle(frame=frame, cfg=cfg, req=req)
        monitor.sample()

    report = estimate_power(rtl_opt_netlist, monitor,
                            clock_ns=p.clock_period_ps / 1000.0)
    assert report.total_uw > 0
    # the SRC idles most of the time between samples: low activity
    assert 0.0 < monitor.activity_factor() < 0.5


# ------------------------------------------------------------- statistics
def test_netlist_stats_of_src(small_params, rtl_opt_netlist):
    from repro.synth import netlist_stats

    stats = netlist_stats(rtl_opt_netlist)
    assert stats.cell_count == len(rtl_opt_netlist.cells)
    assert stats.flop_count == len(rtl_opt_netlist.flops())
    assert stats.max_logic_depth >= 5       # multiplier + accumulator
    assert 0 < stats.mean_logic_depth <= stats.max_logic_depth
    assert stats.max_fanout >= 2
    assert sum(stats.depth_histogram.values()) > 0
    assert "logic depth" in stats.format()


def test_netlist_stats_shallow_design():
    from repro.rtl import Const, Ref, RtlModule
    from repro.synth import map_to_gates, netlist_stats

    m = RtlModule("shallow")
    a = m.input("a", 4)
    b = m.input("b", 4)
    m.output("y", a & b)
    stats = netlist_stats(map_to_gates(m))
    assert stats.max_logic_depth == 1
    assert stats.flop_count == 0
