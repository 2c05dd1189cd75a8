"""Fault-injection campaign: classification, determinism, self-check.

Smoke-budget campaigns over the synthesised SRC.  Everything here runs
in tier 1 (the ``fi`` marker is informational); the deep campaign at
the bottom additionally carries ``fuzz`` and is opt-in.
"""

import dataclasses
import hashlib
import os

import pytest

from repro.fi import (BUDGET_FRAMES, CampaignConfig, CampaignError,
                      OUTCOMES, run_campaign, run_fi_self_check)
from repro.fi import campaign
from repro.fi.campaign import make_workload, run_gate_batch
from repro.engines import ENGINES, batch_engines
from repro.fi.faultload import (generate_gate_faultload,
                                generate_rtl_faultload)
from repro.flow.refinement import Level, build_module
from repro.gatesim import COMPILE_CACHE
from repro.native import build_cflags, toolchain_available
from repro.obs.metrics import REGISTRY
from repro.obs.trace import (disable_tracing, enable_tracing, event_mark,
                             events_since, format_stage_table)
from repro.rtl import Const, RtlModule, RtlSimulator
from repro.src_design.params import SMALL_PARAMS
from tests.test_gatesim_compiled import WIDE, batch_case

pytestmark = pytest.mark.fi

SMOKE = CampaignConfig(params=SMALL_PARAMS, level="gate", n_faults=24,
                       jobs=1, seed=3, budget="smoke", probe_faults=4)


@pytest.fixture(scope="module")
def smoke_report():
    return run_campaign(SMOKE)


def _classifications(report):
    return [(r.fault.index, r.fault.model, r.fault.target,
             r.outcome) for r in report.records]


def test_every_fault_lands_in_exactly_one_class(smoke_report):
    report = smoke_report
    assert len(report.records) == SMOKE.n_faults
    assert [r.fault.index for r in report.records] == \
        list(range(SMOKE.n_faults))
    for record in report.records:
        assert record.outcome in OUTCOMES
    assert sum(report.classification.values()) == SMOKE.n_faults
    assert sum(sum(row.values()) for row in report.by_model.values()) \
        == SMOKE.n_faults


def test_report_metadata_reflects_config(smoke_report):
    report = smoke_report
    assert report.level == "gate"
    assert report.seed == SMOKE.seed
    assert report.n_workload_frames == BUDGET_FRAMES["smoke"]
    doc = report.as_dict()
    assert doc["campaign"]["n_faults"] == SMOKE.n_faults
    assert len(doc["results"]) == SMOKE.n_faults
    assert set(doc["throughput"]) == {"compiled", "interpreted"}


def test_compiled_throughput_beats_interpreted(smoke_report):
    compiled = smoke_report.throughput_of("compiled")
    interp = smoke_report.throughput_of("interpreted")
    assert compiled is not None and interp is not None
    assert compiled.faults == SMOKE.n_faults
    assert interp.faults == SMOKE.probe_faults
    # parallel-fault batching must not be slower than one-at-a-time
    # event-driven runs, even with compile time on the clock
    assert compiled.faults_per_second >= interp.faults_per_second


def test_same_seed_any_jobs_identical_classifications(smoke_report):
    COMPILE_CACHE.clear()
    pooled = run_campaign(
        CampaignConfig(params=SMALL_PARAMS, level="gate",
                       n_faults=SMOKE.n_faults, jobs=2, seed=SMOKE.seed,
                       budget="smoke", probe_faults=4, batch_size=8))
    assert _classifications(pooled) == _classifications(smoke_report)
    # worker-process cache traffic was shipped back and aggregated:
    # the overlay compilations happened in the pool, yet the parent's
    # counters (cleared above) see them
    assert pooled.cache_stats["gate"].misses > 0


def test_rtl_level_campaign(smoke_report):
    report = run_campaign(
        CampaignConfig(params=SMALL_PARAMS, level="rtl", n_faults=8,
                       jobs=1, seed=1, budget="smoke", probe_faults=2))
    assert len(report.records) == 8
    for record in report.records:
        assert record.fault.level == "rtl"
        assert record.fault.target_kind == "reg"
        assert record.outcome in OUTCOMES


def test_beh_level_campaign(smoke_report):
    """Behavioural SEU campaign: parallel-fault batching on the
    compiled FSM backend, with the interpreted probe cross-check."""
    report = run_campaign(
        CampaignConfig(params=SMALL_PARAMS, level="beh", n_faults=10,
                       jobs=1, seed=2, budget="smoke", probe_faults=3))
    assert report.level == "beh"
    assert len(report.records) == 10
    for record in report.records:
        assert record.fault.level == "beh"
        assert record.fault.model == "seu"
        assert record.fault.target_kind == "reg"
        assert record.outcome in OUTCOMES
    assert sum(report.classification.values()) == 10
    # the behavioural compile cache was exercised and reported
    assert "hls" in report.cache_stats
    assert report.cache_stats["hls"].misses >= 1
    # probe re-ran a subset on the interpreted engine and agreed
    interp = report.throughput_of("interpreted")
    assert interp is not None and interp.faults == 3


def test_beh_campaign_deterministic_across_jobs():
    kwargs = dict(params=SMALL_PARAMS, level="beh", n_faults=10, seed=2,
                  budget="smoke", probe_faults=0, batch_size=4)
    solo = run_campaign(CampaignConfig(jobs=1, **kwargs))
    pooled = run_campaign(CampaignConfig(jobs=2, **kwargs))
    assert _classifications(solo) == _classifications(pooled)


#: record digests of three campaigns; every runner replays the
#: workload's port waveform, and the behavioural DUT runs its front end
#: inside the generated FSM program.  The gate faultload holds 60 net
#: faults, 6 flop SEUs and 14 ROM and RAM SEUs (45 sdc, 35 masked).
PINNED_RECORDS = {
    ("beh", 3, 200):
        "e20f6197555626fb7a9b839cf6e8947df204d5c6b6f84a330d98ab3db759091c",
    ("rtl", 7, 64):
        "c12ac18abc373c2e0e0f743aa606fd19b4f493b0203b5833afed10c904a8d55c",
    ("gate", 7, 80):
        "5bd30fccaaf712cecdf7bb046c5a9e3b45b60ff186eed2c3badcd738dccf9a4f",
}


#: every campaign on every batch engine, and the behavioural and gate
#: faultloads as one batch each on the compiled engine (WIDE: 201 and
#: 81 patterns)
PINNED_RUNS = [pytest.param(campaign, backend,
                            id=f"{campaign[0]}-seed{campaign[1]}-{backend}")
               for campaign in PINNED_RECORDS for backend in batch_engines()]
PINNED_RUNS += [pytest.param(campaign, WIDE,
                             id=f"{campaign[0]}-seed{campaign[1]}-{WIDE}")
                for campaign in (("beh", 3, 200), ("gate", 7, 80))]


@pytest.mark.parametrize("campaign, backend", PINNED_RUNS)
def test_records_are_pinned_on_every_batch_engine(campaign, backend):
    level, seed, n_faults = campaign
    engine, _ = batch_case(backend, ())
    wide = {"batch_size": n_faults} if backend == WIDE else {}
    COMPILE_CACHE.clear()
    report = run_campaign(CampaignConfig(
        SMALL_PARAMS, level=level, n_faults=n_faults, seed=seed,
        budget="small", backend=engine, probe_faults=2, **wide))
    rows = [(r.fault.index, r.outcome, r.first_frame, r.detected_cycle,
             r.n_outputs) for r in report.records]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == \
        PINNED_RECORDS[campaign]
    if level == "gate":
        # native runs its three batches on one saboteur program;
        # compiled builds each batch's own overlay (shared_program)
        ran = report.throughput[0].backend
        batches = -(-n_faults // wide.get("batch_size", 31))
        assert report.cache_stats[f"gate[{ran}]"].misses == \
            (1 if ran == "native" else batches)


@pytest.mark.parametrize("backend", batch_engines())
def test_batches_on_one_reset_program_equal_fresh_overlays(
        backend, rtl_opt_netlist):
    """Batches run back to back on one saboteur program, its simulator
    reset in between, give the records of a fresh overlay per batch:
    after batches that end with controls still asserted (permanent
    stuck-ats) and memory cells flipped, and for a last batch shorter
    than the others.  Every input, each fault control included, is 0
    on every lane when a batch starts."""
    workload = make_workload(SMALL_PARAMS, 7, "smoke")
    faults = generate_gate_faultload(rtl_opt_netlist, 17, 7,
                                     workload.cycle_budget)
    batches = [faults[i:i + 6] for i in range(0, len(faults), 6)]
    assert [len(b) for b in batches] == [6, 6, 5]
    early = faults[:12]
    assert any(f.structural and f.permanent for f in early)
    assert any(f.target_kind == "mem" for f in early)

    program = campaign.SaboteurProgram(rtl_opt_netlist, faults, backend,
                                       7)
    inputs = program.overlay.netlist.inputs
    cleared = []
    simulator = program.simulator

    def checked_simulator():
        sim = simulator()
        cleared.append(not any(plane for name in inputs
                               for planes in sim.get_port_planes(name)
                               for plane in planes))
        return sim

    program.simulator = checked_simulator
    got = [r.as_dict() for batch in batches
           for r in run_gate_batch(rtl_opt_netlist, workload, batch,
                                   SMALL_PARAMS, backend=backend,
                                   program=program)]
    want = [r.as_dict() for batch in batches
            for r in run_gate_batch(rtl_opt_netlist, workload, batch,
                                    SMALL_PARAMS, backend=backend)]
    assert got == want
    assert cleared == [True] * len(batches)


@pytest.mark.parametrize("backend", tuple(ENGINES))
def test_rtl_faults_on_one_reused_simulator_equal_fresh_ones(backend):
    """RTL faults classified back to back on the process's one
    simulator of the module, reset in between, give the records of a
    fresh simulator per fault -- after upsets that change the output
    stream and ones the design masks."""
    module = build_module(SMALL_PARAMS, Level.RTL_OPT)
    workload = make_workload(SMALL_PARAMS, 7, "smoke")
    faults = generate_rtl_faultload(module, 24, 7, workload.cycle_budget)

    def classify(fault):
        return campaign.run_rtl_fault(module, workload, fault, SMALL_PARAMS,
                                      backend=backend).as_dict()

    campaign._WORKER.pop("rtl_sims", None)
    reused = [classify(fault) for fault in faults]
    assert campaign._rtl_simulator(module, backend) is \
        campaign._rtl_simulator(module, backend)
    fresh = []
    for fault in faults:
        campaign._WORKER.pop("rtl_sims", None)
        fresh.append(classify(fault))
    assert reused == fresh
    assert {"sdc", "masked"} <= {r["outcome"] for r in reused}


@pytest.mark.parametrize("backend", tuple(ENGINES))
def test_rtl_reset_restores_every_memory(backend):
    """``reset`` returns a ROM to its contents and a RAM to zeros."""
    m = RtlModule("mems")
    a = m.input("a", 2)
    rom = m.memory("rom", 4, 4, contents=[3, 5, 7, 9])
    ram = m.memory("ram", 4, 4)
    m.mem_write(ram, Const(1, 1), a, m.mem_read(rom, a))
    m.output("y", m.mem_read(ram, a))
    sim = RtlSimulator(m, backend=backend)
    sim.set_input("a", 2)
    sim.step()
    sim.load_memory("rom", [0, 0, 0, 0])
    assert sim.peek_memory("ram") == [0, 0, 7, 0]
    sim.reset()
    assert sim.peek_memory("rom") == [3, 5, 7, 9]
    assert sim.peek_memory("ram") == [0, 0, 0, 0]


def test_self_check_classifies_known_faults(smoke_report):
    result = run_fi_self_check(SMOKE)
    assert result.sdc_record.outcome == "sdc"
    assert result.masked_record.outcome == "masked"
    assert result.passed
    assert "PASS" in result.format()


def test_probe_compares_whole_records(monkeypatch):
    """A probe record that differs from the main run's in any field,
    not only in its outcome, aborts the campaign and names the field."""
    one_fault = campaign.run_gate_fault_scalar

    def miscounted(*args, **kwargs):
        record = one_fault(*args, **kwargs)
        return dataclasses.replace(record, n_outputs=record.n_outputs + 1)

    monkeypatch.setattr(campaign, "run_gate_fault_scalar", miscounted)
    with pytest.raises(CampaignError, match="interpreted says n_outputs="):
        run_campaign(dataclasses.replace(SMOKE, n_faults=4, probe_faults=2))


def test_probe_indices_spread_over_the_faultload():
    assert campaign.probe_indices(62, 16) == [
        0, 4, 8, 12, 16, 20, 24, 28, 32, 36, 40, 44, 48, 52, 56, 61]
    assert campaign.probe_indices(24, 4) == [0, 7, 15, 23]
    assert campaign.probe_indices(24, 2) == [0, 23]
    assert campaign.probe_indices(24, 1) == [0]
    assert campaign.probe_indices(24, 0) == []
    assert campaign.probe_indices(3, 16) == [0, 1, 2]
    assert campaign.probe_indices(0, 16) == []


def test_probe_catches_a_leftover_in_a_later_batchs_high_lanes(
        monkeypatch):
    """A reused native simulator that keeps lanes 17 and up as the last
    batch left them -- inputs (fault controls included), flops and
    memories -- corrupts only those lanes of later batches: lane 0's
    golden check passes, and so does a probe of the leading faults,
    which all sit in the first batch.  The probe spread across the
    faultload compares records of the second batch's high lanes."""
    if not toolchain_available():
        pytest.skip("no C toolchain")
    reuse = campaign.SaboteurProgram.simulator

    def leftover(self):
        sim = self._sim
        if sim is None:
            return reuse(self)
        high = sim._mask & ~((1 << 17) - 1)
        state = [(j, sim._v1_v[j] & high, sim._vx_v[j] & high)
                 for j in range(sim._n_state)]
        lo = 17 * sim.program.mem_words
        memory = sim._mem_v[lo:].tolist()
        reuse(self)
        for j, ones, unknowns in state:
            sim._v1_v[j] = sim._v1_v[j] & ~high | ones
            sim._vx_v[j] = sim._vx_v[j] & ~high | unknowns
        for i, word in enumerate(memory, lo):
            sim._mem_v[i] = word
        sim._dirty = True
        return sim

    monkeypatch.setattr(campaign.SaboteurProgram, "simulator", leftover)
    config = CampaignConfig(params=SMALL_PARAMS, level="gate",
                            backend="native", n_faults=62, jobs=1, seed=3,
                            budget="smoke", probe_faults=16)
    # faults 47..61 ride lanes 17..31 of the second batch
    with pytest.raises(CampaignError,
                       match=r"engines disagree on #(4[7-9]|5\d|6[01]) "):
        run_campaign(config)
    monkeypatch.setattr(campaign, "probe_indices",
                        lambda n, k: list(range(min(n, k))))
    run_campaign(config)


ISOLATED = CampaignConfig(params=SMALL_PARAMS, level="gate", n_faults=6,
                          seed=3, budget="smoke", probe_faults=0,
                          batch_size=3)


def _failing_batch(error):
    def batch(*args, **kwargs):
        raise error("the whole batch failed")
    return batch


def test_failed_batch_is_isolated_fault_by_fault(monkeypatch):
    """A batch that raises is re-run one fault per simulation, with the
    records the batch would have given."""
    want = [r.as_dict() for r in run_campaign(ISOLATED).records]
    monkeypatch.setattr(campaign, "run_gate_batch",
                        _failing_batch(RuntimeError))
    got = [r.as_dict() for r in run_campaign(ISOLATED).records]
    assert got == want


def test_harness_error_in_a_batch_is_not_isolated(monkeypatch):
    monkeypatch.setattr(campaign, "run_gate_batch",
                        _failing_batch(CampaignError))
    with pytest.raises(CampaignError, match="the whole batch failed"):
        run_campaign(ISOLATED)


def test_config_validation_rejects_nonsense():
    with pytest.raises(CampaignError):
        CampaignConfig(params=SMALL_PARAMS, level="netlist").validated()
    with pytest.raises(CampaignError):
        CampaignConfig(params=SMALL_PARAMS, budget="huge").validated()
    with pytest.raises(CampaignError):
        CampaignConfig(params=SMALL_PARAMS, n_faults=0).validated()
    with pytest.raises(CampaignError):  # FI classifies on batch engines
        CampaignConfig(params=SMALL_PARAMS, backend="interpreted").validated()
    # native packs gate patterns into one 64-bit word: 70 faults plus
    # the fault-free pattern do not fit, so the batch cannot run native
    with pytest.raises(CampaignError):
        CampaignConfig(params=SMALL_PARAMS, level="gate", backend="native",
                       n_faults=70, batch_size=70,
                       budget="smoke").validated()


def test_batch_width_follows_the_engine_table():
    for level, backend, batch_size in (("gate", "native", 63),
                                       ("gate", "compiled", 200),
                                       ("rtl", "native", 70)):
        CampaignConfig(params=SMALL_PARAMS, level=level, backend=backend,
                       batch_size=batch_size).validated()
    assert ENGINES["native"].batches("beh")
    assert ENGINES["compiled"].batches("gate")
    # no RTL batch on any engine: one fault per simulation
    assert not ENGINES["compiled"].batches("rtl")
    assert not ENGINES["native"].batches("rtl")


@pytest.fixture
def cold_native(tmp_path, monkeypatch):
    """An empty ``.so`` cache and in-process compile cache; the flags
    every build uses (``-O2`` unless ``$REPRO_NATIVE_CFLAGS`` overrides,
    as the sanitizer CI job does)."""
    if not toolchain_available():
        pytest.skip("no C toolchain")
    monkeypatch.setenv("REPRO_NATIVE_CACHE_DIR", str(tmp_path))
    COMPILE_CACHE.clear()
    flags = " ".join(build_cflags())
    assert flags == " ".join(
        os.environ.get("REPRO_NATIVE_CFLAGS", "-O2").split())
    return flags


def test_native_overlay_builds_once_for_its_run(cold_native,
                                                rtl_opt_netlist):
    """A native batch builds the kernel once; a second batch with
    another overlay is a second table on it and builds nothing; the
    records equal the compiled engine's."""
    workload = make_workload(SMALL_PARAMS, 11, "smoke")
    faults = generate_gate_faultload(rtl_opt_netlist, 24, 11,
                                     workload.cycle_budget)
    builds = REGISTRY.counter("repro_native_builds_total",
                              cflags=cold_native)
    before = builds.value
    for batch in (faults[:12], faults[12:]):
        native = run_gate_batch(rtl_opt_netlist, workload, batch,
                                SMALL_PARAMS, backend="native")
        assert builds.value == before + 1
        compiled = run_gate_batch(rtl_opt_netlist, workload, batch,
                                  SMALL_PARAMS, backend="compiled")
        assert [r.as_dict() for r in native] == \
            [r.as_dict() for r in compiled]
    assert COMPILE_CACHE.stats_by_backend["native"].misses == 2


def test_native_self_check_runs_on_native(cold_native):
    """``--self-check`` of a native campaign classifies its two faults
    on the native engine: one overlay, a table on the kernel, which a
    cold cache builds once and a campaign's cache already holds."""
    builds = REGISTRY.counter("repro_native_builds_total",
                              cflags=cold_native)
    config = dataclasses.replace(SMOKE, backend="native")
    before = builds.value
    assert run_fi_self_check(config).passed
    assert builds.value == before + 1
    COMPILE_CACHE.clear()
    run_campaign(config)
    assert run_fi_self_check(config).passed
    assert builds.value == before + 1


def test_traced_cold_native_campaign_spans_every_cc(cold_native):
    """A cold campaign's one ``cc`` is the kernel's: a ``native.cc``
    span under ``fi.campaign``, listed in the stage table, carrying the
    child's CPU seconds and counting them, in the counter and in the
    native throughput row."""
    seconds = REGISTRY.counter("repro_native_build_seconds_total",
                               cflags=cold_native)
    before = seconds.value
    enable_tracing()
    try:
        mark = event_mark()
        report = run_campaign(CampaignConfig(
            params=SMALL_PARAMS, level="gate", backend="native",
            n_faults=8, batch_size=4, jobs=1, seed=13, budget="smoke",
            probe_faults=2))
        events = events_since(mark)
    finally:
        disable_tracing()
    named = {}
    for event in events:
        named.setdefault(event["name"], []).append(event)
    assert len(named["fi.batch"]) == 2
    (cc,) = named["native.cc"]
    (outer,) = named["fi.campaign"]
    assert cc["args"]["parent_id"] == outer["args"]["span_id"]
    assert outer["ts"] <= cc["ts"]
    assert cc["ts"] + cc["dur"] <= outer["ts"] + outer["dur"]
    assert cc["args"]["cflags"] == cold_native
    assert cc["args"]["tag"] == "gate"
    assert cc["args"]["source_bytes"] > 0
    assert 0 < cc["args"]["cpu_s"]
    assert "native.cc" in format_stage_table(events)
    assert seconds.value == pytest.approx(before + cc["args"]["cpu_s"],
                                          abs=1e-5)
    assert report.throughput_of("native").wall_seconds > \
        cc["args"]["cpu_s"]


@pytest.mark.fuzz
def test_deep_campaign_small_budget():
    report = run_campaign(
        CampaignConfig(params=SMALL_PARAMS, level="gate", n_faults=200,
                       jobs=4, seed=7, budget="small"))
    assert len(report.records) == 200
    assert sum(report.classification.values()) == 200
    compiled = report.throughput_of("compiled")
    interp = report.throughput_of("interpreted")
    assert compiled.faults_per_second >= interp.faults_per_second
