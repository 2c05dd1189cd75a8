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
from repro.fi.faultload import generate_gate_faultload
from repro.gatesim import COMPILE_CACHE
from repro.native import build_cflags, toolchain_available
from repro.obs.metrics import REGISTRY
from repro.obs.trace import (disable_tracing, enable_tracing, event_mark,
                             events_since, format_stage_table)
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
    report = run_campaign(CampaignConfig(
        SMALL_PARAMS, level=level, n_faults=n_faults, seed=seed,
        budget="small", backend=engine, probe_faults=2, **wide))
    rows = [(r.fault.index, r.outcome, r.first_frame, r.detected_cycle,
             r.n_outputs) for r in report.records]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == \
        PINNED_RECORDS[campaign]


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
    an FI overlay builds with (``-O0`` unless ``$REPRO_NATIVE_CFLAGS``
    overrides, as the sanitizer CI job does)."""
    if not toolchain_available():
        pytest.skip("no C toolchain")
    monkeypatch.setenv("REPRO_NATIVE_CACHE_DIR", str(tmp_path))
    COMPILE_CACHE.clear()
    flags = " ".join(build_cflags(len(make_workload(
        SMALL_PARAMS, 0, "smoke").waveform)))
    assert flags == " ".join(
        os.environ.get("REPRO_NATIVE_CFLAGS", "-O0").split())
    return flags


def test_native_overlay_builds_once_for_its_run(cold_native,
                                                rtl_opt_netlist):
    """One native batch is one build at the short-run flags, and its
    records equal the compiled engine's."""
    workload = make_workload(SMALL_PARAMS, 11, "smoke")
    faults = generate_gate_faultload(rtl_opt_netlist, 12, 11,
                                     workload.cycle_budget)
    builds = REGISTRY.counter("repro_native_builds_total",
                              cflags=cold_native)
    before = builds.value
    native = run_gate_batch(rtl_opt_netlist, workload, faults,
                            SMALL_PARAMS, backend="native")
    assert builds.value == before + 1
    compiled = run_gate_batch(rtl_opt_netlist, workload, faults,
                              SMALL_PARAMS, backend="compiled")
    assert [r.as_dict() for r in native] == \
        [r.as_dict() for r in compiled]


def test_native_self_check_runs_on_native(cold_native):
    """``--self-check`` of a native campaign classifies its two faults
    on the native engine: one overlay, one build."""
    builds = REGISTRY.counter("repro_native_builds_total",
                              cflags=cold_native)
    before = builds.value
    result = run_fi_self_check(dataclasses.replace(SMOKE, backend="native"))
    assert result.passed
    assert builds.value == before + 1


def test_traced_cold_native_campaign_spans_every_cc(cold_native):
    """Each overlay batch's compile is a ``native.cc`` span under its
    ``fi.batch``, listed in the stage table and counted in seconds."""
    seconds = REGISTRY.counter("repro_native_build_seconds_total",
                               cflags=cold_native)
    before = seconds.value
    enable_tracing()
    try:
        mark = event_mark()
        run_campaign(CampaignConfig(
            params=SMALL_PARAMS, level="gate", backend="native",
            n_faults=8, batch_size=4, jobs=1, seed=13, budget="smoke",
            probe_faults=2))
        events = events_since(mark)
    finally:
        disable_tracing()
    batches = {e["args"]["span_id"] for e in events
               if e["name"] == "fi.batch"}
    cc = [e for e in events if e["name"] == "native.cc"]
    assert len(batches) == len(cc) == 2
    for event in cc:
        assert event["args"]["parent_id"] in batches
        assert event["args"]["cflags"] == cold_native
        assert event["args"]["tag"] == "gate"
        assert event["args"]["source_bytes"] > 0
    assert "native.cc" in format_stage_table(events)
    assert seconds.value > before


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
