"""verify-smoke: the differential harness runs on every tier-1 pass.

Keeps the standing correctness gate itself gated: a small-budget
end-to-end run over the main levels (both engines) must stay clean, and
the mutation self-check must still catch an injected netlist bug and
shrink it to a short counterexample.  Budgeted to finish well under the
30 s target on a cold compile cache.
"""

import json
import os

from repro.flow import write_verify_artifacts
from repro.verify import (VerifyConfig, run_self_check, run_verify)


def test_verify_smoke_clean_on_head():
    config = VerifyConfig(levels="alg,tlm,beh,rtl,gate", backend="both",
                          seed=0, budget="smoke")
    report = run_verify(config)
    assert report.passed, report.format()
    # every requested level was diffed on every case (alg is the golden)
    keys = {d.spec.key for r in report.case_reports for d in r.diffs}
    assert keys == {"tlm_refined",
                    "beh_opt/interpreted", "beh_opt/compiled",
                    "rtl_opt/interpreted", "rtl_opt/compiled",
                    "gate_rtl/interpreted", "gate_rtl/compiled"}
    # coverage was actually collected
    assert report.input_coverage.n_frames > 0
    assert report.input_coverage.fraction > 0.2
    assert report.toggle_coverage.fraction() > 0.5


def test_verify_smoke_self_check_catches_mutation():
    config = VerifyConfig(backend="compiled", seed=0, budget="smoke")
    report = run_self_check(config)
    assert report.caught, report.format()
    assert report.mutation is not None
    shrink = report.failure.shrink
    assert shrink is not None
    assert shrink.n_frames <= 32
    divergence = shrink.evidence.divergence
    assert divergence is not None
    assert divergence.signal in ("out_l", "out_r", "length")
    assert divergence.frame >= 0
    # gate-level DUT: the divergence is localised to a clock cycle
    assert divergence.cycle is not None


def test_self_check_runs_every_engine_of_a_group():
    report = run_self_check(VerifyConfig(backend="both", seed=0,
                                         budget="smoke"))
    assert report.caught, report.format()
    diffs = report.failure.case_report.diffs
    assert {d.spec.key for d in diffs} == {"gate_rtl/interpreted",
                                           "gate_rtl/compiled"}
    assert all(d.error is None for d in diffs), report.format()


def test_self_check_crashing_harness_is_not_a_catch(monkeypatch):
    from repro.gatesim.compiled import CompiledGateSimulator

    def broken(self, *args):
        raise RuntimeError("harness bug")

    # verify drives a clocked DUT through replay, FI through step
    monkeypatch.setattr(CompiledGateSimulator, "step", broken)
    monkeypatch.setattr(CompiledGateSimulator, "replay", broken)
    report = run_self_check(VerifyConfig(backend="compiled", seed=0,
                                         budget="smoke"))
    assert not report.caught
    assert report.baseline_failure is not None
    assert "harness itself is broken" in report.format()


def test_verify_artifacts_written(tmp_path):
    config = VerifyConfig(levels="rtl", backend="compiled", seed=1,
                          budget="smoke")
    report = run_verify(config)
    index = write_verify_artifacts(report, str(tmp_path))
    names = {os.path.basename(p) for p in index.files}
    assert {"verify_report.txt", "coverage.json", "INDEX.txt"} <= names
    with open(tmp_path / "coverage.json", encoding="utf-8") as fh:
        coverage = json.load(fh)
    assert coverage["input"]["n_frames"] > 0
    assert 0.0 < coverage["toggle"]["fraction"] <= 1.0
