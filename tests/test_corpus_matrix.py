"""The corpus matrix runner end to end, at smoke scale.

One real run of ``run_corpus`` over a two-member slice (one SRC
variant, one counter) checks the whole generate -> refine -> verify ->
synthesize -> inject pipeline plus report aggregation.  The
paper-scale six-design acceptance run (including the harden
improvement claim) is the opt-in ``fuzz``-marked test at the bottom --
CI runs the same slice through the CLI instead.
"""

import dataclasses

import pytest

from repro.compile_cache import aggregate_stats, iter_caches
from repro.corpus import (CORPUS_BUDGETS, CORPUS_LEVELS, CorpusConfig,
                          CorpusError, ENGINES, run_corpus)

SMOKE = CorpusConfig(seed=0, n_designs=2, budget="smoke")


@pytest.fixture(scope="module")
def smoke_report():
    return run_corpus(SMOKE)


def test_smoke_matrix_passes(smoke_report):
    assert smoke_report.passed
    assert len(smoke_report.rows) == SMOKE.n_designs
    assert [r["kind"] for r in smoke_report.rows] == ["src", "counter"]


def test_smoke_rows_are_complete(smoke_report):
    budget = CORPUS_BUDGETS[SMOKE.budget]
    checks_per_design = len(CORPUS_LEVELS) * len(ENGINES)
    for row in smoke_report.rows:
        assert row["refine"]["pass"], row["name"]
        assert row["verify"]["pass"] and not row["verify"]["failures"]
        assert row["verify"]["checks"] == checks_per_design
        assert len(row["digest"]) == 64
        assert row["netlist_hash"]
        assert row["fi"]["n_faults"] == budget.n_faults
        assert row["synth"]["area_total"] > 0
        assert 0.0 < row["coverage"]["fraction"] <= 1.0
        if row["harden"] is not None:
            harden = row["harden"]
            assert harden["n_flops"] > row["synth"]["n_flops"]
            assert harden["area_total"] > row["synth"]["area_total"]
            assert len(harden["targets"]) <= budget.harden_top


def test_pooled_run_counts_its_workers_compiles(smoke_report):
    """A ``jobs=2`` run's workers compile every engine; their counts
    come back with their rows, so the parent's compile-cache stats show
    per-backend misses.  The rows equal the in-process run's."""
    for _, cache in iter_caches():
        cache.clear()
    report = run_corpus(dataclasses.replace(SMOKE, jobs=2))
    assert report.rows == smoke_report.rows
    stats = aggregate_stats()
    for label, _ in iter_caches():
        assert stats[f"{label}[compiled]"].misses > 0, label


def test_smoke_summary_consistent_with_rows(smoke_report):
    summary = smoke_report.summary()
    assert summary["n_designs"] == len(smoke_report.rows)
    assert summary["refine_pass"] == summary["n_designs"]
    assert summary["verify_failures"] == 0
    assert summary["total_faults"] == sum(
        r["fi"]["n_faults"] for r in smoke_report.rows)
    doc = smoke_report.as_dict()
    assert set(doc) == {"corpus", "designs", "summary"}
    assert doc["summary"] == summary
    assert doc["corpus"]["budget"] == "smoke"
    formatted = smoke_report.format()
    for row in smoke_report.rows:
        assert row["name"] in formatted
    assert "equivalence checks" in formatted


def test_unknown_budget_rejected():
    with pytest.raises(CorpusError):
        run_corpus(CorpusConfig(budget="galactic"))


def test_backend_without_gate_batch_rejected_at_config():
    # the backend runs the fault batches: rejected before any design runs
    for backend in ("interpreted", "bogus"):
        with pytest.raises(CorpusError):
            CorpusConfig(backend=backend)


def test_hardened_divergence_fails_the_reverify(monkeypatch):
    """The re-injection's fault-free pattern 0 is the hardened
    netlist's re-verify: a divergence there is reported as such."""
    from repro.corpus import generate_corpus, matrix, run_design

    spec = generate_corpus(0, 2, n_frames=8, n_tx=5)[1]  # counter: hardened
    real = matrix.run_design_campaign
    calls = []

    def reinject_against_a_wrong_golden(netlist, waveform, golden, *args,
                                        **kwargs):
        calls.append(netlist.name)
        if len(calls) == 2:  # the re-injection into the hardened netlist
            golden = [tuple(v ^ 1 for v in golden[0])] + list(golden[1:])
        return real(netlist, waveform, golden, *args, **kwargs)

    monkeypatch.setattr(matrix, "run_design_campaign",
                        reinject_against_a_wrong_golden)
    with pytest.raises(CorpusError, match="fault-free re-verify"):
        run_design(spec, SMOKE)
    assert len(calls) == 2


@pytest.mark.slow
@pytest.mark.fuzz
def test_acceptance_scale_run_improves_robustness():
    """The ISSUE acceptance criterion, opt-in: six designs at the
    small budget, zero equivalence failures, and hardening reduces the
    SDC rate (at an area cost) for at least one design."""
    report = run_corpus(CorpusConfig(seed=0, n_designs=6,
                                     budget="small", jobs=2))
    assert report.passed
    summary = report.summary()
    assert summary["verify_failures"] == 0
    assert summary["improved"] >= 1
    for row in report.rows:
        if row["harden"] is not None and row["harden"]["improved"]:
            assert row["harden"]["area_total"] > \
                row["synth"]["area_total"]
            break
