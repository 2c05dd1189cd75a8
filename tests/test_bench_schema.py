"""Regression lock on the checked-in benchmark JSON schema.

``BENCH_fig08.json``, ``BENCH_fig09.json``, ``BENCH_fi.json`` and
``BENCH_corpus.json`` are consumed by external plotting and by later
changes -- any field rename or restructure is a silent breaking
change.  These tests pin the shape
(and a few semantic invariants) of the recorded data.
"""

import pytest

from tests.schema_lock import (BACKENDS, BATCH_BACKENDS,
                               CORPUS_RATE_KEYS, FI_MODELS, FI_OUTCOMES,
                               FI_RESULT_KEYS, HOST_KEYS, check_fi_rates,
                               check_result_rows, load_bench)

#: toolchain-identity block the BENCH writers record since the native
#: engine landed -- pins whether native rows were actually compiled
TOOLCHAIN_KEYS = {"available", "compiler", "loader", "cflags",
                  "schema_version"}


def _check_provenance(doc):
    """The host and toolchain blocks every BENCH document records.
    Returns whether the recording host compiled the native rows (when
    it did not, they degrade to compiled rows)."""
    assert set(doc["host"]) == HOST_KEYS
    assert doc["host"]["cpu_count"] >= 1
    assert set(doc["toolchain"]) == TOOLCHAIN_KEYS
    return bool(doc["toolchain"]["available"])


def _check_bench_meta(doc):
    """The provenance blocks plus the best-of-N count both BENCH
    figure documents carry; returns :func:`_check_provenance`'s."""
    assert doc["best_of"] >= 3
    return _check_provenance(doc)


def test_fig08_schema():
    doc = load_bench("BENCH_fig08.json")
    assert set(doc) == {"results", "host", "best_of", "toolchain"}
    native_recorded = _check_bench_meta(doc)
    check_result_rows(doc["results"])
    levels = {r["level"] for r in doc["results"]}
    assert levels == {"C++", "SystemC", "BEH", "RTL", "BEH/latency"}
    # the clocked levels are measured on interpreted + compiled
    for level in ("BEH", "RTL"):
        backends = {r["backend"] for r in doc["results"]
                    if r["level"] == level}
        assert {"interpreted", "compiled"} <= backends, level
    beh_backends = {r["backend"] for r in doc["results"]
                    if r["level"] == "BEH"}
    # single-pattern latency rows: compiled always, native whenever the
    # recording host had a C toolchain (else its row degrades to a
    # second compiled sample)
    lat_backends = {r["backend"] for r in doc["results"]
                    if r["level"] == "BEH/latency"}
    assert "compiled" in lat_backends
    assert lat_backends <= {"compiled", "native"}
    for row in doc["results"]:
        if row["level"] == "BEH/latency":
            assert row["n_patterns"] == 1
    if native_recorded:
        assert "native" in beh_backends
        assert "native" in lat_backends


def test_fig08_preserves_paper_ordering():
    """The paper's Figure 8 trend: each refinement costs simulation
    speed (C++ > SystemC > BEH > RTL, per backend)."""
    doc = load_bench("BENCH_fig08.json")
    speed = {(r["level"], r["backend"]): r["cycles_per_second"]
             for r in doc["results"] if r["n_patterns"] == 1}
    assert speed[("C++", "interpreted")] > speed[("SystemC", "interpreted")]
    assert speed[("SystemC", "interpreted")] > speed[("BEH", "interpreted")]
    assert speed[("BEH", "interpreted")] > speed[("RTL", "interpreted")]


def test_fig08_compiled_beats_interpreted_in_recorded_data():
    """Per clocked level, the generated-code engine never loses to the
    interpreter, and the batch-parallel compiled behavioural row
    clears the compiled tentpole's headline (>= 10x the interpreted
    BEH row at 64 patterns)."""
    doc = load_bench("BENCH_fig08.json")
    speed = {(r["level"], r["backend"], r["n_patterns"]):
             r["cycles_per_second"] for r in doc["results"]}
    for level in ("BEH", "RTL"):
        assert speed[(level, "compiled", 1)] \
            >= speed[(level, "interpreted", 1)], level
    batch = {r["backend"]: r for r in doc["results"]
             if r["level"] == "BEH" and r["n_patterns"] > 1}
    assert "compiled" in batch and set(batch) <= BATCH_BACKENDS
    assert batch["compiled"]["n_patterns"] >= 64
    assert batch["compiled"]["cycles_per_second"] \
        >= 10 * speed[("BEH", "interpreted", 1)]
    # the native tier's recorded headline: its C batch row never loses
    # to the compiled batch row (only present when the recording host
    # had a toolchain; latency rows stay unasserted -- the FFI call
    # floor dominates single-pattern work)
    if doc["toolchain"]["available"]:
        assert batch["native"]["n_patterns"] >= 64
        assert batch["native"]["cycles_per_second"] \
            >= batch["compiled"]["cycles_per_second"]


def test_fig09_schema():
    doc = load_bench("BENCH_fig09.json")
    assert set(doc) == {"beh_speedup", "gate_speedup",
                        "gate_speedup_native", "n_patterns",
                        "results", "host", "best_of", "toolchain"}
    native_recorded = _check_bench_meta(doc)
    check_result_rows(doc["results"])
    assert set(doc["gate_speedup"]) == {"Gate-BEH", "Gate-RTL"}
    for value in doc["gate_speedup"].values():
        assert value > 1.0  # compiled beat interpreted when recorded
    assert set(doc["gate_speedup_native"]) == {"Gate-BEH", "Gate-RTL"}
    if native_recorded:
        for value in doc["gate_speedup_native"].values():
            assert value >= 1.0  # native never loses to compiled batch
    assert doc["beh_speedup"] > 1.0
    assert doc["n_patterns"] >= 1
    throughput = [r for r in doc["results"]
                  if r["level"].endswith("/throughput")]
    levels = {r["level"] for r in throughput}
    assert levels == {"BEH/throughput", "Gate-BEH/throughput",
                      "Gate-RTL/throughput"}
    for level in levels:
        backends = {r["backend"] for r in throughput
                    if r["level"] == level}
        if native_recorded:
            assert backends == BACKENDS, level
        else:
            # the native row degrades to a second compiled sample
            assert {"interpreted", "compiled"} <= backends <= BACKENDS, \
                level
    for row in throughput:
        if row["backend"] in BATCH_BACKENDS:
            assert row["n_patterns"] == doc["n_patterns"]
    # single-pattern latency rows at every clocked level, compiled
    # always plus native when the recording host compiled it
    latency = [r for r in doc["results"]
               if r["level"].endswith("/latency")]
    assert {r["level"] for r in latency} \
        == {"BEH/latency", "Gate-BEH/latency", "Gate-RTL/latency"}
    for row in latency:
        assert row["n_patterns"] == 1
        assert row["backend"] in {"compiled", "native"}
    if native_recorded:
        for level in ("BEH", "Gate-BEH", "Gate-RTL"):
            backends = {r["backend"] for r in latency
                        if r["level"] == f"{level}/latency"}
            assert backends == {"compiled", "native"}, level


def test_fig09_compiled_beats_interpreted_in_recorded_data():
    doc = load_bench("BENCH_fig09.json")
    by_key = {(r["level"], r["backend"]): r["cycles_per_second"]
              for r in doc["results"]}
    for dut in ("BEH", "Gate-BEH", "Gate-RTL"):
        level = f"{dut}/throughput"
        assert by_key[(level, "compiled")] > by_key[(level, "interpreted")]


def test_fig09_native_beats_compiled_in_recorded_data():
    """The native tier's recorded headline: the C batch row never
    loses to the compiled batch row at any throughput level.  Only
    meaningful when the recording host had a C toolchain."""
    doc = load_bench("BENCH_fig09.json")
    if not doc["toolchain"]["available"]:
        pytest.skip("recorded run degraded native rows to compiled")
    by_key = {(r["level"], r["backend"]): r["cycles_per_second"]
              for r in doc["results"]}
    for dut in ("BEH", "Gate-BEH", "Gate-RTL"):
        level = f"{dut}/throughput"
        assert by_key[(level, "native")] \
            >= by_key[(level, "compiled")], dut


def test_fi_schema():
    doc = load_bench("BENCH_fi.json")
    assert set(doc) == {"campaign", "classification", "by_model",
                        "by_target_kind", "throughput", "cache",
                        "results", "host", "toolchain"}
    _check_provenance(doc)
    campaign = doc["campaign"]
    assert set(campaign) == {"level", "design", "backend", "seed",
                             "budget", "jobs", "n_faults",
                             "workload_frames", "cycle_budget"}
    assert campaign["level"] in {"rtl", "beh", "gate"}
    assert campaign["backend"] in BATCH_BACKENDS
    assert campaign["n_faults"] >= 1
    assert campaign["cycle_budget"] > 0

    # every fault lands in exactly one class
    assert set(doc["classification"]) == FI_OUTCOMES
    assert sum(doc["classification"].values()) == campaign["n_faults"]
    assert len(doc["results"]) == campaign["n_faults"]
    for row in doc["results"]:
        assert set(row) == FI_RESULT_KEYS
        assert row["model"] in FI_MODELS
        assert row["outcome"] in FI_OUTCOMES
    for table in (doc["by_model"], doc["by_target_kind"]):
        assert sum(sum(r.values()) for r in table.values()) \
            == campaign["n_faults"]

    # the campaign's own engine plus the interpreted cross-check probe
    assert {campaign["backend"], "interpreted"} \
        <= set(doc["throughput"]) <= BACKENDS
    for backend, row in doc["throughput"].items():
        assert set(row) == {"backend", "faults", "wall_seconds",
                            "faults_per_second"}
        assert row["backend"] == backend
        assert row["faults"] >= 1
        assert row["wall_seconds"] > 0
        assert row["faults_per_second"] > 0
    # per-cache totals plus per-owning-backend breakdowns
    assert {"gate", "rtl", "hls"} <= set(doc["cache"])
    for stats in doc["cache"].values():
        assert set(stats) == {"hits", "misses", "entries", "evictions",
                              "source_bytes"}
        assert all(v >= 0 for v in stats.values())


def test_fi_native_beats_interpreted_in_recorded_data():
    """The recorded native campaign, its build included, never loses to
    the interpreted probe it is cross-checked against."""
    doc = load_bench("BENCH_fi.json")
    throughput = doc["throughput"]
    assert throughput["native"]["faults_per_second"] >= \
        throughput["interpreted"]["faults_per_second"]


CORPUS_KEYS = {"corpus", "designs", "summary", "host", "toolchain"}
CORPUS_CONFIG_KEYS = {"backend", "budget", "models", "n_designs", "seed",
                      "strategy"}
CORPUS_SUMMARY_KEYS = {"hardened", "improved", "n_designs", "refine_pass",
                       "total_area", "total_faults", "verify_checks",
                       "verify_failures", "verify_pass"}
CORPUS_ROW_KEYS = {"config", "coverage", "digest", "fi", "harden", "kind",
                   "name", "netlist_hash", "refine", "seed", "synth",
                   "verify"}
CORPUS_KINDS = {"src", "counter", "alu", "regfile"}
CORPUS_HARDEN_KEYS = CORPUS_RATE_KEYS | {
    "area_delta_percent", "area_total", "improved", "n_flops",
    "sdc_rate_before", "strategy", "targets"}


def test_corpus_schema():
    doc = load_bench("BENCH_corpus.json")
    assert set(doc) == CORPUS_KEYS
    _check_provenance(doc)
    corpus = doc["corpus"]
    assert set(corpus) == CORPUS_CONFIG_KEYS
    assert corpus["backend"] in BATCH_BACKENDS
    assert corpus["strategy"] in {"tmr", "parity"}
    assert corpus["n_designs"] >= 1

    summary = doc["summary"]
    assert set(summary) == CORPUS_SUMMARY_KEYS
    assert summary["n_designs"] == len(doc["designs"]) \
        == corpus["n_designs"]
    assert summary["refine_pass"] <= summary["n_designs"]
    assert summary["verify_pass"] <= summary["n_designs"]
    assert summary["improved"] <= summary["hardened"] \
        <= summary["n_designs"]
    assert summary["total_area"] > 0

    total_faults = total_checks = total_failures = 0
    for row in doc["designs"]:
        assert set(row) == CORPUS_ROW_KEYS, row.get("name")
        assert row["kind"] in CORPUS_KINDS
        assert row["name"].startswith(row["kind"])
        assert len(row["digest"]) == 64  # sha256 hex
        assert isinstance(row["netlist_hash"], str) and row["netlist_hash"]
        assert isinstance(row["config"], dict) and row["config"]

        assert set(row["refine"]) == {"beh", "rtl", "gate", "pass"}
        assert row["refine"]["pass"] == all(
            row["refine"][lvl] for lvl in ("beh", "rtl", "gate"))
        verify = row["verify"]
        assert set(verify) == {"checks", "failures", "pass"}
        assert verify["checks"] >= 1
        assert verify["pass"] == (not verify["failures"])
        total_checks += verify["checks"]
        total_failures += len(verify["failures"])

        coverage = row["coverage"]
        assert set(coverage) == {"fraction", "reg_bits", "toggled"}
        assert 0 <= coverage["toggled"] <= coverage["reg_bits"]
        assert 0.0 <= coverage["fraction"] <= 1.0
        synth = row["synth"]
        assert set(synth) == {"area_combinational", "area_sequential",
                              "area_total", "n_cells", "n_flops"}
        assert synth["area_total"] > 0 and synth["n_flops"] >= 1

        check_fi_rates(row["fi"], row["name"])
        total_faults += row["fi"]["n_faults"]  # base injection only
        if row["harden"] is not None:
            harden = row["harden"]
            assert set(harden) == CORPUS_HARDEN_KEYS, row["name"]
            check_fi_rates(harden, row["name"] + "/harden")
            assert harden["strategy"] == corpus["strategy"]
            assert harden["targets"], row["name"]
            assert harden["n_flops"] > synth["n_flops"], row["name"]
            assert harden["area_total"] > synth["area_total"], row["name"]
            assert harden["improved"] == \
                (harden["sdc_rate"] < harden["sdc_rate_before"])

    assert summary["total_faults"] == total_faults
    assert summary["verify_checks"] == total_checks
    assert summary["verify_failures"] == total_failures


def test_corpus_recorded_run_is_healthy():
    """The checked-in corpus run must record a clean matrix: every
    design refined and verified, and hardening paid off somewhere."""
    doc = load_bench("BENCH_corpus.json")
    summary = doc["summary"]
    assert summary["refine_pass"] == summary["n_designs"]
    assert summary["verify_pass"] == summary["n_designs"]
    assert summary["verify_failures"] == 0
    assert summary["improved"] >= 1
