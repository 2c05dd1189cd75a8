"""Shared schema-lock helpers for the checked-in JSON contracts.

``BENCH_*.json`` files and the campaign service's job/result documents
are consumed by external tooling and later sessions -- any field rename
or restructure is a silent breaking change.  The helpers here pin
exact key sets and the semantic invariants the individual schema tests
share, so the locks live in one place instead of being copy-pasted
per document.
"""

from __future__ import annotations

import json
import os

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: simulation engines a benchmark row may name
BACKENDS = {"interpreted", "compiled", "native"}
#: backends that pack parallel patterns (n_patterns > 1 rows)
BATCH_BACKENDS = {"compiled", "native"}

#: the machine-identity block every BENCH document records
HOST_KEYS = {"platform", "machine", "cpu_count", "python"}

#: per-row shape of every BENCH_* ``results`` list
RESULT_KEYS = {"level", "backend", "n_patterns", "cycles_per_second",
               "simulated_cycles", "wall_seconds", "output_frames"}

FI_OUTCOMES = {"masked", "sdc", "detected", "hang"}
FI_MODELS = {"stuck0", "stuck1", "pulse", "seu"}
FI_RESULT_KEYS = {"index", "model", "level", "target_kind", "target",
                  "bit", "address", "cycle", "duration", "outcome",
                  "first_frame", "detected_cycle", "detail", "n_outputs"}


def load_bench(name):
    """A checked-in benchmark JSON document, or a pytest skip when the
    checkout does not carry it."""
    path = os.path.join(REPO_ROOT, name)
    if not os.path.exists(path):
        pytest.skip(f"{name} not present in this checkout")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def assert_exact_keys(doc, keys, where=""):
    """Lock *doc* to exactly *keys* -- additions and removals both
    fail, which is the point of a schema lock."""
    assert isinstance(doc, dict), where or doc
    assert set(doc) == set(keys), (
        f"{where or 'document'}: keys changed; "
        f"added={sorted(set(doc) - set(keys))} "
        f"removed={sorted(set(keys) - set(doc))}")


def check_result_rows(results):
    """Invariants of a BENCH ``results`` row list."""
    assert results, "empty results list"
    for row in results:
        assert_exact_keys(row, RESULT_KEYS, row.get("level"))
        assert isinstance(row["level"], str) and row["level"]
        assert row["backend"] in BACKENDS
        assert row["n_patterns"] >= 1
        assert row["n_patterns"] == 1 or row["backend"] in BATCH_BACKENDS
        assert row["cycles_per_second"] > 0
        assert row["simulated_cycles"] > 0
        assert row["wall_seconds"] > 0
        assert row["output_frames"] >= 0


#: per-classification keys shared by corpus rows and harden blocks
CORPUS_RATE_KEYS = {"n_faults"} | {k for o in FI_OUTCOMES
                                   for k in (o, f"{o}_rate")}


def check_fi_rates(rates, where):
    """Invariants of a fault-classification rate table."""
    assert CORPUS_RATE_KEYS <= set(rates), where
    assert rates["n_faults"] >= 1, where
    # every fault lands in exactly one class -- counts are monotone
    # consistent with the total and the rates are true fractions
    assert sum(rates[o] for o in FI_OUTCOMES) == rates["n_faults"], where
    for outcome in FI_OUTCOMES:
        assert 0 <= rates[outcome] <= rates["n_faults"], where
        assert 0.0 <= rates[f"{outcome}_rate"] <= 1.0, where


def check_classification(table, n_faults, where=""):
    """A plain outcome->count table covering every fault exactly once."""
    assert_exact_keys(table, FI_OUTCOMES, where)
    assert sum(table.values()) == n_faults, where

# ----------------------------------------------------------------------
# observability surfaces: Chrome trace JSON and Prometheus text
# ----------------------------------------------------------------------

#: top-level shape of an exported Chrome trace file
TRACE_TOP_KEYS = {"traceEvents", "displayTimeUnit", "otherData"}
#: every complete ("X") span event carries exactly these keys
TRACE_EVENT_KEYS = {"name", "cat", "ph", "ts", "dur", "pid", "tid",
                    "args"}


def check_chrome_trace(doc, where=""):
    """Invariants of one exported Chrome trace-event JSON document.

    Returns the list of "X" (complete-span) events for further
    assertions by the caller.
    """
    assert_exact_keys(doc, TRACE_TOP_KEYS, where)
    assert doc["displayTimeUnit"] == "ms", where
    assert {"trace_id", "generator"} <= set(doc["otherData"]), where
    spans = []
    for event in doc["traceEvents"]:
        if event.get("ph") == "M":
            assert event.get("name") == "process_name", where
            continue
        assert_exact_keys(event, TRACE_EVENT_KEYS, where)
        assert event["ph"] == "X", where
        assert event["ts"] >= 0 and event["dur"] >= 1, where
        args = event["args"]
        assert {"trace_id", "span_id"} <= set(args), where
        assert args["trace_id"] == doc["otherData"]["trace_id"], where
        spans.append(event)
    assert spans, f"{where}: trace holds no spans"
    # export normalises timestamps and sorts by start time
    assert [e["ts"] for e in spans] \
        == sorted(e["ts"] for e in spans), where
    return spans


def check_prometheus_text(text, where=""):
    """Invariants of a Prometheus text exposition (v0.0.4) payload.

    Every sample line must parse as ``name{labels} value``, every
    ``# TYPE`` must be a known metric type, and each histogram family
    must expose cumulative ``_bucket`` samples ending at ``+Inf`` plus
    ``_sum`` and ``_count``.  Returns ``{family: type}``.
    """
    import re

    name_re = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
    types = {}
    samples = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            _, _, name, mtype = line.split(None, 3)
            assert mtype in ("counter", "gauge", "histogram",
                             "summary", "untyped"), f"{where}: {line}"
            assert name not in types, f"{where}: duplicate TYPE {name}"
            types[name] = mtype
            continue
        assert not line.startswith("#"), f"{where}: {line}"
        metric, _, value = line.rpartition(" ")
        name = metric.split("{", 1)[0]
        assert name_re.match(name), f"{where}: bad name in: {line}"
        if "{" in metric:
            assert metric.endswith("}"), f"{where}: {line}"
        float(value)  # raises on an unparsable sample value
        samples.setdefault(name, []).append(line)
    assert types, f"{where}: no TYPE lines"
    for name, mtype in types.items():
        if mtype == "histogram":
            buckets = samples.get(f"{name}_bucket", [])
            assert buckets, f"{where}: {name} has no _bucket samples"
            assert any('le="+Inf"' in b for b in buckets), \
                f"{where}: {name} lacks the +Inf bucket"
            assert samples.get(f"{name}_sum"), f"{where}: {name}_sum"
            assert samples.get(f"{name}_count"), \
                f"{where}: {name}_count"
        else:
            assert samples.get(name), \
                f"{where}: TYPE {name} has no samples"
    return types
