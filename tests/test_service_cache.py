"""The content-addressed result cache: keys, invalidation, bounds.

The cache is only sound if its keys are pure functions of the job
content -- stable across processes and runs -- and if bumping the
schema version really makes every old entry unaddressable.  The
eviction bound is exercised as a property over random workloads.
"""

from __future__ import annotations

import dataclasses
import subprocess
import sys

import pytest

from repro.service.cache import (RESULT_SCHEMA_VERSION, ResultCache,
                                 ResultKey, canonical_json, digest_of)

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - optional dependency
    HAVE_HYPOTHESIS = False


def _key(**overrides) -> ResultKey:
    base = dict(kind="fi", design_digest="d" * 64,
                workload_digest="w" * 64, workload_seed=7,
                backend="compiled", extra="e" * 64)
    base.update(overrides)
    return ResultKey(**base)


# ----------------------------------------------------------------------
# key stability
# ----------------------------------------------------------------------

def test_key_digest_is_deterministic():
    assert _key().digest() == _key().digest()
    assert len(_key().digest()) == 64


def test_key_digest_depends_on_every_field():
    base = _key().digest()
    for change in (dict(kind="verify"), dict(design_digest="x" * 64),
                   dict(workload_digest="y" * 64),
                   dict(workload_seed=8), dict(backend="native"),
                   dict(extra="z" * 64),
                   dict(schema_version=RESULT_SCHEMA_VERSION + 1)):
        assert _key(**change).digest() != base, change


def test_key_digest_stable_across_processes():
    """The digest must not depend on per-process state (hash
    randomisation, dict order): a service restart must still hit."""
    code = (
        "from repro.service.cache import ResultKey;"
        "print(ResultKey(kind='fi', design_digest='d'*64,"
        " workload_digest='w'*64, workload_seed=7,"
        " backend='compiled', extra='e'*64).digest())"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"})
    assert out.stdout.strip() == _key().digest()


def test_planned_fi_key_stable_across_processes():
    """End to end: planning the same fi job in a fresh interpreter
    derives the same content address (design digest, faultload digest
    and all)."""
    from repro.service.jobs import JobSpec
    from repro.service.tasks import plan_fi

    spec = JobSpec.parse({"kind": "fi",
                          "options": {"budget": "smoke", "level": "rtl",
                                      "n_faults": 4}})
    local = plan_fi(spec, 1).key.digest()
    code = (
        "from repro.service.jobs import JobSpec;"
        "from repro.service.tasks import plan_fi;"
        "spec = JobSpec.parse({'kind': 'fi', 'options':"
        " {'budget': 'smoke', 'level': 'rtl', 'n_faults': 4}});"
        "print(plan_fi(spec, 1).key.digest())"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"})
    assert out.stdout.strip() == local


def test_canonical_json_is_order_insensitive():
    assert canonical_json({"b": 1, "a": [1, 2]}) \
        == canonical_json({"a": [1, 2], "b": 1})
    assert digest_of({"b": 1, "a": 2}) == digest_of({"a": 2, "b": 1})


# ----------------------------------------------------------------------
# schema-version invalidation
# ----------------------------------------------------------------------

def test_schema_version_bump_invalidates_stored_results():
    cache = ResultCache(max_entries=8)
    key = _key()
    cache.put(key, {"kind": "fi", "n": 1})
    assert cache.get(key) == {"kind": "fi", "n": 1}

    bumped = dataclasses.replace(
        key, schema_version=RESULT_SCHEMA_VERSION + 1)
    assert cache.get(bumped) is None  # old entry is unaddressable
    assert cache.stats()["misses"] == 1

    # storing under the new version does not resurrect the old one
    cache.put(bumped, {"kind": "fi", "n": 2})
    assert cache.get(key) == {"kind": "fi", "n": 1}
    assert cache.get(bumped) == {"kind": "fi", "n": 2}


# ----------------------------------------------------------------------
# LRU bound and counters
# ----------------------------------------------------------------------

def test_eviction_retires_stalest_entry():
    cache = ResultCache(max_entries=2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1       # refresh "a": now "b" is stalest
    cache.put("c", 3)
    assert cache.peek("a") and cache.peek("c") and not cache.peek("b")
    assert cache.stats()["evictions"] == 1


def test_counters_track_hits_and_misses():
    cache = ResultCache(max_entries=4)
    assert cache.get("nope") is None
    cache.put("k", {"v": 1})
    assert cache.get("k") == {"v": 1}
    stats = cache.stats()
    assert stats["hits"] == 1 and stats["misses"] == 1
    assert stats["hit_rate"] == 0.5
    cache.clear()
    assert cache.stats() == {"entries": 0, "max_entries": 4, "hits": 0,
                             "misses": 0, "evictions": 0,
                             "hit_rate": 0.0}


def test_rejects_non_positive_bound():
    with pytest.raises(ValueError):
        ResultCache(max_entries=0)


if HAVE_HYPOTHESIS:

    @settings(max_examples=60, deadline=None)
    @given(bound=st.integers(min_value=1, max_value=8),
           ops=st.lists(
               st.tuples(st.sampled_from(["put", "get"]),
                         st.integers(min_value=0, max_value=12)),
               max_size=60))
    def test_eviction_keeps_cache_under_bound_property(bound, ops):
        """Under any put/get interleaving the store never exceeds its
        bound, evictions account exactly for the overflow, and the
        most recently *used* entry is always resident."""
        cache = ResultCache(max_entries=bound)
        inserted = 0
        last_used = None
        for op, n in ops:
            key = f"k{n}"
            if op == "put":
                if not cache.peek(key):
                    inserted += 1
                cache.put(key, {"n": n})
                last_used = key
            elif cache.get(key) is not None:
                last_used = key
            assert len(cache) <= bound
            if last_used is not None:
                assert cache.peek(last_used)
        assert cache.stats()["evictions"] == inserted - len(cache)
