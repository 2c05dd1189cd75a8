"""Scheduler, shard pool and job-lifecycle behaviour of the service.

Pool-health mechanics (crash, hang, retire) are exercised directly on
:class:`ShardPool` with the synthetic ``sleep``/``crash`` task ops, so
they run in milliseconds; the end-to-end paths (priorities, caching,
kill-a-shard-mid-campaign) go through :class:`CampaignService` with
real smoke-budget jobs.
"""

from __future__ import annotations

import time

import pytest

from repro.service.core import CampaignService, LatencyHistogram, \
    ServiceConfig
from repro.service.jobs import Job, JobError, JobQueue, JobSpec
from repro.service.shards import ShardPool, TaskRef
from repro.service.tasks import plan_job


def _drain(pool, want, timeout=30.0):
    """Poll *pool* until *want* task-level events arrived."""
    events = []
    deadline = time.time() + timeout
    while len([e for e in events
               if e[0] in ("done", "error", "crash", "hang")]) < want:
        events.extend(pool.poll())
        if time.time() > deadline:
            raise TimeoutError(f"only {events} after {timeout}s")
        time.sleep(0.01)
    return events


# ----------------------------------------------------------------------
# job spec validation and the priority queue
# ----------------------------------------------------------------------

def test_spec_rejects_malformed_submissions():
    for doc in (["fi"], {"kind": "nope"}, {"kind": "fi", "bogus": 1},
                {"kind": "fi", "params": "huge"},
                {"kind": "fi", "priority": "high"},
                {"kind": "fi", "deadline_s": -1},
                {"kind": "fi", "options": {"levels": "beh"}},
                {"kind": "fi", "options": {"budget": "galactic"}},
                {"kind": "fi", "options": {"n_faults": 0}},
                {"kind": "verify", "options": {"n_faults": 8}},
                {"kind": "verify", "options": {"backend": "bogus"}},
                {"kind": "fi", "options": {"backend": "interpreted"}},
                {"kind": "corpus", "options": {"backend": "bogus"}},
                {"kind": "corpus", "options": {"backend": "interpreted"}}):
        with pytest.raises(JobError):
            JobSpec.parse(doc)


def test_fi_plan_batches_by_the_engine_table():
    def tasks(**options):
        spec = JobSpec.parse({"kind": "fi",
                              "options": dict(budget="smoke", **options)})
        return [(t.payload["lo"], t.payload["hi"])
                for t in plan_job(spec, 2).tasks]

    # no engine batches RTL faults: a task is a chunk of single runs
    assert tasks(backend="native", n_faults=64, chunk=32) == [(0, 32),
                                                             (32, 64)]
    # compiled bigint planes take any width
    assert tasks(backend="compiled", level="gate", n_faults=100,
                 chunk=100) == [(0, 100)]
    with pytest.raises(JobError):
        tasks(backend="native", level="gate", n_faults=100, chunk=100)


def test_spec_roundtrips_options():
    spec = JobSpec.parse({"kind": "fi", "priority": 3,
                          "options": {"n_faults": 8, "level": "rtl"}})
    assert spec.option("n_faults") == 8
    assert spec.option("level") == "rtl"
    assert spec.option("missing", "x") == "x"
    assert spec.options_dict() == {"n_faults": 8, "level": "rtl"}


def test_job_queue_orders_by_priority_then_fifo():
    queue = JobQueue()
    for job_id, priority in (("a", 0), ("b", 5), ("c", 0), ("d", 5)):
        queue.push(Job(id=job_id,
                       spec=JobSpec(kind="fi", priority=priority),
                       submitted_at=0.0))
    queue.discard("d")
    assert [queue.pop() for _ in range(3)] == ["b", "a", "c"]
    assert queue.pop() is None
    assert len(queue) == 0


def test_latency_histogram_buckets():
    hist = LatencyHistogram()
    hist.observe(0.002)
    hist.observe(0.3)
    hist.observe(1e6)
    doc = hist.as_dict()
    assert doc["count"] == 3
    assert doc["buckets"]["le_0.01"] == 1
    assert doc["buckets"]["le_0.5"] == 1
    assert doc["buckets"]["le_inf"] == 1


# ----------------------------------------------------------------------
# shard pool health: crash, retry, retire, hang
# ----------------------------------------------------------------------

def test_pool_runs_tasks_and_tracks_utilization():
    pool = ShardPool(n_shards=2)
    pool.start()
    try:
        for i in range(2):
            pool.dispatch(i, TaskRef(id=i, job_id="j1", index=i,
                                     payload={"op": "sleep",
                                              "seconds": 0.05}))
        events = _drain(pool, 2)
        assert {e[0] for e in events} == {"done"}
        stats = pool.utilization()
        assert stats["tasks_done"] == 2
        assert stats["live"] == 2 and stats["crashes"] == 0
        assert stats["busy_seconds"] > 0
    finally:
        pool.stop()


def test_pool_surfaces_task_errors_without_retry():
    pool = ShardPool(n_shards=1)
    pool.start()
    try:
        pool.dispatch(0, TaskRef(id=1, job_id="j1", index=0,
                                 payload={"op": "no-such-op"}))
        events = _drain(pool, 1)
        kinds = [e[0] for e in events]
        assert kinds == ["error"]
        assert "no-such-op" in events[0][2]
        assert pool.shards[0].alive  # an error must not kill the shard
    finally:
        pool.stop()


def test_pool_respawns_after_crash_and_resurfaces_task():
    pool = ShardPool(n_shards=1, max_crashes=2)
    pool.start()
    try:
        task = TaskRef(id=1, job_id="j1", index=0,
                       payload={"op": "crash"})
        pool.dispatch(0, task)
        events = _drain(pool, 1)
        assert ("shard_respawned", 0, None) in events
        crash = [e for e in events if e[0] == "crash"]
        assert crash and crash[0][1] is task
        assert pool.shards[0].alive and pool.shards[0].crashes == 1
        # the respawned shard still serves work
        pool.dispatch(0, TaskRef(id=2, job_id="j1", index=1,
                                 payload={"op": "sleep",
                                          "seconds": 0.01}))
        assert [e[0] for e in _drain(pool, 1)] == ["done"]
    finally:
        pool.stop()


def test_pool_retires_shard_after_crash_budget():
    pool = ShardPool(n_shards=2, max_crashes=0)
    pool.start()
    try:
        pool.dispatch(0, TaskRef(id=1, job_id="j1", index=0,
                                 payload={"op": "crash"}))
        events = _drain(pool, 1)
        assert ("shard_dead", 0, None) in events
        assert pool.shards[0].dead
        assert pool.live_shards == 1
        assert pool.free_shards() == [1]  # siblings absorb the queue
    finally:
        pool.stop()


def test_pool_detects_hang_and_reassigns():
    pool = ShardPool(n_shards=1, max_crashes=2)
    pool.start()
    try:
        task = TaskRef(id=1, job_id="j1", index=0,
                       payload={"op": "sleep", "seconds": 30.0},
                       hang_budget_s=0.1)
        pool.dispatch(0, task)
        events = _drain(pool, 1, timeout=10.0)
        hang = [e for e in events if e[0] == "hang"]
        assert hang and hang[0][1] is task
        assert pool.shards[0].hangs == 1
        assert pool.shards[0].alive  # respawned within budget
    finally:
        pool.stop()


# ----------------------------------------------------------------------
# service-level lifecycle (no pool started: pure scheduler states)
# ----------------------------------------------------------------------

def _coldservice(**kw) -> CampaignService:
    """A service whose pool is *not* started: nothing dispatches, so
    queue-state transitions can be asserted deterministically."""
    return CampaignService(ServiceConfig(shards=1, **kw))


def test_deadline_expires_queued_job():
    service = _coldservice()
    job = service.submit({"kind": "fi", "deadline_s": 0.05,
                          "options": {"budget": "smoke",
                                      "level": "rtl", "n_faults": 4}},
                         now=1000.0)
    service.tick(now=1000.04)
    assert service.job_dict(job["id"])["state"] == "queued"
    service.tick(now=1000.06)
    doc = service.job_dict(job["id"])
    assert doc["state"] == "expired"
    assert "deadline" in doc["error"]


def test_cancelled_job_never_dispatches():
    service = _coldservice()
    job = service.submit({"kind": "fi",
                          "options": {"budget": "smoke",
                                      "level": "rtl", "n_faults": 4}})
    doc = service.cancel(job["id"])
    assert doc["state"] == "cancelled"
    service.pool.start()  # now shards exist; the task must be dropped
    try:
        service.tick()
        assert service.pool.busy_shards == 0
        assert [e["event"] for e in service.job_events(job["id"])] \
            == ["submitted", "cancelled"]
    finally:
        service.stop()


def test_submit_rejects_bad_jobs_without_side_effects():
    service = _coldservice()
    with pytest.raises(JobError):
        service.submit({"kind": "fi", "options": {"budget": "bogus"}})
    assert service.list_jobs() == []


# ----------------------------------------------------------------------
# end-to-end scheduling with real workers
# ----------------------------------------------------------------------

@pytest.fixture()
def service():
    service = CampaignService(ServiceConfig(shards=2,
                                            backoff_base_s=0.01))
    service.start()
    yield service
    service.stop()


def test_priority_preempts_queue_order(service):
    """With one free shard and three queued fi jobs, the high-priority
    late arrival must start before the earlier low-priority ones."""
    kill = service.kill_shard(1)  # leave a single live shard
    assert kill
    time.sleep(0.1)
    service.pool.poll()  # absorb the kill as a crash

    def fi(priority, seed):
        return service.submit(
            {"kind": "fi", "priority": priority,
             "options": {"budget": "smoke", "level": "rtl",
                         "n_faults": 4, "seed": seed}})["id"]

    low1, low2, high = fi(0, 1), fi(0, 2), fi(9, 3)
    for job_id in (high, low1, low2):
        service.wait(job_id, timeout=120)
    started = {j: service.job_dict(j)["started_at"]
               for j in (low1, low2, high)}
    assert started[high] < started[low2]
    assert service.job_dict(high)["state"] == "done"


def test_kill_shard_mid_campaign_still_completes(service):
    job = service.submit(
        {"kind": "fi",
         "options": {"budget": "small", "level": "rtl",
                     "n_faults": 32, "chunk": 4}})
    # let work start, then kill a busy shard
    deadline = time.time() + 30
    while service.pool.busy_shards == 0:
        service.tick()
        assert time.time() < deadline, "work never started"
        time.sleep(0.01)
    victim = next(s.id for s in service.pool.shards
                  if s.current is not None)
    assert service.kill_shard(victim)
    done = service.wait(job["id"], timeout=180)
    assert done["state"] == "done"
    assert done["retries"] >= 1
    assert len(done["result"]["results"]) == 32
    metrics = service.metrics()
    assert metrics["workers"]["crashes"] >= 1
    assert metrics["jobs"]["retries"] >= 1


def test_identical_resubmission_is_cache_hit(service):
    spec = {"kind": "fi", "options": {"budget": "smoke", "level": "rtl",
                                      "n_faults": 8}}
    first = service.wait(service.submit(spec)["id"], timeout=120)
    assert first["state"] == "done" and not first["cache"]["hit"]
    assert first["cache"]["stored"]

    t0 = time.time()
    second = service.submit(spec)
    elapsed = time.time() - t0
    assert second["state"] == "done"
    assert second["cache"]["hit"]
    assert second["cache"]["key"] == first["cache"]["key"]
    assert elapsed < 0.1  # served without touching a worker
    again = service.job_dict(second["id"], include_result=True)
    assert again["result"] == first["result"]

    # a different seed is different content: must miss
    third = service.submit({"kind": "fi",
                            "options": {"budget": "smoke",
                                        "level": "rtl", "n_faults": 8,
                                        "seed": 11}})
    assert not third["cache"]["hit"]
    service.wait(third["id"], timeout=120)


def test_corpus_rows_are_cached_individually(service):
    one = service.wait(
        service.submit({"kind": "corpus",
                        "options": {"budget": "smoke",
                                    "n_designs": 1}})["id"],
        timeout=300)
    assert one["state"] == "done"
    # the 2-design corpus shares the roster prefix: row 0 must be
    # served from the cache, only row 1 simulated
    two = service.submit({"kind": "corpus",
                          "options": {"budget": "smoke",
                                      "n_designs": 2}})
    assert two["cache"]["row_hits"] == 1
    assert two["progress"]["tasks_total"] == 1
    done = service.wait(two["id"], timeout=300)
    assert done["state"] == "done"
    assert len(done["result"]["rows"]) == 2
    assert done["result"]["passed"]
