"""The campaign service core: queue, shards, cache, metrics.

:class:`CampaignService` is the whole service minus the transport: it
validates submissions, content-addresses them against the result
cache, plans cache misses into worker tasks, schedules tasks onto the
shard pool by job priority, enforces deadlines and retry budgets, and
aggregates finished tasks into cacheable result documents.  The HTTP
layer (:mod:`repro.service.server`) is a thin shell over this class,
which keeps the full scheduling behaviour drivable -- and testable --
with plain synchronous :meth:`tick` calls.

Scheduling model: one central ready-heap ordered by (job priority
desc, submission order), at most one in-flight task per shard.  A
worker crash or hang requeues the task with exponential backoff and
charges the job's bounded retry budget; a deterministic task error
fails the job immediately.  Cancellations and deadline expiries drop
a job's pending tasks from the heap lazily and ignore its in-flight
results.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..compile_cache import aggregate_stats
from ..obs.metrics import LatencyHistogram, REGISTRY, render_prometheus
from ..obs.trace import record_span, tracing_enabled
from .cache import RESULT_SCHEMA_VERSION, ResultCache
from .jobs import Job, JobError, JobSpec, new_job_id
from .shards import ShardPool, TaskRef
from .tasks import aggregate_job, plan_job


@dataclass(frozen=True)
class ServiceConfig:
    """Operational knobs of one service instance."""

    shards: int = 2
    cache_entries: int = 512
    #: default per-task wall-clock hang budget (jobs may override)
    hang_budget_s: float = 300.0
    #: worker-crash retries per job before it fails
    max_retries: int = 2
    #: crashes a shard may survive before it is retired
    max_crashes: int = 2
    #: first retry backoff; doubles per attempt
    backoff_base_s: float = 0.05


# LatencyHistogram moved to the unified metrics layer
# (:mod:`repro.obs.metrics`); re-exported here because this was its
# original home and callers import it from the service core.
__all__ = ["CampaignService", "LatencyHistogram", "ServiceConfig"]


class CampaignService:
    """A long-running verify/fi/corpus campaign service."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.cache = ResultCache(self.config.cache_entries)
        self.pool = ShardPool(self.config.shards,
                              max_crashes=self.config.max_crashes)
        self.jobs: Dict[str, Job] = {}
        self._order: List[str] = []          # submission order
        self._counter = itertools.count(1)
        self._task_counter = itertools.count(1)
        self._seq = itertools.count()
        #: ready tasks: (-priority, seq, TaskRef)
        self._ready: List[Tuple[int, int, TaskRef]] = []
        #: backoff'd retries: (not_before, seq, TaskRef)
        self._deferred: List[Tuple[float, int, TaskRef]] = []
        #: per-job task results, keyed by task index
        self._results: Dict[str, Dict[int, Dict[str, object]]] = {}
        self._plans: Dict[str, object] = {}
        self._latency: Dict[str, LatencyHistogram] = {}
        self.started_at = time.time()

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        self.pool.start()

    def stop(self) -> None:
        self.pool.stop()

    # -- submissions ---------------------------------------------------

    def submit(self, doc: object,
               now: Optional[float] = None) -> Dict[str, object]:
        """Validate, content-address and enqueue one job submission.

        A cache hit completes the job immediately -- no worker touched;
        a corpus job additionally serves any individually-cached rows
        and only simulates the rest.
        """
        now = time.time() if now is None else now
        spec = JobSpec.parse(doc)
        job = Job(id=new_job_id(next(self._counter)), spec=spec,
                  submitted_at=now)
        self.jobs[job.id] = job
        self._order.append(job.id)
        job.add_event("submitted", now, kind=spec.kind,
                      priority=spec.priority)

        plan = plan_job(spec, self.pool.live_shards or 1)
        job.cache_key = plan.key.digest()
        job.unit = plan.unit
        job.units_total = plan.units_total
        self._plans[job.id] = plan

        cached = self.cache.get(job.cache_key)
        if cached is not None:
            job.cache_hit = True
            job.result = cached
            job.tasks_total = 0
            job.units_done = job.units_total
            job.started_at = now
            job.finish("done", now)
            self._observe_latency(job)
            return job.as_dict()

        # corpus: serve individually-cached rows, simulate the rest
        results: Dict[int, Dict[str, object]] = {}
        pending = []
        for task_plan in plan.tasks:
            row_key = plan.row_keys.get(task_plan.index)
            if row_key is not None:
                row = self.cache.get(row_key)
                if row is not None:
                    results[task_plan.index] = {"row": row}
                    job.row_cache_hits += 1
                    job.units_done += task_plan.units
                    continue
            pending.append(task_plan)
        self._results[job.id] = results

        job.tasks_total = len(pending)
        if not pending:
            job.started_at = now
            self._complete(job, now)
            return job.as_dict()

        hang_budget = spec.hang_budget_s or self.config.hang_budget_s
        for task_plan in pending:
            ref = TaskRef(id=next(self._task_counter), job_id=job.id,
                          index=task_plan.index,
                          payload=task_plan.payload,
                          units=task_plan.units,
                          hang_budget_s=hang_budget)
            heapq.heappush(self._ready,
                           (-spec.priority, next(self._seq), ref))
        return job.as_dict()

    def cancel(self, job_id: str,
               now: Optional[float] = None) -> Dict[str, object]:
        now = time.time() if now is None else now
        job = self._job(job_id)
        if not job.terminal:
            job.finish("cancelled", now)
        return job.as_dict()

    def kill_shard(self, shard_id: int) -> bool:
        if not 0 <= shard_id < len(self.pool.shards):
            raise JobError(f"no shard {shard_id}")
        return self.pool.kill_shard(shard_id)

    # -- queries -------------------------------------------------------

    def _job(self, job_id: str) -> Job:
        job = self.jobs.get(job_id)
        if job is None:
            raise KeyError(job_id)
        return job

    def job_dict(self, job_id: str,
                 include_result: bool = False) -> Dict[str, object]:
        return self._job(job_id).as_dict(include_result)

    def job_events(self, job_id: str,
                   cursor: int = 0) -> List[Dict[str, object]]:
        return self._job(job_id).events[cursor:]

    def list_jobs(self) -> List[Dict[str, object]]:
        return [self.jobs[jid].as_dict() for jid in self._order]

    def is_terminal(self, job_id: str) -> bool:
        return self._job(job_id).terminal

    # -- scheduling ----------------------------------------------------

    def tick(self, now: Optional[float] = None) -> None:
        """One scheduler step: expire, promote retries, dispatch,
        collect."""
        now = time.time() if now is None else now
        self._expire(now)
        self._promote_deferred(now)
        self._dispatch(now)
        self._collect(now)

    def _expire(self, now: float) -> None:
        for job in self.jobs.values():
            if job.terminal:
                continue
            deadline = job.deadline_at
            if deadline is not None and now > deadline:
                job.finish("expired", now,
                           error=f"deadline of {job.spec.deadline_s}s "
                                 "passed")

    def _promote_deferred(self, now: float) -> None:
        while self._deferred and self._deferred[0][0] <= now:
            _, _, ref = heapq.heappop(self._deferred)
            job = self.jobs.get(ref.job_id)
            if job is None or job.terminal:
                continue
            heapq.heappush(
                self._ready,
                (-job.spec.priority, next(self._seq), ref))

    def _dispatch(self, now: float) -> None:
        free = self.pool.free_shards()
        while free and self._ready:
            _, _, ref = heapq.heappop(self._ready)
            job = self.jobs.get(ref.job_id)
            if job is None or job.terminal:
                continue  # cancelled/expired: drop silently
            if job.state == "queued":
                job.state = "running"
                job.started_at = now
                job.add_event("started", now,
                              tasks=job.tasks_total,
                              units=job.units_total)
            shard_id = free.pop(0)
            self.pool.dispatch(shard_id, ref, now)

    def _collect(self, now: float) -> None:
        for event, payload, outcome in self.pool.poll(now):
            if event in ("shard_respawned", "shard_dead"):
                continue
            ref: TaskRef = payload
            job = self.jobs.get(ref.job_id)
            if job is None or job.terminal:
                continue  # result of a cancelled/expired job
            if event == "done":
                self._results[job.id][ref.index] = outcome
                job.tasks_done += 1
                job.units_done += ref.units
                job.add_event("progress", now, unit=job.unit,
                              done=job.units_done,
                              total=job.units_total)
                if job.tasks_done >= job.tasks_total:
                    self._complete(job, now)
            elif event == "error":
                job.finish("failed", now, error=str(outcome))
            else:  # crash / hang -> bounded retry with backoff
                ref.attempts += 1
                if ref.attempts > self.config.max_retries:
                    job.finish(
                        "failed", now,
                        error=f"task {ref.index} lost to worker "
                              f"{event} {ref.attempts} time(s); "
                              "retry budget exhausted")
                    continue
                job.retries += 1
                delay = self.config.backoff_base_s * (
                    2 ** (ref.attempts - 1))
                job.add_event("retry", now, task=ref.index,
                              reason=event, attempt=ref.attempts,
                              backoff_s=round(delay, 3))
                heapq.heappush(self._deferred,
                               (now + delay, next(self._seq), ref))

    def _complete(self, job: Job, now: float) -> None:
        plan = self._plans[job.id]
        results = self._results.pop(job.id, {})
        job.result = aggregate_job(job.spec.kind, plan.meta, results)
        # store fresh rows under their per-row keys (corpus), then the
        # whole result under the job key
        for index, row_key in plan.row_keys.items():
            if index in results and not self.cache.peek(row_key):
                self.cache.put(row_key, results[index]["row"])
        job.cache_stored = True
        self.cache.put(job.cache_key, job.result)
        job.finish("done", now)
        self._observe_latency(job)

    def _observe_latency(self, job: Job) -> None:
        hist = self._latency.setdefault(job.spec.kind,
                                        LatencyHistogram())
        hist.observe(job.wall_seconds or 0.0)
        if tracing_enabled():
            record_span("service.job",
                        job.started_at or job.submitted_at,
                        job.finished_at or time.time(),
                        job=job.id, kind=job.spec.kind,
                        state=job.state, cache_hit=job.cache_hit)

    # -- helpers for synchronous callers (tests, CLI fallbacks) --------

    def wait(self, job_id: str, timeout: float = 300.0,
             poll_s: float = 0.01) -> Dict[str, object]:
        """Drive ticks until *job_id* is terminal; returns its dict."""
        deadline = time.time() + timeout
        while not self.is_terminal(job_id):
            self.tick()
            if time.time() > deadline:
                raise TimeoutError(
                    f"job {job_id} not terminal after {timeout}s")
            time.sleep(poll_s)
        return self.job_dict(job_id, include_result=True)

    # -- metrics -------------------------------------------------------

    def metrics(self, now: Optional[float] = None) -> Dict[str, object]:
        now = time.time() if now is None else now
        by_state: Dict[str, int] = {}
        by_kind: Dict[str, int] = {}
        for job in self.jobs.values():
            by_state[job.state] = by_state.get(job.state, 0) + 1
            by_kind[job.spec.kind] = by_kind.get(job.spec.kind, 0) + 1
        queued_jobs = sum(1 for j in self.jobs.values()
                          if j.state == "queued")
        running = sum(1 for j in self.jobs.values()
                      if j.state == "running")
        return {
            "service": {
                "uptime_seconds": round(now - self.started_at, 3),
                "schema_version": RESULT_SCHEMA_VERSION,
            },
            "queue": {
                "jobs_queued": queued_jobs,
                "jobs_running": running,
                "tasks_ready": len(self._ready),
                "tasks_deferred": len(self._deferred),
                "tasks_inflight": self.pool.busy_shards,
            },
            "workers": self.pool.utilization(now),
            "cache": self.cache.stats(),
            "jobs": {
                "total": len(self.jobs),
                "by_state": by_state,
                "by_kind": by_kind,
                "retries": sum(j.retries for j in self.jobs.values()),
                "row_cache_hits": sum(j.row_cache_hits
                                      for j in self.jobs.values()),
            },
            "latency": {kind: hist.as_dict()
                        for kind, hist in self._latency.items()},
            "compile_caches": {
                label: {"hits": stats.hits, "misses": stats.misses,
                        "entries": stats.entries,
                        "evictions": stats.evictions,
                        "source_bytes": stats.source_bytes}
                for label, stats in aggregate_stats().items()
            },
        }

    def prometheus_metrics(
            self, now: Optional[float] = None) -> str:
        """The same metrics in Prometheus text exposition v0.0.4.

        Service-level sections of :meth:`metrics` are flattened into
        ``repro_service_*`` families; the unified process registry
        (kernel counters, FI outcomes, compile-cache counters absorbed
        from workers) is appended verbatim.
        """
        doc = self.metrics(now)
        service = doc["service"]
        queue = doc["queue"]
        workers = doc["workers"]
        cache = doc["cache"]
        jobs = doc["jobs"]
        families = [
            ("repro_service_uptime_seconds", "gauge",
             "Seconds since service start",
             [({}, service["uptime_seconds"])]),
            ("repro_service_jobs", "gauge",
             "Jobs by state",
             [({"state": state}, count)
              for state, count in sorted(jobs["by_state"].items())]),
            ("repro_service_jobs_submitted_total", "counter",
             "Jobs submitted by kind",
             [({"kind": kind}, count)
              for kind, count in sorted(jobs["by_kind"].items())]),
            ("repro_service_job_retries_total", "counter",
             "Task retries charged to jobs", [({}, jobs["retries"])]),
            ("repro_service_row_cache_hits_total", "counter",
             "Corpus rows served from the per-row cache",
             [({}, jobs["row_cache_hits"])]),
            ("repro_service_tasks_ready", "gauge",
             "Tasks in the ready heap", [({}, queue["tasks_ready"])]),
            ("repro_service_tasks_deferred", "gauge",
             "Tasks in retry backoff",
             [({}, queue["tasks_deferred"])]),
            ("repro_service_tasks_inflight", "gauge",
             "Tasks running on shards",
             [({}, queue["tasks_inflight"])]),
            ("repro_service_shards", "gauge",
             "Shard counts by disposition",
             [({"state": "live"}, workers["live"]),
              ({"state": "busy"}, workers["busy"])]),
            ("repro_service_shard_tasks_done_total", "counter",
             "Tasks completed across all shards",
             [({}, workers["tasks_done"])]),
            ("repro_service_shard_crashes_total", "counter",
             "Worker crashes observed", [({}, workers["crashes"])]),
            ("repro_service_shard_hangs_total", "counter",
             "Worker hangs killed", [({}, workers["hangs"])]),
            ("repro_service_shard_respawns_total", "counter",
             "Shards respawned after a crash",
             [({}, workers["respawns"])]),
            ("repro_service_shard_retired_total", "counter",
             "Shards retired after exhausting their crash budget",
             [({}, workers["retired"])]),
            ("repro_service_result_cache_entries", "gauge",
             "Entries in the result cache", [({}, cache["entries"])]),
            ("repro_service_result_cache_hits_total", "counter",
             "Result cache hits", [({}, cache["hits"])]),
            ("repro_service_result_cache_misses_total", "counter",
             "Result cache misses", [({}, cache["misses"])]),
            ("repro_service_result_cache_evictions_total", "counter",
             "Result cache evictions", [({}, cache["evictions"])]),
        ]
        if self._latency:
            families.append(
                ("repro_service_job_seconds", "histogram",
                 "Wall-clock job latency by kind",
                 [({"kind": kind}, self._latency[kind])
                  for kind in sorted(self._latency)]))
        return render_prometheus(families) + REGISTRY.to_prometheus()
