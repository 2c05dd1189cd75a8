"""Sharded worker pool of the campaign service.

Each *shard* is one long-lived worker process with its own task and
result queues; the service dispatches at most one task to a shard at a
time (the central priority heap stays in the parent, so a high-priority
job never queues behind a low-priority one inside a shard's mailbox).
Workers keep the per-process build caches of the underlying subsystems
warm across tasks -- the compiled-simulation amortisation the one-shot
CLI pools rebuilt on every run.

Health is tracked per shard and enforced by :meth:`ShardPool.poll`:

* **crash** -- the worker process died mid-task (killed, segfault,
  ``os._exit``).  The in-flight task is handed back for a bounded
  retry with exponential backoff; the shard is respawned, until its
  crash budget is exhausted -- then it stays dead and the remaining
  shards absorb its share of the queue (graceful degradation).
* **hang** -- the task exceeded its wall-clock hang budget (the
  service-level analogue of the FI campaign's cycle-budget hang
  class).  The worker cannot be interrupted from outside a
  cooperative runtime, so the shard is terminated and treated exactly
  like a crash.
* **error** -- the task raised.  Deterministic task failures are not
  retried (a retry would fail identically); the error is surfaced to
  the owning job.

``poll`` returns plain event tuples; the service core owns all
scheduling policy (priorities, backoff timing, retry charging).
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..obs.trace import TracedTask, absorb_telemetry, current_context


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


def _shard_main(shard_id: int, task_q, result_q) -> None:
    """Worker loop: one task at a time, each run under
    :class:`~repro.obs.trace.TracedTask` so its result comes back with
    its spans and metrics delta (or its error is shipped back); ``None``
    is the shutdown sentinel."""
    import signal

    # the parent owns Ctrl-C handling and tears shards down explicitly
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    from .tasks import execute_task

    while True:
        item = task_q.get()
        if item is None:
            return
        task_id, payload, trace_ctx = item
        try:
            outcome = TracedTask(execute_task, trace_ctx)(payload)
            result_q.put(("ok", task_id, outcome))
        except BaseException as exc:  # ship the failure, keep serving
            result_q.put(("err", task_id,
                          f"{type(exc).__name__}: {exc}"))


@dataclass
class TaskRef:
    """Parent-side handle of one dispatched unit of work."""

    id: int
    job_id: str
    index: int                      # task index within its job
    payload: Dict[str, object]
    units: int = 1
    attempts: int = 0
    hang_budget_s: float = 120.0


@dataclass
class _Shard:
    id: int
    proc: Optional[object] = None
    task_q: Optional[object] = None
    result_q: Optional[object] = None
    current: Optional[TaskRef] = None
    busy_since: float = 0.0
    dead: bool = False
    crashes: int = 0
    hangs: int = 0
    tasks_done: int = 0
    busy_seconds: float = 0.0

    def as_dict(self, now: float) -> Dict[str, object]:
        return {
            "id": self.id,
            "alive": self.alive,
            "busy": self.current is not None,
            "task": self.current.id if self.current else None,
            "job": self.current.job_id if self.current else None,
            "busy_for_s": (round(now - self.busy_since, 3)
                           if self.current else 0.0),
            "crashes": self.crashes,
            "hangs": self.hangs,
            "tasks_done": self.tasks_done,
        }

    @property
    def alive(self) -> bool:
        return (not self.dead and self.proc is not None
                and self.proc.is_alive())


class ShardPool:
    """A fixed roster of worker shards with health enforcement."""

    def __init__(self, n_shards: int = 2, max_crashes: int = 2) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.max_crashes = max_crashes
        self._ctx = _mp_context()
        self.shards = [_Shard(id=i) for i in range(n_shards)]
        self.started = False
        self.total_crashes = 0
        self.total_hangs = 0
        self.total_respawns = 0
        self.total_retired = 0
        self._started_at = 0.0

    # -- lifecycle -----------------------------------------------------

    def _spawn(self, shard: _Shard) -> None:
        shard.task_q = self._ctx.Queue()
        shard.result_q = self._ctx.Queue()
        shard.proc = self._ctx.Process(
            target=_shard_main,
            args=(shard.id, shard.task_q, shard.result_q),
            daemon=True, name=f"repro-shard-{shard.id}")
        shard.proc.start()
        shard.current = None

    def start(self) -> None:
        if self.started:
            return
        for shard in self.shards:
            self._spawn(shard)
        self.started = True
        self._started_at = time.time()

    def stop(self) -> None:
        """Tear every shard down: sentinel, bounded join, terminate."""
        for shard in self.shards:
            if shard.proc is None:
                continue
            if shard.proc.is_alive():
                try:
                    shard.task_q.put(None)
                except Exception:
                    pass
            shard.proc.join(timeout=1.0)
            if shard.proc.is_alive():
                shard.proc.terminate()
                shard.proc.join(timeout=5.0)
            shard.proc = None
            shard.current = None
        self.started = False

    def kill_shard(self, shard_id: int) -> bool:
        """Hard-kill one worker process (chaos testing / ops).

        The next :meth:`poll` observes the death and runs the regular
        crash path: requeue the in-flight task, respawn or retire the
        shard.
        """
        shard = self.shards[shard_id]
        if shard.proc is None or not shard.proc.is_alive():
            return False
        shard.proc.terminate()
        shard.proc.join(timeout=5.0)
        return True

    # -- dispatch ------------------------------------------------------

    def free_shards(self) -> List[int]:
        return [s.id for s in self.shards
                if s.alive and s.current is None]

    @property
    def live_shards(self) -> int:
        return sum(1 for s in self.shards if not s.dead)

    @property
    def busy_shards(self) -> int:
        return sum(1 for s in self.shards if s.current is not None)

    def dispatch(self, shard_id: int, task: TaskRef,
                 now: Optional[float] = None) -> None:
        shard = self.shards[shard_id]
        if shard.current is not None or not shard.alive:
            raise RuntimeError(f"shard {shard_id} is not free")
        shard.current = task
        shard.busy_since = time.time() if now is None else now
        shard.task_q.put((task.id, task.payload, current_context()))

    # -- health + results ----------------------------------------------

    def _finish(self, shard: _Shard, now: float) -> TaskRef:
        task = shard.current
        shard.current = None
        shard.busy_seconds += now - shard.busy_since
        return task

    def _handle_death(self, shard: _Shard, now: float, kind: str,
                      events: List[Tuple]) -> None:
        """Common crash/hang path: charge the shard, surface the task,
        respawn or retire."""
        task = self._finish(shard, now) if shard.current else None
        shard.crashes += 1
        self.total_crashes += 1
        if kind == "hang":
            shard.hangs += 1
            self.total_hangs += 1
        if shard.proc is not None and shard.proc.is_alive():
            shard.proc.terminate()
            shard.proc.join(timeout=5.0)
        if shard.crashes > self.max_crashes:
            shard.dead = True
            shard.proc = None
            self.total_retired += 1
            events.append(("shard_dead", shard.id, None))
        else:
            self._spawn(shard)
            self.total_respawns += 1
            events.append(("shard_respawned", shard.id, None))
        if task is not None:
            events.append((kind, task, None))

    def poll(self, now: Optional[float] = None) -> List[Tuple]:
        """Drain results and enforce health; returns event tuples.

        Events: ``("done", task, result)``, ``("error", task, msg)``,
        ``("crash", task, None)``, ``("hang", task, None)``,
        ``("shard_respawned", shard_id, None)``,
        ``("shard_dead", shard_id, None)``.  A finished task's spans and
        metrics delta are folded into this process as it is drained.
        """
        now = time.time() if now is None else now
        events: List[Tuple] = []
        for shard in self.shards:
            if shard.dead or shard.proc is None:
                continue
            # drain this shard's results
            while shard.result_q is not None:
                try:
                    status, task_id, outcome = \
                        shard.result_q.get_nowait()
                except Exception:
                    break
                if status == "ok":
                    outcome, telemetry = outcome
                    absorb_telemetry(telemetry)
                if shard.current is None or shard.current.id != task_id:
                    continue  # stale message from a reassigned task
                task = self._finish(shard, now)
                shard.tasks_done += 1
                events.append(("done" if status == "ok" else "error",
                               task, outcome))
            if not shard.proc.is_alive():
                self._handle_death(shard, now, "crash", events)
            elif (shard.current is not None
                  and now - shard.busy_since
                  > shard.current.hang_budget_s):
                self._handle_death(shard, now, "hang", events)
        return events

    # -- metrics -------------------------------------------------------

    def utilization(self, now: Optional[float] = None
                    ) -> Dict[str, object]:
        now = time.time() if now is None else now
        live = self.live_shards
        busy = self.busy_shards
        busy_seconds = sum(s.busy_seconds for s in self.shards)
        for s in self.shards:
            if s.current is not None:
                busy_seconds += now - s.busy_since
        uptime = max(now - self._started_at, 1e-9) if self.started \
            else 0.0
        capacity = uptime * max(live, 1)
        return {
            "shards": len(self.shards),
            "live": live,
            "busy": busy,
            "utilization": round(busy / live, 4) if live else 0.0,
            "busy_seconds": round(busy_seconds, 3),
            "cumulative_utilization": (round(busy_seconds / capacity, 4)
                                       if capacity else 0.0),
            "tasks_done": sum(s.tasks_done for s in self.shards),
            "crashes": self.total_crashes,
            "hangs": self.total_hangs,
            "respawns": self.total_respawns,
            "retired": self.total_retired,
            "detail": [s.as_dict(now) for s in self.shards],
        }
