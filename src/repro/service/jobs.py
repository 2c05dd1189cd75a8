"""Job model of the campaign service: specs, states, priority queue.

A *job* is one unit of client-visible work -- a differential **verify**
run, a fault-injection (**fi**) campaign, or a **corpus** matrix slice
-- submitted as JSON over the HTTP API.  The service plans a job into
worker *tasks* (fault batches, stimulus cases, corpus designs), runs
them on the shard pool, and aggregates the task results into one
result document.

Lifecycle::

    queued -> running -> done
                     \\-> failed      (task retries exhausted)
       \\----------------> cancelled  (client request)
       \\----------------> expired    (per-job deadline passed)

Jobs carry a priority (higher first; FIFO within a priority), an
optional deadline in seconds since submission, a bounded retry budget
for worker crashes, and an append-only event log that feeds the
``/jobs/<id>/events`` stream.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..engines import ENGINES, GROUPS, batch_engines
from .cache import RESULT_SCHEMA_VERSION

JOB_KINDS = ("verify", "fi", "corpus")
JOB_STATES = ("queued", "running", "done", "failed", "cancelled",
              "expired")
#: states a job never leaves
TERMINAL_STATES = ("done", "failed", "cancelled", "expired")

#: option names accepted per job kind (beyond the common fields)
JOB_OPTIONS: Dict[str, Tuple[str, ...]] = {
    "verify": ("levels", "backend", "seed", "budget"),
    "fi": ("level", "backend", "seed", "budget", "n_faults", "models",
           "chunk"),
    "corpus": ("backend", "seed", "budget", "n_designs", "strategy",
               "models"),
}

_BUDGETS = ("smoke", "small", "medium", "large")


class JobError(ValueError):
    """A malformed or unsatisfiable job submission."""


@dataclass(frozen=True)
class JobSpec:
    """A validated job submission (pure data, deterministic planning)."""

    kind: str
    params: str = "small"            # named parameter set
    priority: int = 0                # higher runs first
    deadline_s: Optional[float] = None
    hang_budget_s: Optional[float] = None  # per-task override
    options: Tuple[Tuple[str, object], ...] = ()

    def option(self, name: str, default=None):
        for key, value in self.options:
            if key == name:
                return value
        return default

    def options_dict(self) -> Dict[str, object]:
        return dict(self.options)

    @classmethod
    def parse(cls, doc: object) -> "JobSpec":
        """Validate a JSON submission into a spec; raises JobError."""
        if not isinstance(doc, dict):
            raise JobError("job submission must be a JSON object")
        kind = doc.get("kind")
        if kind not in JOB_KINDS:
            raise JobError(f"unknown job kind {kind!r} "
                           f"(expected one of {JOB_KINDS})")
        params = doc.get("params", "small")
        if params not in ("small", "paper"):
            raise JobError(f"unknown params {params!r} "
                           "(expected 'small' or 'paper')")
        priority = doc.get("priority", 0)
        if not isinstance(priority, int):
            raise JobError("priority must be an integer")
        deadline_s = doc.get("deadline_s")
        if deadline_s is not None and (
                not isinstance(deadline_s, (int, float))
                or deadline_s <= 0):
            raise JobError("deadline_s must be a positive number")
        hang_budget_s = doc.get("hang_budget_s")
        if hang_budget_s is not None and (
                not isinstance(hang_budget_s, (int, float))
                or hang_budget_s <= 0):
            raise JobError("hang_budget_s must be a positive number")
        known = {"kind", "params", "priority", "deadline_s",
                 "hang_budget_s", "options"}
        extra = set(doc) - known
        if extra:
            raise JobError(f"unknown job fields: {sorted(extra)}")
        options = doc.get("options", {})
        if not isinstance(options, dict):
            raise JobError("options must be a JSON object")
        allowed = JOB_OPTIONS[kind]
        bad = set(options) - set(allowed)
        if bad:
            raise JobError(f"unknown {kind} options: {sorted(bad)} "
                           f"(allowed: {sorted(allowed)})")
        budget = options.get("budget", "small")
        if budget not in _BUDGETS:
            raise JobError(f"unknown budget {budget!r} "
                           f"(known: {', '.join(_BUDGETS)})")
        for name in ("seed", "n_faults", "n_designs", "chunk"):
            if name in options and not isinstance(options[name], int):
                raise JobError(f"option {name} must be an integer")
        if options.get("n_faults", 1) < 1:
            raise JobError("n_faults must be >= 1")
        if options.get("n_designs", 1) < 1:
            raise JobError("n_designs must be >= 1")
        if options.get("chunk", 1) < 1:
            raise JobError("chunk must be >= 1")
        valid = {"verify": tuple(ENGINES) + tuple(GROUPS),
                 "fi": batch_engines(),
                 "corpus": batch_engines("gate")}[kind]
        if "backend" in options and options["backend"] not in valid:
            raise JobError(f"unknown {kind} backend "
                           f"{options['backend']!r} "
                           f"(expected one of {valid})")
        return cls(kind=kind, params=params, priority=priority,
                   deadline_s=(float(deadline_s)
                               if deadline_s is not None else None),
                   hang_budget_s=(float(hang_budget_s)
                                  if hang_budget_s is not None else None),
                   options=tuple(sorted(options.items())))


@dataclass
class Job:
    """One submitted job and everything the service knows about it."""

    id: str
    spec: JobSpec
    submitted_at: float
    state: str = "queued"
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: planned task count and completion progress
    tasks_total: int = 0
    tasks_done: int = 0
    #: work units (faults / cases / designs) for progress reporting
    unit: str = ""
    units_total: int = 0
    units_done: int = 0
    #: worker-crash retries spent on this job's tasks
    retries: int = 0
    error: Optional[str] = None
    #: content-addressing outcome: key digest, whether it was served
    #: from the cache, and whether the fresh result was stored
    cache_key: Optional[str] = None
    cache_hit: bool = False
    cache_stored: bool = False
    #: corpus jobs: per-row cache hits (rows served without simulation)
    row_cache_hits: int = 0
    result: Optional[Dict[str, object]] = None
    events: List[Dict[str, object]] = field(default_factory=list)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def deadline_at(self) -> Optional[float]:
        if self.spec.deadline_s is None:
            return None
        return self.submitted_at + self.spec.deadline_s

    @property
    def wall_seconds(self) -> Optional[float]:
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    def add_event(self, event_kind: str, now: float, **fields) -> None:
        t = round(now - self.submitted_at, 4)
        if self.events and t <= self.events[-1]["t"]:
            # the event log is a strictly ordered history: several
            # events landing in one scheduler tick (e.g. the final
            # "progress" and its "done") share a clock reading, so
            # nudge past the predecessor to keep the order explicit
            t = round(self.events[-1]["t"] + 0.0001, 4)
        event = {"event": event_kind, "job": self.id, "t": t}
        event.update(fields)
        self.events.append(event)

    def finish(self, state: str, now: float,
               error: Optional[str] = None) -> None:
        self.state = state
        self.finished_at = now
        self.error = error
        self.add_event(state, now,
                       **({"error": error} if error else {}))

    def as_dict(self, include_result: bool = False) -> Dict[str, object]:
        doc: Dict[str, object] = {
            "id": self.id,
            "kind": self.spec.kind,
            "params": self.spec.params,
            "state": self.state,
            "priority": self.spec.priority,
            "schema_version": RESULT_SCHEMA_VERSION,
            "options": self.spec.options_dict(),
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "deadline_s": self.spec.deadline_s,
            "wall_seconds": self.wall_seconds,
            "progress": {
                "tasks_total": self.tasks_total,
                "tasks_done": self.tasks_done,
                "unit": self.unit,
                "units_total": self.units_total,
                "units_done": self.units_done,
            },
            "retries": self.retries,
            "error": self.error,
            "cache": {
                "key": self.cache_key,
                "hit": self.cache_hit,
                "stored": self.cache_stored,
                "row_hits": self.row_cache_hits,
            },
        }
        if include_result:
            doc["result"] = self.result
        return doc


class JobQueue:
    """Priority queue of queued jobs: higher priority first, FIFO
    within a priority; supports lazy removal for cancellation."""

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, str]] = []
        self._seq = itertools.count()
        self._gone: set = set()

    def push(self, job: Job) -> None:
        heapq.heappush(self._heap,
                       (-job.spec.priority, next(self._seq), job.id))

    def discard(self, job_id: str) -> None:
        self._gone.add(job_id)

    def pop(self) -> Optional[str]:
        while self._heap:
            _, _, job_id = heapq.heappop(self._heap)
            if job_id in self._gone:
                self._gone.discard(job_id)
                continue
            return job_id
        return None

    def __len__(self) -> int:
        return sum(1 for _, _, job_id in self._heap
                   if job_id not in self._gone)


def new_job_id(counter: int) -> str:
    return f"j{counter:06d}"


def now_s() -> float:
    return time.time()
