"""Job planning, worker-side task execution and result aggregation.

The service decomposes every job into *tasks* -- the shard pool's unit
of dispatch, retry and progress:

* **fi**       -- one task per faultload slice of ``batch_size``
  faults, classified with the campaign subsystem's runners (one batch
  where the engine holds several patterns at the level, else one run
  per fault);
* **verify**   -- one task per stimulus case through the differential
  runner;
* **corpus**   -- one task per corpus member through the full
  refine/verify/synthesize/inject/harden pipeline.

Every task payload is a plain JSON-serialisable dict, self-contained
and deterministic: a worker rebuilds its state from the payload alone
(via the per-process ``_init_worker`` caches of the underlying
subsystems), so a task can be retried on any shard after a crash and
produce the identical result.  ``execute_task`` is the single worker
entry point; the ``sleep``/``crash`` ops exist for pool health tests
and operational smoke checks.

Planning happens in the service parent: it builds the deterministic
faultload / case roster / corpus roster once, derives the
content-addressed :class:`~repro.service.cache.ResultKey` (design
digest via ``module_digest``, workload digest over the actual fault or
stimulus content), and splits the work.  Corpus jobs additionally get
*per-row* keys, so individual design rows are served from the cache
even when the enclosing job differs -- this is the evaluation backend
the ROADMAP's design-space-exploration item needs.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..obs.trace import span
from .cache import ResultKey, canonical_json, digest_of
from .jobs import JobError, JobSpec

#: result-dict keys reserved for worker telemetry piggy-backed on task
#: results: spans, compile-cache counter deltas and a metrics-registry
#: delta.  Attached by ``_shard_main`` only when non-empty; popped by
#: ``CampaignService._collect`` before aggregation.
RESERVED_RESULT_KEYS = ("_spans", "_cache", "_metrics")


def resolve_params(name: str):
    from ..src_design.params import PAPER_PARAMS, SMALL_PARAMS

    return PAPER_PARAMS if name == "paper" else SMALL_PARAMS


def _design_digest(params) -> str:
    """``module_digest`` over the optimised RTL -- the design identity
    every level of the flow refines from."""
    from ..corpus.designs import module_digest
    from ..flow.refinement import Level, build_module

    return module_digest(build_module(params, Level.RTL_OPT))


def _fault_digest(faults) -> str:
    """Content digest over a concrete faultload."""
    return digest_of([[f.index, f.model, f.level, f.target_kind,
                       f.target, f.uid, f.bit, f.address, f.value,
                       f.cycle, f.duration] for f in faults])


# ----------------------------------------------------------------------
# planning (service parent)
# ----------------------------------------------------------------------

@dataclass
class TaskPlan:
    """One worker task: payload, position and progress weight."""

    index: int
    payload: Dict[str, object]
    units: int


@dataclass
class JobPlan:
    """Everything the service needs to run and aggregate one job."""

    key: ResultKey
    unit: str
    units_total: int
    tasks: List[TaskPlan]
    design: str
    #: aggregation context (workload frames, budgets, ...)
    meta: Dict[str, object] = field(default_factory=dict)
    #: corpus only: task index -> per-row cache key digest
    row_keys: Dict[int, str] = field(default_factory=dict)


def _fi_config(spec: JobSpec):
    """The campaign config of an fi job; ``chunk`` is its batch size
    (faults per task on an engine without a batch at the level)."""
    from ..fi.campaign import CampaignConfig, CampaignError

    models = spec.option("models")
    kwargs = {}
    if models:
        kwargs["models"] = tuple(models)
    if spec.option("chunk") is not None:
        kwargs["batch_size"] = spec.option("chunk")
    try:
        return CampaignConfig(
            params=resolve_params(spec.params),
            level=spec.option("level", "rtl"),
            n_faults=spec.option("n_faults", 32),
            seed=spec.option("seed", 0),
            budget=spec.option("budget", "small"),
            backend=spec.option("backend", "compiled"),
            **kwargs).validated()
    except CampaignError as exc:
        raise JobError(f"bad fi options: {exc}") from None


def plan_fi(spec: JobSpec, n_shards: int) -> JobPlan:
    from ..fi import campaign as C

    config = _fi_config(spec)
    C._init_worker(config.params, config.level, config.seed,
                   config.budget, config.backend)
    faults, design = C.campaign_faultload(config)
    workload = C._WORKER["workload"]

    chunk = config.batch_size
    base = {
        "op": "fi",
        "params": spec.params,
        "level": config.level,
        "backend": config.backend,
        "seed": config.seed,
        "budget": config.budget,
        "models": list(config.models),
        "n_faults": config.n_faults,
    }
    tasks = []
    for i, lo in enumerate(range(0, len(faults), chunk)):
        hi = min(lo + chunk, len(faults))
        payload = dict(base)
        payload.update(lo=lo, hi=hi)
        tasks.append(TaskPlan(index=i, payload=payload, units=hi - lo))

    key = ResultKey(
        kind="fi",
        design_digest=_design_digest(config.params),
        workload_digest=_fault_digest(faults),
        workload_seed=config.seed,
        backend=config.backend,
        extra=digest_of({"level": config.level, "budget": config.budget,
                         "params": spec.params}))
    return JobPlan(
        key=key, unit="faults", units_total=len(faults), tasks=tasks,
        design=design,
        meta={"level": config.level, "backend": config.backend,
              "seed": config.seed, "budget": config.budget,
              "design": design, "params": spec.params,
              "workload_frames": workload.case.n_inputs,
              "cycle_budget": workload.cycle_budget})


def plan_verify(spec: JobSpec, n_shards: int) -> JobPlan:
    from ..verify.harness import BUDGETS
    from ..verify.runner import parse_level_specs

    params = resolve_params(spec.params)
    levels = spec.option("levels", "beh,rtl")
    backend = spec.option("backend", "compiled")
    seed = spec.option("seed", 0)
    budget_name = spec.option("budget", "small")
    try:
        parse_level_specs(levels, backend)
    except Exception as exc:
        raise JobError(f"bad verify levels/backend: {exc}") from None
    budget = BUDGETS[budget_name]

    base = {"op": "verify", "params": spec.params, "levels": levels,
            "backend": backend, "seed": seed, "budget": budget_name}
    tasks = []
    for i in range(budget.n_cases):
        payload = dict(base)
        payload["index"] = i
        tasks.append(TaskPlan(index=i, payload=payload, units=1))

    key = ResultKey(
        kind="verify",
        design_digest=_design_digest(params),
        workload_digest=digest_of({"levels": levels,
                                   "n_cases": budget.n_cases,
                                   "n_inputs": budget.n_inputs}),
        workload_seed=seed,
        backend=backend,
        extra=digest_of({"budget": budget_name,
                         "params": spec.params}))
    return JobPlan(
        key=key, unit="cases", units_total=budget.n_cases, tasks=tasks,
        design="src",
        meta={"levels": levels, "backend": backend, "seed": seed,
              "budget": budget_name, "params": spec.params,
              "n_cases": budget.n_cases, "n_inputs": budget.n_inputs})


def _corpus_config(spec: JobSpec):
    from ..corpus.matrix import CORPUS_BUDGETS, CorpusConfig

    budget = spec.option("budget", "smoke")
    if budget not in CORPUS_BUDGETS:
        raise JobError(f"unknown corpus budget {budget!r}")
    models = spec.option("models") or ["seu"]
    return CorpusConfig(
        seed=spec.option("seed", 0),
        n_designs=spec.option("n_designs", 3),
        budget=budget,
        backend=spec.option("backend", "compiled"),
        strategy=spec.option("strategy", "tmr"),
        models=tuple(models),
        jobs=1)


def corpus_row_key(design_spec, config) -> ResultKey:
    """The per-row cache key of one corpus member.

    A :class:`~repro.corpus.designs.DesignSpec` fully determines the
    member (hashable, serialisable -- the "design point" record of the
    ROADMAP's DSE item), so its digest plus the evaluation knobs
    addresses the row content.
    """
    from ..corpus.matrix import CORPUS_BUDGETS

    b = CORPUS_BUDGETS[config.budget]
    return ResultKey(
        kind="corpus-row",
        design_digest=digest_of(design_spec.as_dict()),
        workload_digest=digest_of({"n_frames": b.n_frames,
                                   "n_tx": b.n_tx,
                                   "n_faults": b.n_faults,
                                   "harden_top": b.harden_top}),
        workload_seed=design_spec.seed,
        backend=config.backend,
        extra=digest_of({"strategy": config.strategy,
                         "models": list(config.models)}))


def plan_corpus(spec: JobSpec, n_shards: int) -> JobPlan:
    from ..corpus.designs import generate_corpus
    from ..corpus.matrix import CORPUS_BUDGETS

    config = _corpus_config(spec)
    b = CORPUS_BUDGETS[config.budget]
    roster = generate_corpus(config.seed, config.n_designs,
                             n_frames=b.n_frames, n_tx=b.n_tx)

    base = {"op": "corpus", "seed": config.seed,
            "n_designs": config.n_designs, "budget": config.budget,
            "backend": config.backend, "strategy": config.strategy,
            "models": list(config.models)}
    tasks = []
    row_keys: Dict[int, str] = {}
    for i, design_spec in enumerate(roster):
        payload = dict(base)
        payload["index"] = i
        tasks.append(TaskPlan(index=i, payload=payload, units=1))
        row_keys[i] = corpus_row_key(design_spec, config).digest()

    key = ResultKey(
        kind="corpus",
        design_digest=digest_of([s.as_dict() for s in roster]),
        workload_digest=digest_of(sorted(row_keys.items())),
        workload_seed=config.seed,
        backend=config.backend,
        extra=digest_of({"budget": config.budget,
                         "strategy": config.strategy,
                         "models": list(config.models)}))
    return JobPlan(
        key=key, unit="designs", units_total=len(roster), tasks=tasks,
        design=f"corpus[{config.n_designs}]",
        meta={"seed": config.seed, "n_designs": config.n_designs,
              "budget": config.budget, "backend": config.backend,
              "strategy": config.strategy,
              "models": list(config.models)},
        row_keys=row_keys)


_PLANNERS = {"fi": plan_fi, "verify": plan_verify, "corpus": plan_corpus}


def plan_job(spec: JobSpec, n_shards: int) -> JobPlan:
    return _PLANNERS[spec.kind](spec, n_shards)


# ----------------------------------------------------------------------
# worker-side execution
# ----------------------------------------------------------------------

def _run_fi_task(payload: Dict[str, object]) -> Dict[str, object]:
    from ..fi import campaign as C

    spec = JobSpec(kind="fi", params=payload["params"],
                   options=tuple(sorted({
                       "level": payload["level"],
                       "backend": payload["backend"],
                       "seed": payload["seed"],
                       "budget": payload["budget"],
                       "models": payload["models"],
                       "n_faults": payload["n_faults"],
                   }.items())))
    config = _fi_config(spec)
    C._init_worker(config.params, config.level, config.seed,
                   config.budget, config.backend)
    faults, _ = C.campaign_faultload(config)
    records = C._fi_task(faults[payload["lo"]:payload["hi"]])[0]
    return {"records": [r.as_dict() for r in records]}


def _run_verify_task(payload: Dict[str, object]) -> Dict[str, object]:
    from ..verify.harness import BUDGETS, _WORKER, _init_verify_worker
    from ..verify.runner import run_differential
    from ..verify.stimulus import generate_cases

    params = resolve_params(payload["params"])
    _init_verify_worker(params, payload["levels"], payload["backend"])
    budget = BUDGETS[payload["budget"]]
    cases = generate_cases(params, payload["seed"], budget.n_cases,
                           budget.n_inputs)
    case = cases[payload["index"]]
    report = run_differential(params, _WORKER["specs"], case,
                              _WORKER["builds"])
    return {"case": {
        "index": payload["index"],
        "passed": report.passed,
        "checks": len(report.diffs),
        "failures": [d.format() for d in report.failures],
    }}


def _run_corpus_task(payload: Dict[str, object]) -> Dict[str, object]:
    from ..corpus.designs import generate_corpus
    from ..corpus.matrix import (CORPUS_BUDGETS, CorpusConfig,
                                 run_design)

    config = CorpusConfig(
        seed=payload["seed"], n_designs=payload["n_designs"],
        budget=payload["budget"], backend=payload["backend"],
        strategy=payload["strategy"], models=tuple(payload["models"]),
        jobs=1)
    b = CORPUS_BUDGETS[config.budget]
    spec = generate_corpus(config.seed, config.n_designs,
                           n_frames=b.n_frames, n_tx=b.n_tx)[
                               payload["index"]]
    return {"row": run_design(spec, config)}


def execute_task(payload: Dict[str, object]) -> Dict[str, object]:
    """Worker entry point: run one task payload to its result dict."""
    op = payload.get("op")
    with span("service.task", op=op):
        if op == "fi":
            return _run_fi_task(payload)
        if op == "verify":
            return _run_verify_task(payload)
        if op == "corpus":
            return _run_corpus_task(payload)
        if op == "sleep":           # pool health tests / ops smoke
            time.sleep(float(payload.get("seconds", 0.1)))
            return {"slept": payload.get("seconds", 0.1)}
        if op == "crash":           # simulates a hard worker death
            os._exit(13)
        raise JobError(f"unknown task op {op!r}")


# ----------------------------------------------------------------------
# aggregation (service parent)
# ----------------------------------------------------------------------

def _normalise(doc: object) -> object:
    """JSON round-trip: tuples -> lists, so cached and fresh results
    are structurally identical."""
    import json

    return json.loads(canonical_json(doc))


def aggregate_fi(meta: Dict[str, object],
                 task_results: Dict[int, Dict[str, object]]
                 ) -> Dict[str, object]:
    from ..fi.report import OUTCOMES

    records: List[Dict[str, object]] = []
    for index in sorted(task_results):
        records.extend(task_results[index]["records"])
    records.sort(key=lambda r: r["index"])

    def tally(rows):
        counts = {name: 0 for name in OUTCOMES}
        for row in rows:
            counts[row["outcome"]] += 1
        return counts

    by_model: Dict[str, Dict[str, int]] = {}
    by_kind: Dict[str, Dict[str, int]] = {}
    for row in records:
        by_model.setdefault(row["model"], {n: 0 for n in OUTCOMES})[
            row["outcome"]] += 1
        by_kind.setdefault(row["target_kind"], {n: 0 for n in OUTCOMES})[
            row["outcome"]] += 1
    from ..obs.metrics import REGISTRY
    for outcome, count in tally(records).items():
        if count:
            REGISTRY.counter(
                "repro_fi_outcomes_total",
                help="Fault classifications by outcome",
                level=meta["level"], outcome=outcome).inc(count)
    return _normalise({
        "kind": "fi",
        "campaign": {
            "level": meta["level"],
            "design": meta["design"],
            "backend": meta["backend"],
            "seed": meta["seed"],
            "budget": meta["budget"],
            "params": meta["params"],
            "n_faults": len(records),
            "workload_frames": meta["workload_frames"],
            "cycle_budget": meta["cycle_budget"],
        },
        "classification": tally(records),
        "by_model": by_model,
        "by_target_kind": by_kind,
        "results": records,
    })


def aggregate_verify(meta: Dict[str, object],
                     task_results: Dict[int, Dict[str, object]]
                     ) -> Dict[str, object]:
    cases = [task_results[i]["case"] for i in sorted(task_results)]
    return _normalise({
        "kind": "verify",
        "verify": {
            "levels": meta["levels"],
            "backend": meta["backend"],
            "seed": meta["seed"],
            "budget": meta["budget"],
            "params": meta["params"],
            "n_cases": meta["n_cases"],
            "n_inputs": meta["n_inputs"],
        },
        "passed": all(c["passed"] for c in cases),
        "checks": sum(c["checks"] for c in cases),
        "cases": cases,
    })


def aggregate_corpus(meta: Dict[str, object],
                     task_results: Dict[int, Dict[str, object]]
                     ) -> Dict[str, object]:
    from ..corpus.matrix import CorpusConfig, CorpusReport

    rows = [task_results[i]["row"] for i in sorted(task_results)]
    config = CorpusConfig(
        seed=meta["seed"], n_designs=meta["n_designs"],
        budget=meta["budget"], backend=meta["backend"],
        strategy=meta["strategy"], models=tuple(meta["models"]), jobs=1)
    report = CorpusReport(config=config, rows=rows)
    return _normalise({
        "kind": "corpus",
        "corpus": {
            "seed": meta["seed"],
            "n_designs": meta["n_designs"],
            "budget": meta["budget"],
            "backend": meta["backend"],
            "strategy": meta["strategy"],
            "models": list(meta["models"]),
        },
        "rows": rows,
        "summary": report.summary(),
        "passed": report.passed,
    })


_AGGREGATORS = {"fi": aggregate_fi, "verify": aggregate_verify,
                "corpus": aggregate_corpus}


def aggregate_job(kind: str, meta: Dict[str, object],
                  task_results: Dict[int, Dict[str, object]]
                  ) -> Dict[str, object]:
    return _AGGREGATORS[kind](meta, task_results)
