"""The differential verification harness (``python -m repro verify``).

Orchestrates the pieces of :mod:`repro.verify`: generates a budgeted,
seeded batch of stimulus cases, runs every requested abstraction level
over every case through the lockstep differential runner, shrinks any
failure to a short counterexample, and aggregates input-value and
port-toggle coverage.

This is the standing correctness gate of the repository: any change to
the kernel, the RTL/gate simulators or the synthesis flow must keep
``python -m repro verify --seed 0 --budget small`` clean, and the
``--self-check`` mode proves the gate still has teeth by injecting a
netlist mutation that *must* be caught and shrunk.

Cases run through one loop for every job count (``parallel_map``): a
pooled case's spans and counts come back with its report through
:class:`~repro.obs.trace.TracedTask`, like every worker task's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..engines import expand
from ..flow.refinement import Level
from ..obs.trace import span
from ..src_design.params import SMALL_PARAMS, SrcParams
from ..synth import synthesize
from .coverage import InputCoverage, ToggleCoverage
from .mutate import Mutation, iter_mutations
from .runner import (DEFAULT_LEVELS, CaseReport, LevelBuilds, LevelSpec,
                     case_timing, diff_against_reference, golden_outputs,
                     parse_level_specs, run_case_level, run_differential)
from .shrink import ShrinkResult, shrink_case
from .stimulus import StimulusCase, generate_cases


@dataclass(frozen=True)
class Budget:
    """How much work one verification run may spend."""

    name: str
    n_cases: int
    n_inputs: int
    shrink_runs: int
    mutation_tries: int


BUDGETS: Dict[str, Budget] = {
    "smoke": Budget("smoke", n_cases=2, n_inputs=12, shrink_runs=40,
                    mutation_tries=4),
    "small": Budget("small", n_cases=4, n_inputs=24, shrink_runs=80,
                    mutation_tries=6),
    "medium": Budget("medium", n_cases=8, n_inputs=64, shrink_runs=150,
                     mutation_tries=10),
    "large": Budget("large", n_cases=18, n_inputs=160, shrink_runs=300,
                    mutation_tries=16),
}


@dataclass
class VerifyConfig:
    """Full configuration of one harness run."""

    params: SrcParams = SMALL_PARAMS
    levels: str = DEFAULT_LEVELS
    backend: str = "both"
    seed: int = 0
    budget: str = "small"
    #: worker processes for the case loop (1 = in-process, sequential)
    jobs: int = 1

    def specs(self) -> List[LevelSpec]:
        return parse_level_specs(self.levels, self.backend)

    def budget_obj(self) -> Budget:
        try:
            return BUDGETS[self.budget]
        except KeyError:
            raise ValueError(
                f"unknown budget {self.budget!r} "
                f"(known: {', '.join(BUDGETS)})"
            )


@dataclass
class Failure:
    """One diverging (case, level) pair with its shrunk counterexample."""

    case_report: CaseReport
    shrink: Optional[ShrinkResult] = None

    def format(self) -> str:
        lines = [self.case_report.format()]
        if self.shrink is not None:
            lines.append("  " + self.shrink.format())
            evidence = self.shrink.evidence
            if hasattr(evidence, "format"):
                lines.append("  shrunk divergence: " + evidence.format())
        return "\n".join(lines)


@dataclass
class VerifyReport:
    """Outcome of a full harness run."""

    config: VerifyConfig
    case_reports: List[CaseReport] = field(default_factory=list)
    failures: List[Failure] = field(default_factory=list)
    input_coverage: Optional[InputCoverage] = None
    toggle_coverage: Optional[ToggleCoverage] = None

    @property
    def passed(self) -> bool:
        return not self.failures

    def format(self) -> str:
        budget = self.config.budget_obj()
        specs = self.config.specs()
        lines = [
            "Differential verification "
            f"(seed={self.config.seed}, budget={budget.name}: "
            f"{budget.n_cases} cases x {budget.n_inputs} frames)",
            "levels: " + ", ".join(s.key for s in specs),
        ]
        for report in self.case_reports:
            lines.append(report.format())
        if self.input_coverage is not None:
            lines.append(self.input_coverage.format())
        if self.toggle_coverage is not None:
            lines.append(self.toggle_coverage.format())
        if self.passed:
            lines.append("PASS: all levels bit-accurate on every case")
        else:
            lines.append(f"FAIL: {len(self.failures)} diverging case(s)")
            for failure in self.failures:
                lines.append(failure.format())
        return "\n".join(lines)


def _shrink_failure(config: VerifyConfig, report: CaseReport,
                    builds: LevelBuilds, budget: Budget
                    ) -> Optional[ShrinkResult]:
    """Minimise the first diverging level of a failing case."""
    first = report.failures[0]
    spec = first.spec
    params = config.params

    def predicate(inputs, mode_changes):
        candidate = report.case.with_inputs(inputs, mode_changes)
        timing = case_timing(params, candidate, spec.is_clocked)
        reference = golden_outputs(params, candidate, spec.is_clocked,
                                   timing.schedule)
        run = run_case_level(params, spec, candidate, builds,
                             timing=timing)
        diff = diff_against_reference(reference, "golden", run)
        return None if diff.equal else diff

    return shrink_case(report.case, predicate, first,
                       max_runs=budget.shrink_runs)


#: per-process verification state of the case loop
_WORKER: Dict[str, object] = {}


def _init_verify_worker(params: SrcParams, levels: str,
                        backend: str) -> None:
    """(Re)build per-process harness state (see fi.campaign pattern:
    pure function of its arguments, so forked workers skip the rebuild
    and spawned workers reconstruct identical state)."""
    key = (params, levels, backend)
    if _WORKER.get("key") == key:
        return
    _WORKER.clear()
    _WORKER["key"] = key
    _WORKER["params"] = params
    _WORKER["specs"] = parse_level_specs(levels, backend)
    _WORKER["builds"] = LevelBuilds(params)


def _verify_case_task(case: StimulusCase):
    """One case through the differential runner, in-process or on a
    pool worker.

    Returns the case report and the case's raw toggle counts --
    everything the parent needs to keep coverage identical for every
    job count.
    """
    coverage = ToggleCoverage()
    case_report = run_differential(
        _WORKER["params"], _WORKER["specs"], case, _WORKER["builds"],
        coverage=coverage)
    return case_report, coverage.counts


def run_verify(config: VerifyConfig) -> VerifyReport:
    """Run the full differential harness per *config*.

    The (independent, seeded) cases run through the fault-injection
    subsystem's :func:`~repro.fi.campaign.parallel_map`, in-process or,
    with ``jobs > 1``, across its worker pool, for which the parent
    first builds every clocked level's DUT once, so forked workers
    inherit the DUTs with their netlists and kernels.  Case order and coverage are
    kept, the pool's counts come back with its results, and any failure
    is shrunk in the parent, so reports are identical for every job
    count.
    """
    from ..fi.campaign import parallel_map

    budget = config.budget_obj()
    params = config.params
    report = VerifyReport(config)
    report.input_coverage = InputCoverage(params.data_width)
    report.toggle_coverage = ToggleCoverage()
    with span("verify.harness", levels=config.levels,
              backend=config.backend, jobs=config.jobs):
        cases = generate_cases(params, config.seed, budget.n_cases,
                               budget.n_inputs)
        _WORKER.clear()  # every run builds afresh, as in a new process
        initargs = (params, config.levels, config.backend)
        _init_verify_worker(*initargs)
        builds = _WORKER["builds"]
        if config.jobs > 1:  # in-process, the first case builds them
            for spec in _WORKER["specs"]:
                if spec.is_clocked:
                    builds.dut(spec)
        results = parallel_map(_verify_case_task, cases, config.jobs,
                               initializer=_init_verify_worker,
                               initargs=initargs)
        for case, (case_report, toggles) in zip(cases, results):
            report.input_coverage.record_case(case.inputs)
            report.toggle_coverage.absorb(toggles)
            report.case_reports.append(case_report)
            if not case_report.passed:
                shrink = _shrink_failure(config, case_report, builds,
                                         budget)
                report.failures.append(Failure(case_report, shrink))
    return report


# ----------------------------------------------------------------------
# self-check: inject a netlist mutation, the harness must catch it
# ----------------------------------------------------------------------

@dataclass
class SelfCheckReport:
    """Outcome of the mutation self-check."""

    config: VerifyConfig
    mutation: Optional[Mutation] = None
    mutations_tried: int = 0
    failure: Optional[Failure] = None
    caught: bool = False
    #: a case the *unmutated* netlist failed: the harness is broken
    baseline_failure: Optional[CaseReport] = None

    def format(self) -> str:
        lines = [f"Self-check (seed={self.config.seed}, "
                 f"budget={self.config.budget}, "
                 f"backend={self.config.backend}):"]
        if self.baseline_failure is not None:
            lines.append("FAIL: the unmutated netlist already diverges "
                         "-- the harness itself is broken")
            lines.append(self.baseline_failure.format())
            return "\n".join(lines)
        if not self.caught:
            lines.append(
                f"FAIL: no divergence detected across "
                f"{self.mutations_tried} injected mutation(s) -- the "
                "harness would miss real bugs")
            return "\n".join(lines)
        lines.append(f"injected: {self.mutation.format()} "
                     f"(mutation {self.mutations_tried})")
        lines.append(self.failure.format())
        lines.append("PASS: mutation caught and shrunk")
        return "\n".join(lines)


def run_self_check(config: VerifyConfig,
                   level: Level = Level.GATE_RTL) -> SelfCheckReport:
    """Inject seeded netlist mutations until the harness catches one.

    Runs *level* (the mutation target) on every engine the configured
    backend names.  The unmutated netlist must pass every case first,
    so a harness that crashes or diverges on its own is reported as
    broken rather than as a catch.  Each mutated netlist is then fuzzed
    with the configured budget, and the first caught divergence is
    shrunk to a short counterexample with full first-divergence
    localisation.
    """
    budget = config.budget_obj()
    params = config.params
    specs = [LevelSpec(level, b) for b in expand(config.backend)]
    report = SelfCheckReport(config)
    cases = generate_cases(params, config.seed, budget.n_cases,
                           budget.n_inputs)
    baseline = LevelBuilds(params)
    for case in cases:
        case_report = run_differential(params, specs, case, baseline)
        if not case_report.passed:
            report.baseline_failure = case_report
            return report

    def builder():
        return synthesize(baseline.module(level))

    for netlist, mutation in iter_mutations(
            builder, config.seed, max_mutations=budget.mutation_tries):
        report.mutations_tried += 1
        builds = LevelBuilds(params, netlist_overrides={level: netlist})
        for case in cases:
            case_report = run_differential(params, specs, case, builds)
            if case_report.passed:
                continue
            report.mutation = mutation
            shrink = _shrink_failure(config, case_report, builds, budget)
            report.failure = Failure(case_report, shrink)
            report.caught = True
            return report
    return report
