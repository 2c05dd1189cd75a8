"""Unit tests of the differential-verification building blocks.

Covers the pieces in isolation -- stimulus determinism, level-spec
parsing, diff localisation, the shrinker on synthetic predicates,
coverage bookkeeping and netlist mutation -- plus a deeper fuzz run
marked ``fuzz`` (excluded from tier-1 by default).
"""

import pytest

from repro.flow.refinement import Level
from repro.src_design.params import SMALL_PARAMS
from repro.synth import synthesize
from repro.src_design.rtl_design import build_rtl_design
from repro.verify import (InputCoverage, LevelRun, LevelSpec, StimulusCase,
                          VerifyConfig, apply_mutation,
                          diff_against_reference, generate_cases,
                          iter_mutations, mutation_candidates,
                          parse_level_specs, run_verify, shrink_case)
from repro.verify.stimulus import STIMULUS_KINDS


# --------------------------------------------------------- schedules
def test_one_schedule_per_domain_and_case(monkeypatch):
    """The golden model and every level of a domain share the case's
    one schedule there: two per case (exact and clock-quantised),
    however many levels and engines run."""
    from repro.verify import LevelBuilds, run_differential
    from repro.verify import runner

    calls = []
    make_schedule = runner.make_schedule

    def counted(*args, **kwargs):
        calls.append(kwargs.get("quantized", False))
        return make_schedule(*args, **kwargs)

    monkeypatch.setattr(runner, "make_schedule", counted)
    case = generate_cases(SMALL_PARAMS, 0, 1, 6)[0]
    specs = parse_level_specs("alg,tlm,beh,rtl", "both")
    report = run_differential(SMALL_PARAMS, specs, case,
                              LevelBuilds(SMALL_PARAMS))
    assert report.passed, report.format()
    assert sorted(calls) == [False, True]


# ------------------------------------------------------------ stimulus
def test_stimulus_deterministic_per_seed():
    a = generate_cases(SMALL_PARAMS, 42, 6, 16)
    b = generate_cases(SMALL_PARAMS, 42, 6, 16)
    assert [c.inputs for c in a] == [c.inputs for c in b]
    assert [c.name for c in a] == [c.name for c in b]
    c = generate_cases(SMALL_PARAMS, 43, 6, 16)
    assert [x.inputs for x in a] != [x.inputs for x in c]


def test_stimulus_cycles_through_kinds_and_range():
    cases = generate_cases(SMALL_PARAMS, 0, len(STIMULUS_KINDS), 20)
    assert [c.kind for c in cases] == list(STIMULUS_KINDS)
    hi = (1 << (SMALL_PARAMS.data_width - 1)) - 1
    lo = -(1 << (SMALL_PARAMS.data_width - 1))
    for case in cases:
        assert len(case.inputs) == 20
        for left, right in case.inputs:
            assert lo <= left <= hi and lo <= right <= hi


def test_stimulus_short_runs_have_no_mode_changes():
    for case in generate_cases(SMALL_PARAMS, 0, 4, 24):
        assert case.mode_changes == ()
    long_cases = generate_cases(SMALL_PARAMS, 0, 2, 120)
    assert any(c.mode_changes for c in long_cases)


# ------------------------------------------------------- spec parsing
def test_parse_level_specs_backends():
    specs = parse_level_specs("alg,rtl,gate", backend="both")
    assert LevelSpec(Level.ALGORITHMIC) in specs
    assert LevelSpec(Level.RTL_OPT, "interpreted") in specs
    assert LevelSpec(Level.RTL_OPT, "compiled") in specs
    assert LevelSpec(Level.GATE_RTL, "compiled") in specs
    # untimed levels never get a backend suffix
    assert LevelSpec(Level.ALGORITHMIC).key == "algorithmic"
    assert LevelSpec(Level.GATE_RTL, "compiled").key == "gate_rtl/compiled"


def test_parse_level_specs_rejects_unknown():
    with pytest.raises(ValueError):
        parse_level_specs("alg,warp-drive")
    with pytest.raises(ValueError):
        parse_level_specs("alg", backend="quantum")
    with pytest.raises(ValueError):
        parse_level_specs(",")


def test_parse_level_specs_deduplicates():
    specs = parse_level_specs("gate,gate-rtl", backend="interpreted")
    assert len(specs) == 1


# ------------------------------------------------------- localisation
def _run_with(outputs, ticks=None):
    run = LevelRun(LevelSpec(Level.RTL_OPT, "compiled"))
    run.outputs = outputs
    run.ticks = ticks
    return run


def test_diff_localises_first_divergence():
    reference = [(1, 2), (3, 4), (5, 6)]
    run = _run_with([(1, 2), (3, -4), (7, 6)], ticks=[10, 20, 30])
    diff = diff_against_reference(reference, "golden", run)
    assert not diff.equal
    assert diff.mismatch_count == 2
    assert diff.divergence.frame == 1
    assert diff.divergence.signal == "out_r"
    assert diff.divergence.cycle == 20
    assert diff.divergence.got == (3, -4)
    assert diff.divergence.want == (3, 4)


def test_diff_localises_length_mismatch_and_crash():
    reference = [(1, 2), (3, 4)]
    diff = diff_against_reference(reference, "golden",
                                  _run_with([(1, 2)], ticks=[10]))
    assert not diff.equal and diff.divergence.signal == "length"
    crashed = _run_with([])
    crashed.error = "GateSimError: X observed"
    diff = diff_against_reference(reference, "golden", crashed)
    assert not diff.equal and diff.error is not None


def test_diff_equal_streams():
    reference = [(1, 2), (3, 4)]
    diff = diff_against_reference(reference, "golden",
                                  _run_with([(1, 2), (3, 4)], [5, 9]))
    assert diff.equal and diff.divergence is None


# ----------------------------------------------------------- shrinker
def _case(frames):
    return StimulusCase("t", "random", 0, tuple(frames))


def test_shrink_to_single_offending_frame():
    # fails iff any left sample is > 50: minimal failing input is 1 frame
    def predicate(inputs, _changes):
        return "bad" if any(l > 50 for l, _ in inputs) else None

    case = _case([(i, -i) for i in range(40, 60)])
    result = shrink_case(case, predicate, "bad", max_runs=100)
    assert result.n_frames == 1
    assert result.case.inputs[0][0] > 50
    assert result.evidence == "bad"
    assert result.original_frames == 20


def test_shrink_zeroes_irrelevant_frames():
    # fails iff frame 3 is exactly (7, 7); other frames are noise
    def predicate(inputs, _changes):
        return "hit" if len(inputs) > 3 and inputs[3] == (7, 7) else None

    case = _case([(9, 9), (8, 8), (6, 6), (7, 7), (5, 5)])
    result = shrink_case(case, predicate, "hit", max_runs=100)
    assert len(result.case.inputs) == 4
    assert result.case.inputs[3] == (7, 7)
    assert all(f == (0, 0) for f in result.case.inputs[:3])


def test_shrink_respects_run_budget():
    calls = []

    def predicate(inputs, _changes):
        calls.append(1)
        return "always"

    case = _case([(1, 1)] * 64)
    shrink_case(case, predicate, "always", max_runs=7)
    assert len(calls) <= 7


def test_shrink_drops_mode_changes_when_failure_persists():
    def predicate(inputs, _changes):
        return "fail"

    case = StimulusCase("t", "random", 0, tuple([(1, 1)] * 8),
                        mode_changes=((4, 1),))
    result = shrink_case(case, predicate, "fail", max_runs=50)
    assert result.case.mode_changes == ()


# ----------------------------------------------------------- coverage
def test_input_coverage_buckets_and_specials():
    cov = InputCoverage(8, n_buckets=4)
    cov.record((-128, 127))
    cov.record((0, 1))
    assert cov.n_frames == 2
    assert cov.specials[0]["min"] == 1
    assert cov.specials[1]["max"] == 1
    assert cov.specials[0]["zero"] == 1
    doc = cov.as_dict()
    assert doc["n_frames"] == 2
    assert sum(doc["channels"][0]["buckets"]) == 2
    assert 0.0 < cov.fraction < 1.0


# ----------------------------------------------------------- mutation
def test_mutation_swaps_one_cell_and_validates():
    netlist = synthesize(build_rtl_design(SMALL_PARAMS, True).module)
    names = mutation_candidates(netlist)
    assert names
    before = {c.name: c.cell_type for c in netlist.cells}
    mutation = apply_mutation(netlist, names[0])
    after = {c.name: c.cell_type for c in netlist.cells}
    changed = {n for n in before if before[n] != after[n]}
    assert changed == {mutation.cell_name}
    assert mutation.original_type != mutation.mutated_type
    netlist.validate()


def test_iter_mutations_is_seeded():
    def builder():
        return synthesize(build_rtl_design(SMALL_PARAMS, True).module)

    first = [m.cell_name for _, m in iter_mutations(builder, 5,
                                                    max_mutations=3)]
    second = [m.cell_name for _, m in iter_mutations(builder, 5,
                                                     max_mutations=3)]
    assert first == second and len(first) == 3


# --------------------------------------------------------- deep fuzz
@pytest.mark.fuzz
def test_fuzz_medium_budget_all_levels():
    """The deeper standing fuzz run (``pytest -m fuzz``)."""
    config = VerifyConfig(levels="alg,tlm,tlm-mono,beh,rtl,gate",
                          backend="both", seed=2024, budget="medium")
    report = run_verify(config)
    assert report.passed, report.format()
