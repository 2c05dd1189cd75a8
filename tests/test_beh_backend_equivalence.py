"""Cross-backend behavioural equivalence over the verify stimulus set.

Every stimulus class of the differential-verification harness runs
through the behavioural model on all three FSM engines -- the cycle
interpreter, the compiled backend and the native C backend (which
degrades to compiled when no host toolchain is present) -- and the
output frame streams must match exactly.  A failure message carries
the case's replay hint (master seed + case name), so any divergence is
reproducible from the log alone.
"""

import pytest

from repro.engines import ENGINES
from repro.flow import Level, run_level
from repro.src_design.schedule import make_schedule
from repro.verify import STIMULUS_KINDS, generate_cases

MASTER_SEED = 2026
N_INPUTS = 120


@pytest.fixture(scope="module")
def cases(small_params):
    generated = generate_cases(small_params, MASTER_SEED,
                               n_cases=len(STIMULUS_KINDS),
                               n_inputs=N_INPUTS)
    by_kind = {case.kind: case for case in generated}
    assert set(by_kind) == set(STIMULUS_KINDS), \
        "round-robin generation must cover every stimulus class"
    return by_kind


@pytest.mark.parametrize("kind", STIMULUS_KINDS)
@pytest.mark.parametrize("backend", [name for name, engine
                                     in ENGINES.items() if engine.compiles])
@pytest.mark.parametrize("level", [Level.BEH_OPT, Level.BEH_UNOPT])
def test_backends_frame_exact(cases, small_params, kind, backend, level):
    case = cases[kind]
    schedule = make_schedule(small_params, case.mode, case.n_inputs,
                             quantized=True,
                             mode_changes=case.mode_changes)
    interpreted = run_level(small_params, level, schedule, case.inputs,
                            backend="interpreted")
    other = run_level(small_params, level, schedule, case.inputs,
                      backend=backend)
    assert len(interpreted) == len(other), (
        f"{level.value}: frame count diverged "
        f"({len(interpreted)} interpreted vs {len(other)} {backend}) "
        f"-- replay: {case.replay_hint()}")
    for frame_no, (want, got) in enumerate(zip(interpreted, other)):
        assert want == got, (
            f"{level.value}: first divergence at output frame "
            f"{frame_no}: interpreted {want} vs {backend} {got} "
            f"-- replay: {case.replay_hint()}")
