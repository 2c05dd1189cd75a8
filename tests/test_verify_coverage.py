"""Toggle coverage: engine parity, an independent oracle, pinned counts.

``ToggleCoverage`` folds one packed read of every port bit per cycle
(the engines' ``port_sampler``).  These tests hold it to the rule it
implements -- a rise or fall is a defined 0->1 or 1->0 step between
consecutive cycles, X or Z on either side is neither -- against a
reference that reads the ports one by one, and pin the counts the
harness reports.
"""

import hashlib
import json
import random
import warnings
from types import SimpleNamespace

import pytest

from repro.datatypes import L0, L1, LX
from repro.engines import ENGINES
from repro.gatesim import GateSimulator
from repro.rtl import RtlSimulator
from repro.synth import map_to_gates
from repro.verify import VerifyConfig, run_verify
from repro.verify.coverage import ToggleCoverage
from tests.test_gatesim_compiled import WIDE, _rand_module, batch_case


def reference_counts(read, widths, samples):
    """Per-bit (rises, falls) from per-port reads: *read(name)* gives a
    port's logic values, LSB first, once per sample."""
    counts = {name: [[0, 0] for _ in range(w)] for name, w in widths.items()}
    last = {}
    for _ in samples():
        for name in widths:
            now = read(name)
            for bit, (a, b) in enumerate(zip(last.get(name, now), now)):
                if (a, b) in ((L0, L1), (L1, L0)):
                    counts[name][bit][b == L0] += 1
            last[name] = now
    return {name: [tuple(rf) for rf in per_bit]
            for name, per_bit in counts.items()}


def _engine(factory, *args, backend, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # native may fall back
        return factory(*args, backend=backend, **kwargs)


def _handle(sim):
    return ToggleCoverage().begin(SimpleNamespace(key="dut"), sim)


# ------------------------------------------------------------ gate level
@pytest.mark.parametrize("backend", list(ENGINES))
@pytest.mark.parametrize("seed", [0, 3, 11, 19])
def test_gate_counts_match_per_port_reads(backend, seed):
    """Random netlists, a quarter of the inputs driven (partly) X: the
    packed fold agrees with a per-port, per-cycle reference."""
    netlist = map_to_gates(_rand_module(seed))
    sim = _engine(GateSimulator, netlist, backend=backend)
    handle = _handle(sim)
    rng = random.Random(seed)
    widths = {name: len(nets) for name, nets in
              [*netlist.inputs.items(), *netlist.outputs.items()]}

    def cycles():
        yield  # the sample taken at begin
        for _ in range(40):
            for name, nets in netlist.inputs.items():
                if rng.random() < 0.25:
                    sim.set_input_logic(name, [rng.choice((L0, L1, LX))
                                               for _ in nets])
                else:
                    sim.set_input(name, rng.getrandbits(len(nets)))
            sim.step()
            handle.sample()
            yield

    expected = reference_counts(sim.get_logic, widths, cycles)
    assert handle.counts() == expected


@pytest.mark.parametrize("backend", list(ENGINES))
def test_gate_step_through_x_is_no_edge(backend):
    """0 -> X -> 1 -> X -> 0 on an input is neither a rise nor a fall;
    0 -> 1 -> 0 is one of each."""
    from tests.test_equivalence_gatetrace import alu

    sim = _engine(GateSimulator, map_to_gates(alu()), backend=backend)
    handle = _handle(sim)
    for value in (L0, LX, L1, LX, L0, L1, L0):
        sim.set_input_logic("op", [value])
        sim.step()
        handle.sample()
    assert handle.counts()["op"] == [(1, 1)]


@pytest.mark.parametrize("backend", [
    name for name, engine in ENGINES.items() if engine.batches("gate")]
    + [WIDE])
def test_gate_sampler_reads_pattern_0(backend):
    """On a multi-pattern engine the sampler packs pattern 0 only, as
    ``get_logic`` reads it."""
    from tests.test_equivalence_gatetrace import alu

    engine, (n,) = batch_case(backend, (4,))
    sim = _engine(GateSimulator, map_to_gates(alu()), backend=engine,
                  n_patterns=n)
    pad = [0] * (n - 4)
    sim.set_input_patterns("a", [3, 255, 0, 7] + pad)
    sim.set_input_patterns("b", [250, 1, 255, 9] + pad)
    sim.set_input_logic("op", [LX])
    sampler = sim.port_sampler(["a", "b", "op", "y"])
    sim.step()
    expected = [v for name in sampler.widths for v in sim.get_logic(name)]
    assert sampler.read() == int.from_bytes(bytes(expected), "little")
    assert LX in expected and L1 in expected


# ------------------------------------------------------------- RTL level
@pytest.mark.parametrize("backend", list(ENGINES))
def test_rtl_counts_match_per_port_reads(backend, rtl_opt_design):
    module = rtl_opt_design.module
    sim = _engine(RtlSimulator, module, backend=backend)
    handle = _handle(sim)
    rng = random.Random(5)
    names = module.input_names() + module.output_names()
    widths = {name: module.net_width(name) for name in names}

    def cycles():
        yield
        for _ in range(300):
            for name in module.input_names():
                if rng.random() < 0.3:
                    sim.set_input(name, rng.getrandbits(widths[name]))
            sim.step()
            handle.sample()
            yield

    def read(name):
        value = sim.get(name)
        return [value >> bit & 1 for bit in range(widths[name])]

    expected = reference_counts(read, widths, cycles)
    assert handle.counts() == expected
    assert sum(r + f for per_bit in expected.values() for r, f in per_bit)


# ---------------------------------------------------------- whole runs
def test_engines_agree_on_every_clocked_level():
    report = run_verify(VerifyConfig(levels="rtl,rtl-unopt,gate,gate-beh",
                                     backend="all", budget="smoke", seed=0))
    assert report.passed
    by_level = {}
    for key, ports in report.toggle_coverage.counts.items():
        level, _, engine = key.partition("/")
        by_level.setdefault(level, {})[engine] = ports
    assert len(by_level) == 4
    for level, engines in by_level.items():
        assert set(engines) == set(ENGINES), level
        first = next(iter(engines.values()))
        assert all(ports == first for ports in engines.values()), level


#: sha256 of the sorted-key JSON of ``toggle_coverage.as_dict()`` for
#: levels alg,tlm,beh,rtl,gate, backend both, seed 0, budget smoke, as
#: the per-bit VCD-string counter computed it
SMOKE_TOGGLE_DIGEST = (
    "a9f0d0fa6e2ad06cde4ffc4bc347b29f90bcfbba29ee493199e088a6824d7b01")


def test_toggle_counts_are_pinned():
    report = run_verify(VerifyConfig(levels="alg,tlm,beh,rtl,gate",
                                     backend="both", seed=0,
                                     budget="smoke"))
    text = json.dumps(report.toggle_coverage.as_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == SMOKE_TOGGLE_DIGEST


def test_coverage_is_independent_of_the_job_count():
    def run(jobs):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # native may fall back
            return run_verify(VerifyConfig(levels="alg,tlm,beh,rtl,gate",
                                           backend="native", seed=1,
                                           budget="small", jobs=jobs))

    sequential, parallel = run(1), run(2)
    assert sequential.passed and parallel.passed
    assert parallel.toggle_coverage.as_dict() \
        == sequential.toggle_coverage.as_dict()
    assert parallel.input_coverage.as_dict() \
        == sequential.input_coverage.as_dict()
