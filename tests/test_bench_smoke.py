"""Fast benchmark smoke checks (``pytest -m bench_smoke``).

Exercises the benchmark plumbing -- throughput measurement on all
three backends and the ``BENCH_*.json`` writer -- at a scale small
enough for tier-1: a handful of cycles on the reduced configuration.
"""

import importlib
import json
import os

import pytest

from repro.cosim import measure_gate_throughput
from repro.flow import measure_kernel_cycle_dut, write_bench_json
from repro.gatesim import GateSimError
from repro.rtl import RtlSimulator
from repro.src_design import build_rtl_design
from repro.src_design.params import SMALL_PARAMS

pytestmark = pytest.mark.bench_smoke

CYCLES = 30


@pytest.fixture(scope="module")
def gate_points():
    interp = measure_gate_throughput(SMALL_PARAMS, "Gate-RTL", CYCLES,
                                     backend="interpreted")
    comp = measure_gate_throughput(SMALL_PARAMS, "Gate-RTL", CYCLES,
                                   backend="compiled", n_patterns=8)
    return interp, comp


def test_throughput_points_have_backend_metadata(gate_points):
    interp, comp = gate_points
    assert interp.backend == "interpreted" and interp.n_patterns == 1
    assert comp.backend == "compiled" and comp.n_patterns == 8
    assert interp.simulated_cycles == comp.simulated_cycles == CYCLES
    # pattern-parallel throughput counts pattern-cycles
    assert comp.cycles_per_second == pytest.approx(
        CYCLES * 8 / comp.wall_seconds)


def test_compiled_throughput_beats_interpreted(gate_points):
    """Pattern-parallel codegen must out-simulate the event interpreter
    even at smoke scale (recorded margin is ~30x; assert >= to stay
    robust on loaded CI machines)."""
    interp, comp = gate_points
    assert comp.cycles_per_second >= interp.cycles_per_second, \
        (comp.cycles_per_second, interp.cycles_per_second)


def test_vectorized_throughput_point_measures():
    """The compiled batch measures past the 64-pattern word cap, with
    the pattern-cycle accounting of the narrower batch point."""
    wide = measure_gate_throughput(SMALL_PARAMS, "Gate-RTL", CYCLES,
                                   backend="compiled", n_patterns=96)
    assert wide.backend == "compiled" and wide.n_patterns == 96
    assert wide.simulated_cycles == CYCLES
    assert wide.cycles_per_second == pytest.approx(
        CYCLES * 96 / wide.wall_seconds)


def test_interpreted_rejects_patterns():
    with pytest.raises(GateSimError):
        measure_gate_throughput(SMALL_PARAMS, "Gate-RTL", 2,
                                backend="interpreted", n_patterns=4)


def test_write_bench_json_redirect(gate_points, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
    path = write_bench_json("BENCH_smoke.json", list(gate_points),
                            extra={"scale": "small"})
    assert os.path.dirname(path) == str(tmp_path)
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["scale"] == "small"
    backends = {(r["backend"], r["n_patterns"]) for r in doc["results"]}
    assert backends == {("interpreted", 1), ("compiled", 8)}
    for r in doc["results"]:
        assert r["cycles_per_second"] > 0


def test_rtl_compiled_point_measures():
    module = build_rtl_design(SMALL_PARAMS, optimized=True).module
    sim = RtlSimulator(module, backend="compiled")
    res = measure_kernel_cycle_dut(SMALL_PARAMS, sim, 12, "RTL")
    assert res.simulated_cycles > 0
    assert res.cycles_per_second > 0


def test_perfbench_wrap_table_resolves():
    """Every row of the benchmark's traced-run wrap table resolves the
    way ``Tracer.install`` resolves it: a function on its module, a
    method in its own class's ``__dict__`` -- an inherited or renamed
    method would fail the traced run, not this suite."""
    from perfbench.layers import targets

    for module_name, attr, _layer, _items in targets():
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(module, cls_name)), \
                f"{module_name}.{attr} is not defined on its class"
        else:
            assert callable(getattr(module, attr, None)), \
                f"{module_name}.{attr} is not a function of its module"
