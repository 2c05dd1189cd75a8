"""Figure 9 -- co-simulation vs. native HDL simulation.

Regenerates the paper's Figure 9: cycles/second for the paper's three
DUTs (intermediate RTL Verilog from RTL-SystemC synthesis, gates from
the behavioural flow, gates from the RTL flow) plus the behavioural
model, whose FSM program runs its RT-level front end and so takes the
same pins, each simulated once in the VHDL testbench (native, fully
interpreted) and once in the SystemC testbench (compiled testbench
through the co-simulation bridge).

Asserts the paper's observation: "the co-simulation of the DUT in the
SystemC testbench is slightly faster than a native HDL simulation".
"""

import pytest

from repro.cosim import (CosimSimulation, NativeHdlSimulation, build_dut,
                         format_figure9, measure_figure9,
                         measure_gate_throughput)
from repro.flow import measure_beh_throughput, write_bench_json
from repro.native import toolchain_available, toolchain_info

CYCLES = 1500
GATE_CYCLES = 600
#: raw gate-level stimulus throughput: cycles per backend measurement
THROUGHPUT_CYCLES = 250
#: parallel patterns for the compiled and native batch points
N_PATTERNS = 64


def _best_pair(params, cycles, kind, repeats=3):
    """Best-of-N (minimum wall) per testbench side.

    Native and co-sim run at parity within a few percent, so a single
    sample sits inside the timing-noise floor; the minimum over
    repeated runs discards load spikes on either side.
    """
    pairs = [measure_figure9(params, cycles, duts=[kind])[kind]
             for _ in range(repeats)]
    return {tb: min((pair[tb] for pair in pairs),
                    key=lambda r: r.wall_seconds)
            for tb in pairs[0]}


@pytest.fixture(scope="module")
def fig9_results(gate_params):
    return {
        "BEH": _best_pair(gate_params, CYCLES, "BEH"),
        "RTL": _best_pair(gate_params, CYCLES, "RTL"),
        "Gate-BEH": _best_pair(gate_params, GATE_CYCLES, "Gate-BEH"),
        "Gate-RTL": _best_pair(gate_params, GATE_CYCLES, "Gate-RTL"),
    }


def test_fig09_table(fig9_results, capsys):
    with capsys.disabled():
        print()
        print(format_figure9(fig9_results))
    for dut, pair in fig9_results.items():
        native = pair["VHDL-Testbench"].cycles_per_second
        cosim = pair["SystemC-Testbench"].cycles_per_second
        # co-sim is at least on par, typically slightly faster
        assert cosim > native * 0.95, dut


def test_fig09_rtl_faster_than_gates(fig9_results):
    rtl = fig9_results["RTL"]["SystemC-Testbench"].cycles_per_second
    for dut in ("Gate-BEH", "Gate-RTL"):
        gate = fig9_results[dut]["SystemC-Testbench"].cycles_per_second
        assert rtl > gate


def _best_of(measure, repeats=3):
    """Best-of-N (minimum wall) of a throughput measurement thunk."""
    return min((measure() for _ in range(repeats)),
               key=lambda r: r.wall_seconds)


def test_fig09_backends_json(fig9_results, gate_params, capsys):
    """Gate-level backend comparison; writes ``BENCH_fig09.json``.

    The compiled backend's raw stimulus throughput with parallel
    patterns must beat the interpreted simulator by >= 10x on the
    Figure 9 gate DUTs -- the headline number of the compiled backend.
    All batch points are best-of-3 (minimum wall) so the cross-engine
    ratios sit above the timing-noise floor.
    """
    results = [r for pair in fig9_results.values() for r in pair.values()]
    speedups = {}
    native_speedups = {}
    for kind in ("Gate-BEH", "Gate-RTL"):
        interp = measure_gate_throughput(
            gate_params, kind, THROUGHPUT_CYCLES, backend="interpreted"
        )
        compiled = _best_of(lambda: measure_gate_throughput(
            gate_params, kind, THROUGHPUT_CYCLES, backend="compiled",
            n_patterns=N_PATTERNS,
        ))
        native = _best_of(lambda: measure_gate_throughput(
            gate_params, kind, THROUGHPUT_CYCLES, backend="native",
            n_patterns=N_PATTERNS,
        ))
        # single-pattern latency rows: the scalar-probe access pattern
        # (one stimulus vector per generated call), compiled vs native
        lat_compiled = _best_of(lambda: measure_gate_throughput(
            gate_params, kind, THROUGHPUT_CYCLES, backend="compiled",
            label=f"{kind}/latency"))
        lat_native = _best_of(lambda: measure_gate_throughput(
            gate_params, kind, THROUGHPUT_CYCLES, backend="native",
            label=f"{kind}/latency"))
        speedups[kind] = (compiled.cycles_per_second
                          / interp.cycles_per_second)
        native_speedups[kind] = (native.cycles_per_second
                                 / compiled.cycles_per_second)
        results += [interp, compiled, native, lat_compiled, lat_native]
    # the behavioural mirror of the gate-throughput pair: the scheduled
    # FSM driven with fresh random vectors, interpreted vs. compiled
    # batch-parallel generated code vs. the native C batch
    beh_interp = measure_beh_throughput(
        gate_params, THROUGHPUT_CYCLES, backend="interpreted",
        label="BEH/throughput")
    beh_compiled = _best_of(lambda: measure_beh_throughput(
        gate_params, THROUGHPUT_CYCLES, backend="compiled",
        n_patterns=N_PATTERNS, label="BEH/throughput"))
    beh_native = _best_of(lambda: measure_beh_throughput(
        gate_params, THROUGHPUT_CYCLES, backend="native",
        n_patterns=N_PATTERNS, label="BEH/throughput"))
    beh_lat = {
        backend: _best_of(lambda: measure_beh_throughput(
            gate_params, THROUGHPUT_CYCLES, backend=backend,
            n_patterns=1, label="BEH/latency"))
        for backend in ("compiled", "native")
    }
    beh_speedup = (beh_compiled.cycles_per_second
                   / beh_interp.cycles_per_second)
    results += [beh_interp, beh_compiled, beh_native,
                beh_lat["compiled"], beh_lat["native"]]
    path = write_bench_json(
        "BENCH_fig09.json", results,
        extra={"gate_speedup": speedups, "beh_speedup": beh_speedup,
               "gate_speedup_native": native_speedups,
               "n_patterns": N_PATTERNS,
               "best_of": 3, "toolchain": toolchain_info()},
    )
    with capsys.disabled():
        print()
        for kind, ratio in speedups.items():
            print(f"{kind}: compiled x{N_PATTERNS} patterns = "
                  f"{ratio:.1f}x interpreted gate throughput")
        for kind, ratio in native_speedups.items():
            print(f"{kind}: native x{N_PATTERNS} patterns = "
                  f"{ratio:.1f}x compiled x{N_PATTERNS}")
        print(f"BEH: compiled x{N_PATTERNS} patterns = "
              f"{beh_speedup:.1f}x interpreted FSM throughput")
        print(f"BEH: native x{N_PATTERNS} patterns = "
              f"{beh_native.cycles_per_second:.0f} pattern-cyc/s")
        print(f"wrote {path}")
    for kind, ratio in speedups.items():
        assert ratio >= 10.0, (kind, ratio)
    assert beh_speedup > 1.0, beh_speedup
    # the native tier's acceptance: never loses to the compiled batch
    # row on any throughput comparison (latency rows are recorded but
    # unasserted -- the FFI call floor dominates single-pattern work);
    # only checked when a toolchain actually compiled the native rows
    if toolchain_available():
        for kind, ratio in native_speedups.items():
            assert ratio >= 1.0, (kind, ratio)
        assert beh_native.backend == "native"
        assert beh_native.cycles_per_second \
            >= beh_compiled.cycles_per_second


def test_bench_native_rtl(benchmark, gate_params):
    dut = build_dut(gate_params, "RTL")
    sim = NativeHdlSimulation(dut, gate_params)
    benchmark(sim.run, 500)


def test_bench_cosim_rtl(benchmark, gate_params):
    dut = build_dut(gate_params, "RTL")
    sim = CosimSimulation(dut, gate_params)
    benchmark(sim.run, 500)


def test_bench_cosim_gate_rtl(benchmark, gate_params):
    dut = build_dut(gate_params, "Gate-RTL")
    sim = CosimSimulation(dut, gate_params)
    benchmark(sim.run, 200)
