"""Figure 8 -- simulation performance on different levels of abstraction.

Regenerates the paper's Figure 8: simulated clock cycles per second for
the C++ model, the SystemC (channel) model, the synthesisable
behavioural model and the RTL model, all hosted in the same simulation
environment.  Unclocked models are scaled by simulated time at the
system clock, as in the paper.

Asserts the figure's shape: monotone slowdown with decreasing
abstraction, and a large gap between the compiled algorithmic model and
the clocked models.
"""

import pytest

from repro.flow import (format_results, measure_algorithmic,
                        measure_beh_throughput, measure_behavioral,
                        measure_figure8, measure_kernel_cycle_dut,
                        measure_tlm, write_bench_json)
from repro.native import toolchain_available, toolchain_info
from repro.rtl import RtlSimulator
from repro.src_design import build_rtl_design

N_INPUTS = 300
#: cycles for the batch-parallel behavioural throughput points
BATCH_CYCLES = 400
#: parallel patterns for the compiled and native points (the
#: machine-word cap both engines pack into)
N_PATTERNS = 64
#: parallel patterns for the vectorized point (numpy lane arrays have
#: no word cap; 4096 sits past the engine's amortisation knee)
N_PATTERNS_VEC = 4096
#: best-of-N (minimum wall) repeats for every cross-engine comparison
BEST_OF = 3


@pytest.fixture(scope="module")
def rtl_module(bench_params):
    return build_rtl_design(bench_params, optimized=True).module


def test_fig08_table(bench_params, rtl_module, capsys):
    """Prints the Figure 8 series, asserts its shape, writes the JSON.

    On top of the paper's four interpreted points, the JSON records the
    clocked levels again on the compiled backend -- the kernel-hosted
    BEH and RTL rows (n_patterns=1) plus the batch-parallel compiled
    behavioural throughput row (n_patterns=64), whose pattern-cycles
    per second must clear 10x the interpreted BEH row -- and the
    vectorized behavioural throughput row (n_patterns=4096), which
    must clear 5x the compiled BEH row and beat the compiled batch
    row outright.  Batch rows are best-of-3 (minimum wall) so the
    cross-engine assertions sit above the timing-noise floor.
    """
    results = measure_figure8(bench_params, N_INPUTS,
                              rtl_module=rtl_module)
    # The kernel-hosted BEH row is dominated by kernel machinery, so
    # the engine gap is only ~10% of the wall time; take best-of-3
    # (minimum wall) on both engines to keep the comparison out of the
    # timing-noise floor.  The repeats alternate between the engines
    # (interpreted, compiled, interpreted, ...), so a stretch of host
    # load slows both sides instead of one.
    beh_inputs = max(40, N_INPUTS // 4)
    beh_idx = next(i for i, r in enumerate(results) if r.level == "BEH")
    beh_runs = {"interpreted": [results[beh_idx]], "compiled": []}
    for repeat in range(BEST_OF):
        beh_runs["compiled"].append(measure_behavioral(
            bench_params, beh_inputs, backend="compiled"))
        if repeat < BEST_OF - 1:
            beh_runs["interpreted"].append(
                measure_behavioral(bench_params, beh_inputs))
    results[beh_idx], beh_compiled = (
        min(beh_runs[backend], key=lambda r: r.wall_seconds)
        for backend in ("interpreted", "compiled"))
    rtl_compiled = measure_kernel_cycle_dut(
        bench_params, RtlSimulator(rtl_module, backend="compiled"),
        max(20, N_INPUTS // 8), "RTL",
    )
    rtl_compiled.backend = "compiled"
    # the compiled headline row: generated code stepping 64 patterns
    # per call (best-of-3 against the vectorized row below)
    beh_batch = min(
        (measure_beh_throughput(bench_params, BATCH_CYCLES,
                                backend="compiled",
                                n_patterns=N_PATTERNS)
         for _ in range(3)),
        key=lambda r: r.wall_seconds)
    # the vectorized headline row: the same generated structure over
    # numpy uint64 lane arrays, 4096 stimulus vectors per call
    beh_vec = min(
        (measure_beh_throughput(bench_params, BATCH_CYCLES,
                                backend="vectorized",
                                n_patterns=N_PATTERNS_VEC)
         for _ in range(3)),
        key=lambda r: r.wall_seconds)
    # the native headline row: the same structure emitted as C, one
    # toolchain call stepping all 64 patterns per simulated cycle
    # (degrades to a second compiled row on toolchain-less hosts)
    beh_native_batch = min(
        (measure_beh_throughput(bench_params, BATCH_CYCLES,
                                backend="native",
                                n_patterns=N_PATTERNS)
         for _ in range(BEST_OF)),
        key=lambda r: r.wall_seconds)
    # single-pattern latency rows: one stimulus vector per generated
    # call, the FI scalar-probe access pattern.  The native engine
    # pays a fixed FFI call floor here, so the rows are recorded for
    # honesty but carry no cross-engine ordering assertion.
    beh_lat = {
        backend: min(
            (measure_beh_throughput(bench_params, BATCH_CYCLES,
                                    backend=backend, n_patterns=1,
                                    label="BEH/latency")
             for _ in range(BEST_OF)),
            key=lambda r: r.wall_seconds)
        for backend in ("compiled", "native")
    }
    path = write_bench_json(
        "BENCH_fig08.json",
        results + [beh_compiled, rtl_compiled, beh_batch, beh_vec,
                   beh_native_batch, beh_lat["compiled"],
                   beh_lat["native"]],
        extra={"best_of": BEST_OF, "toolchain": toolchain_info()})
    with capsys.disabled():
        print()
        print(format_results(
            results, "Figure 8 -- simulation performance (cycles/second)"
        ))
        print(f"BEH compiled backend: "
              f"{beh_compiled.cycles_per_second:.1f} cyc/s")
        print(f"RTL compiled backend: "
              f"{rtl_compiled.cycles_per_second:.1f} cyc/s")
        print(f"BEH compiled x{N_PATTERNS} patterns: "
              f"{beh_batch.cycles_per_second:.1f} pattern-cyc/s")
        print(f"BEH vectorized x{N_PATTERNS_VEC} patterns: "
              f"{beh_vec.cycles_per_second:.1f} pattern-cyc/s")
        print(f"BEH native x{N_PATTERNS} patterns: "
              f"{beh_native_batch.cycles_per_second:.1f} pattern-cyc/s")
        print(f"BEH latency (1 pattern): compiled "
              f"{beh_lat['compiled'].cycles_per_second:.1f}, native "
              f"{beh_lat['native'].cycles_per_second:.1f} cyc/s")
        print(f"wrote {path}")
    speed = {r.level: r.cycles_per_second for r in results}
    assert speed["C++"] > speed["SystemC"] > speed["BEH"] > speed["RTL"]
    assert speed["C++"] > 10 * speed["BEH"]
    # compiled never loses to interpreted on the same clocked level
    assert beh_compiled.cycles_per_second >= speed["BEH"]
    assert rtl_compiled.cycles_per_second > speed["RTL"]
    # the acceptance headline: >= 10x interpreted BEH at 64 patterns
    assert beh_batch.cycles_per_second >= 10 * speed["BEH"]
    # the vectorized tier's acceptance: >= 5x the compiled BEH row at
    # >= 1024 patterns, and it never loses to the compiled batch row
    assert beh_vec.n_patterns >= 1024
    assert beh_vec.cycles_per_second \
        >= 5 * beh_compiled.cycles_per_second
    assert beh_vec.cycles_per_second >= beh_batch.cycles_per_second
    # the native tier's acceptance: never loses to the compiled batch
    # row on the throughput comparison (both best-of-3); only checked
    # when a toolchain actually compiled the native rows
    if toolchain_available():
        assert beh_native_batch.backend == "native"
        assert beh_native_batch.cycles_per_second \
            >= beh_batch.cycles_per_second


def bench_cpp(benchmark, bench_params):
    benchmark(measure_algorithmic, bench_params, N_INPUTS)


def bench_systemc(benchmark, bench_params):
    benchmark(measure_tlm, bench_params, N_INPUTS)


def bench_behavioral(benchmark, bench_params):
    benchmark(measure_behavioral, bench_params, 48)


def bench_behavioral_compiled_batch(benchmark, bench_params):
    benchmark(measure_beh_throughput, bench_params, 200, "compiled",
              N_PATTERNS)


def bench_behavioral_native_batch(benchmark, bench_params):
    benchmark(measure_beh_throughput, bench_params, 200, "native",
              N_PATTERNS)


def bench_rtl(benchmark, bench_params, rtl_module):
    sim = RtlSimulator(rtl_module)
    benchmark(measure_kernel_cycle_dut, bench_params, sim, 24, "RTL")


# pytest-benchmark discovers test_* functions; expose the bench points
test_bench_cpp_level = bench_cpp
test_bench_systemc_level = bench_systemc
test_bench_behavioral_level = bench_behavioral
test_bench_behavioral_compiled_batch = bench_behavioral_compiled_batch
test_bench_behavioral_native_batch = bench_behavioral_native_batch
test_bench_rtl_level = bench_rtl
