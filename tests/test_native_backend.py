"""Native C backend: toolchain, on-disk cache, fallback, telemetry.

Covers the pieces the three-engine equivalence suites do not: compiler
discovery and its ``$CC`` override, digest-addressed ``.so``
persistence across processes, schema-version invalidation, corrupt
artifact recovery, LRU eviction, processes sharing the cache at one
moment, the one build-flag policy and its build counters, the gate
kernel built once for every netlist, the single-warning degradation to
the compiled backend
on toolchain-less hosts, the Prometheus schema of the native cache
counters, and pattern I/O and waveform replay through both FFI loaders (cffi and ctypes),
whichever of them the host would pick by itself.
"""

import multiprocessing
import os
import random
import subprocess
import sys
import warnings
from array import array

import pytest

import repro.native as native
from repro.compile_cache import CompileCache
from repro.hls.native import NativeFsmBatch
from repro.native import (NATIVE_SCHEMA_VERSION,
                          NativeFallbackWarning, build_cflags,
                          build_shared_object, compile_and_load,
                          find_compiler, resolve_backend, source_digest,
                          toolchain_available, toolchain_info)
from repro.obs.metrics import REGISTRY

HAVE_CC = toolchain_available()
needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no C toolchain")

SOURCE = """
#include <stdint.h>
int64_t triple(int64_t x) { return 3 * x; }
"""

CDEF = "int64_t triple(int64_t x);"


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """An isolated on-disk cache with pinned flags for stable digests."""
    monkeypatch.setenv("REPRO_NATIVE_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_NATIVE_CFLAGS", "-O1")
    return tmp_path


try:
    import cffi  # noqa: F401
    LOADERS = ("cffi", "ctypes")
except ImportError:
    LOADERS = ("ctypes",)


@pytest.fixture(params=["cffi", "ctypes"])
def loader(request, monkeypatch):
    """Force one FFI loader.  Engines built with a fresh
    ``CompileCache`` load their module again under it."""
    if request.param not in LOADERS:
        pytest.skip("cffi is not installed")
    monkeypatch.setattr(native, "_loader_kind", lambda: request.param)
    return request.param


@pytest.fixture
def no_toolchain(monkeypatch):
    """Hide every C compiler; restore the probe cache afterwards."""
    monkeypatch.setenv("PATH", "")
    monkeypatch.setenv("CC", "")
    native._reset_toolchain_cache()
    yield
    native._reset_toolchain_cache()


def _counter_value(name, **labels):
    return REGISTRY.counter(name, **labels).value


# ------------------------------------------------------------ discovery
def test_toolchain_info_shape(monkeypatch):
    info = toolchain_info()
    assert set(info) == {"available", "compiler", "loader", "cflags",
                         "schema_version"}
    assert info["schema_version"] == NATIVE_SCHEMA_VERSION
    assert info["loader"] in ("cffi", "ctypes")
    # provenance states the one policy every build follows
    monkeypatch.delenv("REPRO_NATIVE_CFLAGS", raising=False)
    assert toolchain_info()["cflags"] == "-O1 (every build)"
    monkeypatch.setenv("REPRO_NATIVE_CFLAGS", "-O3 -g")
    assert toolchain_info()["cflags"] == \
        "-O3 -g ($REPRO_NATIVE_CFLAGS, every build)"


@needs_cc
def test_cc_env_override(monkeypatch):
    compiler = find_compiler()
    monkeypatch.setenv("CC", compiler)
    native._reset_toolchain_cache()
    try:
        assert find_compiler() == compiler
    finally:
        native._reset_toolchain_cache()


# ------------------------------------------------------- on-disk cache
@needs_cc
def test_compile_load_and_call(cache_dir):
    mod = compile_and_load(SOURCE, CDEF, tag="t")
    assert mod.fn("triple")(14) == 42


@needs_cc
def test_disk_cache_hit_and_counters(cache_dir):
    misses0 = _counter_value("repro_native_disk_cache_misses_total")
    hits0 = _counter_value("repro_native_disk_cache_hits_total")
    bytes0 = _counter_value("repro_native_source_bytes_total")
    builds0 = _counter_value("repro_native_builds_total", cflags="-O1")
    path1 = build_shared_object(SOURCE, tag="t")
    path2 = build_shared_object(SOURCE, tag="t")
    assert path1 == path2
    assert os.path.dirname(path1) == str(cache_dir)
    assert _counter_value("repro_native_disk_cache_misses_total") \
        == misses0 + 1
    assert _counter_value("repro_native_disk_cache_hits_total") == hits0 + 1
    assert _counter_value("repro_native_source_bytes_total") \
        == bytes0 + len(SOURCE)
    # the build is counted under the flags it really used
    assert _counter_value("repro_native_builds_total", cflags="-O1") \
        == builds0 + 1
    # exactly one artifact pair on disk
    assert len([f for f in os.listdir(cache_dir)
                if f.endswith(".so")]) == 1


@needs_cc
def test_digest_stable_across_processes(cache_dir):
    """A second process maps identical source to the identical .so."""
    parent = build_shared_object(SOURCE, tag="t")
    code = (
        "import repro.native as n; import sys; "
        "sys.stdout.write(n.build_shared_object(%r, tag='t'))" % SOURCE
    )
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(sys.path))
    child = subprocess.run([sys.executable, "-c", code],
                           capture_output=True, text=True, env=env)
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == parent
    # the child reused the artifact instead of writing a second one
    assert len([f for f in os.listdir(cache_dir)
                if f.endswith(".so")]) == 1


@needs_cc
def test_schema_bump_invalidates(cache_dir, monkeypatch):
    old = source_digest(SOURCE)
    path_v1 = build_shared_object(SOURCE, tag="t")
    monkeypatch.setattr(native, "NATIVE_SCHEMA_VERSION",
                        NATIVE_SCHEMA_VERSION + 1)
    assert source_digest(SOURCE) != old
    path_v2 = build_shared_object(SOURCE, tag="t")
    assert path_v2 != path_v1
    assert len([f for f in os.listdir(cache_dir)
                if f.endswith(".so")]) == 2


@needs_cc
def test_corrupt_artifact_recompiles(cache_dir):
    path = build_shared_object(SOURCE, tag="t")
    with open(path, "wb") as fh:
        fh.write(b"\x7fNOT-AN-ELF-AT-ALL")
    errors0 = _counter_value("repro_native_disk_cache_errors_total")
    mod = compile_and_load(SOURCE, CDEF, tag="t")
    assert mod.fn("triple")(1) == 3
    assert _counter_value("repro_native_disk_cache_errors_total") \
        == errors0 + 1


@needs_cc
def test_lru_eviction(cache_dir, monkeypatch):
    monkeypatch.setenv("REPRO_NATIVE_CACHE_MAX", "2")
    evict0 = _counter_value("repro_native_disk_cache_evictions_total")
    for k in range(3):
        src = SOURCE.replace("3 * x", f"{k + 5} * x")
        build_shared_object(src, tag="t")
    assert len([f for f in os.listdir(cache_dir)
                if f.endswith(".so")]) == 2
    assert _counter_value("repro_native_disk_cache_evictions_total") \
        > evict0


def _variants(n):
    """*n* distinct sources; variant k's ``triple(1)`` returns k + 5."""
    return [SOURCE.replace("3 * x", f"{k + 5} * x") for k in range(n)]


def _load_in_lockstep(barrier, results, sources, rounds, offset):
    """Child process: after a common start, load *sources* round-robin
    from the shared cache; report failures and error-counter ticks."""
    errors0 = _counter_value("repro_native_disk_cache_errors_total")
    failures = []
    barrier.wait(timeout=60)
    for i in range(rounds):
        k = (i + offset) % len(sources)
        try:
            mod = compile_and_load(sources[k], CDEF, tag="t")
            if mod.fn("triple")(1) != k + 5:
                failures.append(f"variant {k} computed the wrong value")
        except Exception as exc:
            failures.append(repr(exc))
    results.put((failures, _counter_value(
        "repro_native_disk_cache_errors_total") - errors0))


def _run_lockstep(sources, rounds, n_procs=6):
    """Start *n_procs* loaders at one barrier; their (failures, error
    ticks) reports."""
    ctx = multiprocessing.get_context("spawn")
    barrier = ctx.Barrier(n_procs)
    results = ctx.Queue()
    procs = [ctx.Process(target=_load_in_lockstep,
                         args=(barrier, results, sources, rounds, i))
             for i in range(n_procs)]
    for proc in procs:
        proc.start()
    reports = [results.get(timeout=180) for _ in procs]
    for proc in procs:
        proc.join(timeout=30)
        assert not proc.is_alive() and proc.exitcode == 0
    return reports


@needs_cc
def test_processes_compiling_one_key_at_once_share_one_artifact(
        cache_dir):
    assert _run_lockstep(_variants(1), rounds=1) == [([], 0)] * 6
    names = os.listdir(cache_dir)
    assert len([n for n in names if n.endswith(".so")]) == 1
    assert len([n for n in names if n.endswith(".c")]) == 1
    assert not [n for n in names if ".tmp" in n]


@needs_cc
def test_peer_eviction_racing_loads_is_not_a_load_error(cache_dir,
                                                        monkeypatch):
    # one cache slot for three sources: every build evicts a peer's
    monkeypatch.setenv("REPRO_NATIVE_CACHE_MAX", "1")
    assert _run_lockstep(_variants(3), rounds=10) == [([], 0)] * 6


@needs_cc
def test_artifact_evicted_before_dlopen_is_rebuilt(cache_dir,
                                                   monkeypatch):
    """A peer's eviction landing between build and load -- twice in a
    row -- costs rebuilds, never an error tick or a failed load."""
    real_init = native.NativeModule.__init__
    evicted = []

    def evict_first(self, path, cdef):
        if len(evicted) < 2:
            evicted.append(path)
            os.unlink(path)
        real_init(self, path, cdef)

    monkeypatch.setattr(native.NativeModule, "__init__", evict_first)
    errors0 = _counter_value("repro_native_disk_cache_errors_total")
    mod = compile_and_load(SOURCE, CDEF, tag="t")
    assert mod.fn("triple")(14) == 42
    assert len(evicted) == 2
    assert _counter_value("repro_native_disk_cache_errors_total") \
        == errors0


@needs_cc
def test_every_build_uses_the_one_flag_policy(cache_dir, monkeypatch):
    """Every build is -O1 at any source size unless the env override
    says otherwise; each build is counted under the flags it used."""
    monkeypatch.delenv("REPRO_NATIVE_CFLAGS")
    huge = SOURCE + "/*" + "x" * ((1 << 20) + 1) + "*/"
    for k, (source, env, flags) in enumerate((
            (SOURCE, None, "-O1"), (huge, None, "-O1"),
            (SOURCE, "-O1 -g", "-O1 -g"), (SOURCE, " -O0 ", "-O0"))):
        if env is not None:
            monkeypatch.setenv("REPRO_NATIVE_CFLAGS", env)
        assert build_cflags() == flags.split()
        builds0 = _counter_value("repro_native_builds_total", cflags=flags)
        seconds0 = _counter_value("repro_native_build_seconds_total",
                                  cflags=flags)
        # a distinct source per row, so every row builds
        mod = compile_and_load(f"{source}/* row {k} */", CDEF, tag="t")
        assert mod.fn("triple")(2) == 6
        assert _counter_value("repro_native_builds_total",
                              cflags=flags) == builds0 + 1
        assert _counter_value("repro_native_build_seconds_total",
                              cflags=flags) > seconds0


@needs_cc
def test_u64_view_aliases_buffer(cache_dir, monkeypatch):
    for kind in LOADERS:
        monkeypatch.setattr(native, "_loader_kind", lambda: kind)
        mod = compile_and_load(SOURCE, CDEF, tag="t")
        assert mod.loader == kind
        buf = mod.u64_buffer([1, 2, 3])
        view = mod.u64_view(buf)
        view[1] = 77
        assert buf[1] == 77
        buf[2] = 9
        assert view[2] == 9
        view[0:3:2] = array("Q", [5, 6])  # strided slice assignment
        assert list(buf) == [5, 77, 6]
        assert view.tolist() == [5, 77, 6]


# --------------------------------------- builds and the one gate kernel
@pytest.fixture
def cc_children(monkeypatch):
    """Every ``cc`` child this process starts, as its ``Popen``."""
    started = []
    popen = subprocess.Popen

    def recording(*args, **kwargs):
        started.append(popen(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(native.subprocess, "Popen", recording)
    return started


@needs_cc
def test_an_interrupted_build_leaves_nothing_behind(cache_dir, cc_children,
                                                    monkeypatch):
    """An interrupt while ``cc`` runs kills and reaps it and leaves no
    temporary file in the cache."""
    def interrupted(pid, options):
        raise KeyboardInterrupt

    monkeypatch.setattr(native.os, "wait4", interrupted)
    with pytest.raises(KeyboardInterrupt):
        build_shared_object(SOURCE, tag="t")
    (child,) = cc_children
    assert child.returncode is not None and child.returncode < 0
    assert os.listdir(cache_dir) == []


def _native_campaign(**changes):
    from repro.fi import CampaignConfig
    from repro.src_design.params import SMALL_PARAMS

    kwargs = dict(level="gate", backend="native", n_faults=6, batch_size=3,
                  seed=3, budget="smoke", probe_faults=2)
    kwargs.update(changes)
    return CampaignConfig(SMALL_PARAMS, **kwargs)


def _records(report):
    return [record.as_dict() for record in report.records]


@needs_cc
def test_failed_campaign_build_raises_in_the_first_batch(cache_dir,
                                                         monkeypatch):
    """When the kernel's ``cc`` fails, the campaign's load leaves the
    failure to the batches: each native batch raises it, as a build of
    its own would, and the isolation fallback re-runs the batch's faults
    on compiled: the compiled campaign's records."""
    from repro.fi import campaign, run_campaign
    from repro.gatesim import COMPILE_CACHE

    want = _records(run_campaign(_native_campaign(backend="compiled")))
    flags = "-O0 --no-such-flag"
    monkeypatch.setenv("REPRO_NATIVE_CFLAGS", flags)
    COMPILE_CACHE.clear()
    builds0 = _counter_value("repro_native_builds_total", cflags=flags)
    failed = []
    batch = campaign.run_gate_batch

    def watched(*args, **kwargs):
        try:
            return batch(*args, **kwargs)
        except native.NativeToolchainError as exc:
            assert "--no-such-flag" in str(exc)
            failed.append(kwargs["backend"])
            raise

    monkeypatch.setattr(campaign, "run_gate_batch", watched)
    fallbacks0 = _counter_value("repro_fi_batch_fallbacks_total",
                                level="gate", backend="native")
    with pytest.warns(RuntimeWarning, match="NativeToolchainError"):
        report = run_campaign(_native_campaign())
    # both batches failed, each on a build of its own after the load's
    assert failed == ["native", "native"]
    assert _counter_value("repro_native_builds_total", cflags=flags) \
        == builds0 + 3
    assert _counter_value("repro_fi_batch_fallbacks_total", level="gate",
                          backend="native") == fallbacks0 + 2
    assert _records(report) == want


@needs_cc
@pytest.mark.parametrize("error", [KeyboardInterrupt, RuntimeError])
def test_a_campaign_stopped_before_its_load_cancels_the_build(
        cache_dir, cc_children, monkeypatch, tmp_path_factory, error):
    """An interrupt or an exception between the kernel build's start and
    the program's load propagates; the ``cc`` child, still running, is
    killed and reaped, and the cache holds no temporary file and no
    half-installed ``.so``."""
    from repro.fi import campaign, run_campaign

    # a compiler that runs until it is killed, so the probe below raises
    # while the child runs
    slow_cc = tmp_path_factory.mktemp("slow-cc") / "cc"
    slow_cc.write_text("#!/bin/sh\nexec sleep 60\n")
    slow_cc.chmod(0o755)
    monkeypatch.setenv("CC", str(slow_cc))
    native._reset_toolchain_cache()

    def stopped(*args):
        (child,) = cc_children
        assert child.poll() is None
        raise error("stopped before the load")

    monkeypatch.setattr(campaign, "_run_probe", stopped)
    try:
        with pytest.raises(error, match="stopped before the load"):
            run_campaign(_native_campaign())
    finally:
        native._reset_toolchain_cache()
    (child,) = cc_children
    assert child.returncode is not None and child.returncode < 0
    assert os.listdir(cache_dir) == []


@needs_cc
def test_pooled_campaign_forks_after_its_build(cache_dir, cc_children,
                                               monkeypatch):
    """A ``jobs=2`` campaign builds the kernel (one ``cc`` child, done)
    and loads the program before the pool forks, so its workers find it
    in their compile cache: one ``gate[native]`` miss.  It classifies as
    the in-process campaign does."""
    from repro.fi import campaign, run_campaign
    from repro.gatesim import COMPILE_CACHE

    pool = campaign.parallel_map
    at_fork = []

    def checked(fn, tasks, jobs, **kwargs):
        at_fork.append([child.returncode for child in cc_children])
        return pool(fn, tasks, jobs, **kwargs)

    COMPILE_CACHE.clear()
    monkeypatch.setattr(campaign, "parallel_map", checked)
    pooled = run_campaign(_native_campaign(jobs=2))
    assert at_fork == [[0]]
    assert pooled.cache_stats["gate[native]"].misses == 1
    assert _records(pooled) == _records(run_campaign(_native_campaign()))


@needs_cc
def test_no_cc_per_netlist(cache_dir):
    """Two gate FI campaigns (two saboteur programs) and the SMALL
    Gate-RTL and Gate-BEH netlists, from one empty cache: every program
    is a table on the one kernel, so one ``cc`` builds one ``gate-*.so``
    for all four."""
    from repro.flow.refinement import Level, build_module
    from repro.fi import run_campaign
    from repro.gatesim import COMPILE_CACHE, GateSimulator
    from repro.src_design.params import SMALL_PARAMS
    from repro.synth import synthesize

    COMPILE_CACHE.clear()
    builds0 = _counter_value("repro_native_builds_total", cflags="-O1")
    for seed in (3, 4):
        run_campaign(_native_campaign(seed=seed))
    assert COMPILE_CACHE.stats_by_backend["native"].misses == 2
    for level in (Level.GATE_RTL, Level.GATE_BEH):
        sim = GateSimulator(synthesize(build_module(SMALL_PARAMS, level)),
                            backend="native", n_patterns=64)
        assert sim.backend == "native"
    assert _counter_value("repro_native_builds_total", cflags="-O1") \
        == builds0 + 1
    (so,) = [name for name in os.listdir(cache_dir) if name.endswith(".so")]
    assert so.startswith("gate-")


@needs_cc
@pytest.mark.parametrize("level", ["gate", "rtl", "beh"])
def test_native_campaign_probes_on_interpreted_only(cache_dir, level):
    """A native campaign at every level cross-checks on the interpreted
    engine alone: its throughput rows are the two engines that ran, and
    it builds no compiled engine."""
    from repro.compile_cache import iter_caches
    from repro.fi import run_campaign

    for _, cache in iter_caches():
        cache.clear()
    report = run_campaign(_native_campaign(level=level))
    assert {row.backend for row in report.throughput} == \
        {"native", "interpreted"}
    assert report.throughput_of("interpreted").faults == 2
    label = "hls" if level == "beh" else level
    assert report.cache_stats[f"{label}[native]"].misses >= 1
    assert {key: stats.misses for key, stats in report.cache_stats.items()
            if key.endswith("[compiled]") and stats.misses} == {}


# ----------------------------------------------- pattern I/O per loader
@needs_cc
def test_gate_pattern_io_under_loader(loader):
    from repro.gatesim.native import NativeGateSimulator
    from tests.test_gatesim_compiled import _edge_values, _wire

    cache = CompileCache()
    for width in (1, 63, 64, 65):
        for n in (1, 3, 64):
            sim = NativeGateSimulator(_wire(width), n_patterns=n,
                                      cache=cache)
            assert sim.program.module.loader == loader
            values = _edge_values(n)
            want = [v % (1 << width) for v in values]
            sim.set_input_patterns("a", tuple(values))
            assert sim.get_patterns("y") == want
            ones, unks = sim.get_port_planes("y")
            assert not any(unks)
            assert ones == [sum(((v >> i) & 1) << p
                                for p, v in enumerate(want))
                            for i in range(width)]


@needs_cc
def test_beh_pattern_io_under_loader(loader):
    from tests.test_gatesim_compiled import _edge_values
    from tests.test_hls_compiled import _echo_fsm

    cache = CompileCache()
    for width in (1, 63, 64):
        fsm = _echo_fsm(width)
        for n in (1, 3, 64):
            batch = NativeFsmBatch(fsm, n, cache=cache)
            assert batch.compiled.module.loader == loader
            values = _edge_values(n)
            batch.set_input_patterns("a", values)
            batch.step(2)
            assert batch.get_output_patterns("y") == \
                [v % (1 << width) for v in values]
            batch.reset()
            assert batch.get_output_patterns("y") == [0] * n
            assert batch.states == [fsm.entry] * n


@needs_cc
def test_random_netlist_equivalence_under_loader(loader):
    """Gate and RTL engines against the interpreters on one random
    module with RAM, ROM and X injection."""
    from repro.datatypes import L0, L1, LX
    from repro.gatesim import GateSimulator
    from repro.gatesim.native import NativeGateSimulator
    from repro.rtl import RtlSimulator
    from repro.rtl.native import NativeRtlSimulator
    from repro.synth import map_to_gates, optimize
    from tests.test_gatesim_compiled import _rand_module

    seed = 4  # a module with a RAM and a ROM
    module = _rand_module(seed)
    assert {m.name for m in module.memories} == {"ram", "rom"}
    nl = optimize(map_to_gates(module))
    interp = GateSimulator(nl)
    gate = NativeGateSimulator(nl, cache=CompileCache())
    rtl_ref = RtlSimulator(module)
    rtl = NativeRtlSimulator(module, cache=CompileCache())
    assert gate.program.module.loader == rtl.program.module.loader \
        == loader
    rng = random.Random(seed)
    widths = {name: len(nets) for name, nets in nl.inputs.items()}
    for cycle in range(16):
        for name, w in widths.items():
            if rng.random() < 0.25:
                vals = [rng.choice((L0, L1, LX)) for _ in range(w)]
                interp.set_input_logic(name, vals)
                gate.set_input_logic(name, vals)
            else:
                v = rng.randrange(1 << w)
                for sim in (interp, gate, rtl_ref, rtl):
                    sim.set_input(name, v)
        for port in nl.outputs:
            assert interp.get_logic(port) == gate.get_logic(port), \
                (port, cycle)
            assert rtl_ref.get(port) == rtl.get(port), (port, cycle)
        for sim in (interp, gate, rtl_ref, rtl):
            sim.step()
    assert rtl.peek_memory("ram") == rtl_ref.peek_memory("ram")
    assert gate.memory_model("ram").peek() == \
        interp.memory_model("ram").peek()
    for sim in (interp, gate, rtl_ref, rtl):
        sim.reset()
    assert gate.values == interp.values


@needs_cc
def test_replay_under_loader(loader):
    """Every level's ``nat_replay`` through this loader's buffers -- the
    gate level's byte samples, the RTL and FSM word samples, tables of
    no rows and no sampled slot -- against the interpreters' loop."""
    from repro.engines import replay_loop
    from repro.gatesim import GateSimulator
    from repro.gatesim.native import NativeGateSimulator
    from repro.hls import FsmInterpreter
    from repro.hls.native import NativeFsm
    from repro.rtl import RtlSimulator
    from repro.rtl.native import NativeRtlSimulator
    from repro.synth import map_to_gates, optimize
    from tests.test_gatesim_compiled import _rand_module
    from tests.test_hls_compiled import _echo_fsm

    module = _rand_module(4)
    nl = optimize(map_to_gates(module))
    fsm = _echo_fsm(64)
    gate = NativeGateSimulator(nl, cache=CompileCache())
    rtl = NativeRtlSimulator(module, cache=CompileCache())
    beh = NativeFsm(fsm, cache=CompileCache())
    assert {gate.program.module.loader, rtl.program.module.loader,
            beh._batch.compiled.module.loader} == {loader}
    rng = random.Random(4)
    wave = [{name: rng.randrange(-9, 99) for name in module.input_names()
             if rng.random() < 0.6} for _ in range(20)]
    ports = module.input_names() + module.output_names()
    for dut, ref in ((gate, GateSimulator(nl)), (rtl, RtlSimulator(module))):
        assert dut.replay(wave, ports) == \
            replay_loop(ref, wave, ref.port_sampler(ports).read)
        assert dut.replay([], ports) == []
    assert gate.replay([{}], ()) == [0] and rtl.replay([{}], ()) == [()]
    wave = [{"a": rng.randrange(-(1 << 64), 1 << 64)} for _ in range(20)]
    ref = FsmInterpreter(fsm)
    assert beh.replay(wave, ("y",)) == \
        replay_loop(ref, wave, lambda: (ref.get_output("y"),))


@needs_cc
def test_designs_sharing_a_native_program_stay_apart():
    """A kernel, C or Python, names no net or memory and holds no ROM
    contents, so designs differing only in those share one program per
    engine; each simulation still uses its own names (even swapped
    ones) and contents."""
    from repro.hls import (FsmInterpreter, HlsProgram, MemReadStmt,
                           PortWrite, Scheduler, SchedulingConstraints,
                           WaitCycle)
    from repro.hls.compiled import CompiledFsm
    from repro.hls.native import NativeFsm
    from repro.rtl import Ref, RtlModule, RtlSimulator, Sub
    from repro.rtl.compiled import CompiledRtlSimulator
    from repro.rtl.native import NativeRtlSimulator

    cache = CompileCache()
    programs = set()
    for first, second, contents in (("a", "b", [1, 2, 3, 4]),
                                     ("a", "b", [5, 6, 7, 8]),
                                     ("b", "a", [5, 6, 7, 8])):
        m = RtlModule("shared")
        x, y = m.input(first, 2), m.input(second, 2)
        m.output("q", m.mem_read(m.memory("rom", 4, 8, contents), x))
        m.output("d", Sub(x, y))
        ref = RtlSimulator(m)
        rtls = [engine(m, cache=cache)
                for engine in (NativeRtlSimulator, CompiledRtlSimulator)]

        prog = HlsProgram("shared")
        prog.input(first, 2)
        prog.input(second, 2)
        prog.output("q", 8)
        prog.output("d", 3)
        prog.var("v", 8)
        prog.memory("rom", 4, 8, contents=contents)
        prog.body = [MemReadStmt("v", "rom", Ref(first, 2)),
                     PortWrite("q", Ref("v", 8)),
                     PortWrite("d", Sub(Ref(first, 2), Ref(second, 2))),
                     WaitCycle()]
        fsm = Scheduler(prog, SchedulingConstraints()).run()
        beh_ref = FsmInterpreter(fsm)
        behs = [engine(fsm, cache=cache)
                for engine in (NativeFsm, CompiledFsm)]

        for sim in (*rtls, ref, *behs, beh_ref):
            sim.set_input("a", 3)
            sim.set_input("b", 1)
        ref.settle()
        beh_ref.step(4)
        for rtl, beh in zip(rtls, behs):
            rtl.settle()
            beh.step(4)
            label = (rtl.backend, first, contents)
            assert [rtl.get(o) for o in ("q", "d")] == \
                [ref.get(o) for o in ("q", "d")], label
            assert rtl.peek_memory("rom") == contents, label
            assert [beh.get_output(o) for o in ("q", "d")] == \
                [beh_ref.get_output(o) for o in ("q", "d")], label
            programs |= {rtl.program.module, beh._batch.compiled.module}
    # one RTL and one FSM program per engine, shared
    assert len(programs) == 4


# --------------------------------------------------------- degradation
def test_resolve_backend_passthrough():
    assert resolve_backend("compiled") == "compiled"
    assert resolve_backend("interpreted") == "interpreted"


def test_fallback_warns_once_and_counts(no_toolchain):
    assert not toolchain_available()
    fall0 = _counter_value("repro_native_fallback_total")
    with pytest.warns(NativeFallbackWarning):
        assert resolve_backend("native") == "compiled"
    # the warning fires once per process; the counter counts every use
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert resolve_backend("native") == "compiled"
    assert _counter_value("repro_native_fallback_total") == fall0 + 2


def test_simulators_degrade_without_toolchain(no_toolchain):
    from repro.rtl import RtlModule, RtlSimulator

    m = RtlModule("m")
    m.output("y", m.input("x", 4))
    with pytest.warns(NativeFallbackWarning):
        sim = RtlSimulator(m, backend="native")
    assert sim.backend == "compiled"
    sim.set_input("x", 9)
    sim.step()
    assert sim.get("y") == 9


def test_fallen_back_campaign_names_the_engine_that_ran(no_toolchain):
    """Without a toolchain a native campaign runs on compiled: its
    throughput row says so, and the probe does not re-run compiled."""
    from repro.fi import CampaignConfig, run_campaign
    from repro.src_design.params import SMALL_PARAMS

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NativeFallbackWarning)
        report = run_campaign(CampaignConfig(
            SMALL_PARAMS, level="beh", backend="native", n_faults=4,
            seed=3, budget="smoke", probe_faults=2))
    assert {row.backend for row in report.throughput} == \
        {"compiled", "interpreted"}
    assert report.throughput_of("compiled").faults == 4


@needs_cc
def test_gate_native_pattern_cap():
    from repro.gatesim import GateSimError, GateSimulator
    from repro.synth.netlist import Netlist

    nl = Netlist("n")
    a = nl.add_input("a", 1)[0]
    nl.set_output("y", [a])
    with pytest.raises(GateSimError):
        GateSimulator(nl, backend="native", n_patterns=65)
    sim = GateSimulator(nl, backend="native", n_patterns=64)
    sim.set_input_patterns("a", [p & 1 for p in range(64)])
    sim.step()
    assert sim.get_patterns("y") == [p & 1 for p in range(64)]


# ----------------------------------------------------------- telemetry
@needs_cc
def test_prometheus_native_cache_rows(cache_dir):
    """Schema lock: the shared CompileCache exposition carries
    ``backend="native"`` rows once a native engine has compiled."""
    from repro.rtl import RtlModule, RtlSimulator

    m = RtlModule("prom_native")
    x = m.input("x", 8)
    m.output("y", x)
    RtlSimulator(m, backend="native")
    text = REGISTRY.to_prometheus()
    for family in ("repro_compile_cache_hits_total",
                   "repro_compile_cache_misses_total",
                   "repro_compile_cache_evictions_total"):
        assert f'{family}{{backend="native",cache="rtl"}}' in text, family
    assert "repro_native_disk_cache_misses_total" in text
    assert 'repro_native_builds_total{cflags="-O1"}' in text
    assert "repro_native_source_bytes_total" in text
