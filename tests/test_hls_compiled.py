"""The compiled behavioural (HLS-FSM) backend.

Pins its contract: the kernel printed as Python is bit-identical to
the cycle interpreter (scalar and batch, one cycle or several per
call), keys structurally in the compile cache, and the cache's LRU
bound evicts coldest-first.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.compile_cache import CompileCache
from repro.hls import (HlsProgram, PortWrite, Scheduler,
                       SchedulingConstraints, WaitCycle)
from repro.hls.compiled import (CompiledFsm, CompiledFsmBatch,
                                HLS_COMPILE_CACHE, compile_fsm, fsm_digest)
from repro.hls.interpreter import FsmInterpreter
from repro.hls.native import NativeFsmBatch
from repro.native import toolchain_available
from repro.src_design.behavioral import build_main_fsm
from repro.src_design.params import PAPER_PARAMS, SMALL_PARAMS

#: the lane-array batch engines checked against the compiled batch
#: (native needs a host C toolchain)
NATIVE_BATCHES = (NativeFsmBatch,) if toolchain_available() else ()


def _in_ports(fsm):
    return [(p.name, 1 << p.width) for p in fsm.program.ports.values()
            if p.direction == "in"]


def _env_match(interp, comp):
    """Interpreter env keys are a subset: it materialises memory-read
    wires lazily, while the compiled env pre-seeds them."""
    return all(comp.env.get(k) == v for k, v in interp.env.items())


@pytest.mark.parametrize("params,optimized", [
    (SMALL_PARAMS, True), (SMALL_PARAMS, False), (PAPER_PARAMS, True),
])
def test_scalar_equivalence(params, optimized):
    """Driven lockstep run: env, state and memories never diverge.

    Mixes step(1) with step(2) (one kernel call over two cycles), and
    pokes external memory writes mid-run.
    """
    fsm = build_main_fsm(params, optimized)
    interp, comp = FsmInterpreter(fsm), CompiledFsm(fsm)
    rng = random.Random(7)
    for cyc in range(900):
        for name, span in _in_ports(fsm):
            value = rng.randrange(span)
            interp.set_input(name, value)
            comp.set_input(name, value)
        if cyc % 17 == 0:
            addr, data = rng.randrange(64), rng.randrange(1 << 8)
            interp.write_memory("buf_l", addr, data)
            comp.write_memory("buf_l", addr, data)
        width = 1 if cyc % 3 else 2
        interp.step(width)
        comp.step(width)
        assert _env_match(interp, comp), f"env diverged at cycle {cyc}"
        assert interp.state == comp.state, f"state diverged at cycle {cyc}"
    assert interp.memories == comp.memories
    assert interp.cycles == comp.cycles


def test_batch_matches_scalars():
    """Each batch pattern is a private simulation: per-pattern stimulus
    and per-pattern memory pokes stay fully independent.  The native
    batch matches the compiled one lane for lane, outputs every cycle;
    some stimulus values lie outside the port (negative or too wide),
    which every engine masks to the port width."""
    fsm = build_main_fsm(SMALL_PARAMS, True)
    outputs = [p.name for p in fsm.program.ports.values()
               if p.direction == "out"]
    for n, cycles in ((5, 600), (1, 200), (3, 200), (64, 100)):
        batch = CompiledFsmBatch(fsm, n)
        natives = [engine(fsm, n) for engine in NATIVE_BATCHES]
        scalars = [CompiledFsm(fsm) for _ in range(n)]
        rng = random.Random(3 + n)
        for cyc in range(cycles):
            for name, span in _in_ports(fsm):
                values = [rng.randrange(-(1 << 64), 1 << 65)
                          if rng.random() < 0.1 else rng.randrange(span)
                          for _ in range(n)]
                for b in [batch] + natives:
                    b.set_input_patterns(name, tuple(values) if cyc % 2
                                         else values)
                for scalar, value in zip(scalars, values):
                    scalar.set_input(name, value)
            if cyc % 29 == 0:
                victim = rng.randrange(n)
                addr, data = rng.randrange(16), rng.randrange(1 << 8)
                for b in [batch] + natives:
                    b.write_memory(victim, "buf_r", addr, data)
                scalars[victim].write_memory("buf_r", addr, data)
            width = 1 if cyc % 4 else 3
            for b in [batch] + natives:
                b.step(width)
            for scalar in scalars:
                scalar.step(width)
            for nat in natives:
                for name in outputs:
                    assert nat.get_output_patterns(name) == \
                        batch.get_output_patterns(name), (n, cyc, name)
        for i, scalar in enumerate(scalars):
            assert batch.envs[i] == scalar.env, f"pattern {i} env diverged"
            assert batch.states[i] == scalar.state
            assert batch.memories[i] == scalar.memories
        for nat in natives:
            assert nat.states == batch.states
            for i in range(n):
                assert {k: nat.envs[i][k] for k in batch.envs[i]} \
                    == batch.envs[i], f"native pattern {i} env diverged"
                for mem, data in batch.memories[i].items():
                    assert nat.peek_memory(i, mem) == data


def test_batch_broadcast_set_input():
    fsm = build_main_fsm(SMALL_PARAMS, True)
    for engine in (CompiledFsmBatch,) + NATIVE_BATCHES:
        batch = engine(fsm, 3)
        batch.set_input("req", 1)
        assert all(env["req"] == 1 for env in batch.envs)
        batch.set_input("phase", -1)  # masked to the 4-bit port
        assert batch.envs[2]["phase"] == 15
        with pytest.raises(ValueError):
            batch.set_input_patterns("req", [1, 0])  # wrong width
        with pytest.raises(KeyError):
            batch.set_input("out_valid", 1)  # not an input
        with pytest.raises(KeyError):
            batch.set_input_patterns("nope", [1, 0, 1])  # unknown port
        with pytest.raises(KeyError):
            batch.get_output_patterns("req")  # not an output


def _echo_fsm(width):
    """``y`` follows input ``a`` one cycle later, *width* bits."""
    prog = HlsProgram(f"echo{width}")
    a = prog.input("a", width)
    prog.output("y", width)
    prog.body = [PortWrite("y", a), WaitCycle()]
    return Scheduler(prog, SchedulingConstraints(clock_ns=200.0)).run()


#: one echo FSM per port width around the 64-bit word edge
_ECHOES = {}


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_batch_pattern_io_property(data):
    """Any width up to the native 64-bit word, pattern count and
    values: every batch engine echoes each value modulo 2**width,
    lists and tuples alike."""
    width = data.draw(st.sampled_from((1, 2, 8, 63, 64)), label="width")
    n = data.draw(st.integers(1, 64), label="n_patterns")
    values = data.draw(st.lists(
        st.integers(-(1 << 70), 1 << 70) | st.integers(0, (1 << width) - 1),
        min_size=n, max_size=n), label="values")
    kind = data.draw(st.sampled_from((list, tuple)), label="kind")
    fsm = _ECHOES.setdefault(width, _echo_fsm(width))
    for engine in (CompiledFsmBatch,) + NATIVE_BATCHES:
        batch = engine(fsm, n)
        batch.set_input_patterns("a", kind(values))
        batch.step(2)
        assert batch.get_output_patterns("y") == \
            [v % (1 << width) for v in values], engine.__name__


def test_memory_monitor_raises_on_generated_engines():
    """A memory monitor needs per-access callbacks, which no kernel
    makes: the compiled engine refuses one, as native does."""
    fsm = build_main_fsm(SMALL_PARAMS, True)
    for engine in (CompiledFsm, lambda f, mem_monitor: CompiledFsmBatch(
            f, 2, mem_monitor=mem_monitor)):
        with pytest.raises(ValueError, match="interpreted"):
            engine(fsm, mem_monitor=lambda m, a, d, k: None)
    # the interpreter takes one
    FsmInterpreter(fsm, mem_monitor=lambda m, a, d, k: None).step()


def test_drop_in_surface():
    fsm = build_main_fsm(SMALL_PARAMS, True)
    comp = CompiledFsm(fsm)
    with pytest.raises(KeyError):
        comp.set_input("out_valid", 1)  # output, not input
    with pytest.raises(KeyError):
        comp.get_output("req")  # input, not output
    comp.set_input("req", 1)
    comp.step(3)
    assert comp.cycles == 3
    comp.reset()
    assert comp.cycles == 0 and comp.state == fsm.entry
    assert all(v == 0 for v in comp.env.values())


def test_structural_cache_keying():
    """Same structure -> one artifact."""
    fsm = build_main_fsm(SMALL_PARAMS, True)
    cache = CompileCache()
    first = compile_fsm(fsm, cache=cache)
    again = compile_fsm(fsm, cache=cache)
    assert first is again
    assert cache.stats.hits == 1 and cache.stats.misses == 1
    assert fsm_digest(fsm) == first.structural_key
    assert first.structural_key.startswith("hls:")
    assert cache.stats.source_bytes == len(first.source)


def test_process_wide_cache_amortises():
    before = HLS_COMPILE_CACHE.stats
    fsm = build_main_fsm(SMALL_PARAMS, True)
    CompiledFsm(fsm)
    CompiledFsm(fsm)  # second instance must hit
    after = HLS_COMPILE_CACHE.stats
    assert after.hits >= before.hits + 1


class _FakeProgram:
    def __init__(self, source):
        self.source = source


def test_cache_lru_eviction():
    cache = CompileCache(max_entries=2)
    a = cache.get_or_compile("a", lambda: _FakeProgram("x" * 10))
    cache.get_or_compile("b", lambda: _FakeProgram("y" * 20))
    # touch 'a' so 'b' is now the coldest entry
    assert cache.get_or_compile("a", lambda: _FakeProgram("!")) is a
    cache.get_or_compile("c", lambda: _FakeProgram("z" * 30))  # evicts 'b'
    assert len(cache) == 2
    stats = cache.stats
    assert stats.evictions == 1
    assert stats.source_bytes == 10 + 30
    rebuilt = []
    cache.get_or_compile("b", lambda: rebuilt.append(1) or
                         _FakeProgram("y" * 20))
    assert rebuilt, "evicted entry must recompile"
    assert cache.stats.evictions == 2  # inserting 'b' evicted 'a'
    with pytest.raises(ValueError):
        CompileCache(max_entries=0)


def test_cache_stats_fold():
    cache = CompileCache()
    cache.get_or_compile("k", lambda: _FakeProgram("abc"))
    cache.absorb(4, 2, evictions=1)
    stats = cache.stats + cache.stats
    assert stats.hits == 8 and stats.misses == 6
    assert stats.entries == 1  # store sizes do not add across processes
    assert stats.evictions == 2
    assert stats.source_bytes == 3
    assert "compile cache" in stats.format()
