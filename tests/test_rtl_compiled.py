"""Compiled RTL backends: codegen equivalence with the interpreter.

``RtlSimulator(module, backend="compiled")`` generates one Python
function for the whole multi-cycle loop;
``RtlSimulator(module, backend="vectorized")`` generates the same
structure over numpy uint64 lane arrays, one stimulus lane per
pattern.  Both must match the interpreted closures on every construct
the IR offers: arithmetic (signed and unsigned), shifts, comparisons,
muxes, concatenation, reductions, registers and memories (including
same-cycle write/read ordering across ports).
"""

import random

import pytest

from repro.engines import ENGINES
from repro.rtl import (Add, BitAnd, BitNot, BitOr, BitXor, Case, Cat, Cmp,
                       Const, Ext, Mux, Mul, Reduce, Ref, RtlError,
                       RtlModule, RtlSimulator, Shl, Shr, Slice, SMul, Sra,
                       Sub, RTL_COMPILE_CACHE, compile_rtl)
from repro.rtl.compiled import CompileCache


#: the generated-code engines checked against the interpreter
#: ("native" transparently runs as "compiled" when no C toolchain is
#: present, so the equivalence sweep stays valid either way)
CODEGEN_BACKENDS = tuple(name for name, engine in ENGINES.items()
                         if engine.compiles)


def both(module, backend="compiled"):
    return (RtlSimulator(module),
            RtlSimulator(module, backend=backend))


def drive_and_compare(module, cycles=30, seed=0):
    interp = RtlSimulator(module)
    others = [RtlSimulator(module, backend=b) for b in CODEGEN_BACKENDS]
    rng = random.Random(seed)
    widths = {n: module.net_width(n) for n in module.input_names()}
    for cycle in range(cycles):
        for name, w in widths.items():
            v = rng.randrange(1 << w)
            interp.set_input(name, v)
            for comp in others:
                comp.set_input(name, v)
        interp.step()
        for comp in others:
            comp.step()
        for comp in others:
            for out in module.output_names():
                assert interp.get(out) == comp.get(out), \
                    (comp.backend, out, cycle, f"seed {seed}")
    for comp in others:
        for mem in module.memories:
            assert interp.peek_memory(mem.name) \
                == comp.peek_memory(mem.name), \
                (comp.backend, mem.name, f"seed {seed}")
    interp.reset()
    for comp in others:
        comp.reset()
        for out in module.output_names():
            assert interp.get(out) == comp.get(out), \
                (comp.backend, "after reset", out, f"seed {seed}")


# ------------------------------------------------------------- dispatch
def test_unknown_backend_raises():
    m = RtlModule("m")
    m.output("y", m.input("x", 1))
    with pytest.raises(RtlError):
        RtlSimulator(m, backend="magic")


def test_mem_monitor_forces_interpreted():
    m = RtlModule("m")
    x = m.input("x", 4)
    ram = m.memory("ram", 4, 4)
    m.mem_write(ram, Const(1, 1), Const(2, 1), x)
    m.output("q", m.mem_read(ram, Const(2, 1)))
    sim = RtlSimulator(m, mem_monitor=lambda *a: None, backend="compiled")
    assert sim.backend == "interpreted"
    sim.set_input("x", 9)
    sim.step()
    assert sim.get("q") == 9


def test_backend_attribute():
    m = RtlModule("m")
    m.output("y", m.input("x", 2))
    assert RtlSimulator(m).backend == "interpreted"
    assert RtlSimulator(m, backend="compiled").backend == "compiled"
    assert RtlSimulator(m, backend="vectorized").backend == "vectorized"
    from repro.native import toolchain_available
    native = RtlSimulator(m, backend="native")
    assert native.backend == ("native" if toolchain_available()
                              else "compiled")


# ------------------------------------------------------------ operators
def test_signed_ops_equivalence():
    m = RtlModule("m")
    a = m.input("a", 5)
    b = m.input("b", 5)
    m.output("smul", SMul(a, b))
    m.output("sra", Sra(a, 2))
    m.output("slt", Cmp("slt", a, b))
    m.output("sle", Cmp("sle", a, b))
    m.output("sext", Ext(a, 8, signed=True))
    drive_and_compare(m, cycles=40, seed=1)


def test_misc_ops_equivalence():
    m = RtlModule("m")
    a = m.input("a", 4)
    b = m.input("b", 4)
    s = m.input("s", 2)
    m.output("cat", Cat(a, b))
    m.output("case", Case(s, {0: a, 1: b, 2: Const(4, 5)}, Const(4, 9)))
    m.output("red_and", Reduce("and", a))
    m.output("red_or", Reduce("or", a))
    m.output("red_xor", Reduce("xor", a))
    m.output("arith", Slice(Add(Mul(a, b), Sub(a, b)), 5, 0))
    m.output("bits", BitXor(BitAnd(a, b), BitOr(BitNot(a), b)))
    m.output("mux", Mux(Cmp("eq", a, b), Shl(a, 1), Shr(b, 1)))
    drive_and_compare(m, cycles=40, seed=2)


# ------------------------------------------------- registers + memories
def test_registers_and_reset():
    m = RtlModule("m")
    x = m.input("x", 6)
    acc = m.register("acc", 8, init=5)
    cnt = m.register("cnt", 4, init=0)
    m.set_next(acc, Slice(Add(acc, Ext(x, 8, signed=False)), 7, 0))
    m.set_next(cnt, Slice(Add(cnt, Const(1, 1)), 3, 0))
    m.output("acc_q", acc)
    m.output("cnt_q", cnt)
    drive_and_compare(m, cycles=25, seed=3)


def test_memory_write_then_read_same_cycle():
    """Port ordering: a later read port sees an earlier port's write."""
    m = RtlModule("m")
    we = m.input("we", 1)
    addr = m.input("addr", 3)
    data = m.input("data", 8)
    ram = m.memory("ram", 8, 8)
    m.mem_write(ram, we, addr, data)
    m.output("q", m.mem_read(ram, addr))
    drive_and_compare(m, cycles=40, seed=4)


def test_rom_equivalence():
    m = RtlModule("m")
    addr = m.input("addr", 3)
    rom = m.memory("rom", 8, 6,
                   contents=[7, 1, 63, 0, 32, 5, 9, 44])
    m.output("q", m.mem_read(rom, addr))
    drive_and_compare(m, cycles=20, seed=5)


@pytest.mark.parametrize("backend", CODEGEN_BACKENDS)
def test_src_rtl_design_equivalence(rtl_opt_design, backend):
    """The real SRC RTL module: interpreted and codegen in lockstep."""
    module = rtl_opt_design.module
    interp, comp = both(module, backend=backend)
    rng = random.Random(6)
    widths = {n: module.net_width(n) for n in module.input_names()}
    for _ in range(120):
        for name, w in widths.items():
            v = rng.randrange(1 << w)
            interp.set_input(name, v)
            comp.set_input(name, v)
        interp.step()
        comp.step()
    for out in module.output_names():
        assert interp.get(out) == comp.get(out), out
    for mem in module.memories:
        assert interp.peek_memory(mem.name) == comp.peek_memory(mem.name)


# ------------------------------------------------------- parallel lanes
def test_vectorized_lanes_match_interpreted_runs():
    """One vectorized run with N lanes == N interpreted runs."""
    m = RtlModule("m")
    a = m.input("a", 4)
    b = m.input("b", 4)
    acc = m.register("acc", 8, init=3)
    m.set_next(acc, Slice(Add(acc, Mul(a, b)), 7, 0))
    m.output("acc_q", acc)
    m.output("mix", BitXor(Cat(a, b), Ext(acc, 8, signed=False)))
    n = 7
    vec = RtlSimulator(m, backend="vectorized", n_patterns=n)
    interps = [RtlSimulator(m) for _ in range(n)]
    rng = random.Random(8)
    for cycle in range(25):
        for name in ("a", "b"):
            vals = [rng.randrange(16) for _ in range(n)]
            vec.set_input_patterns(name, vals)
            for sim, v in zip(interps, vals):
                sim.set_input(name, v)
        vec.step()
        for sim in interps:
            sim.step()
        for out in m.output_names():
            got = vec.get_patterns(out)
            for p, sim in enumerate(interps):
                assert got[p] == sim.get(out), (out, p, cycle)


# ----------------------------------------------------------- the cache
def test_rtl_compile_cache_hits():
    cache = CompileCache()
    m = RtlModule("m")
    m.output("y", BitNot(m.input("x", 3)))
    prog1 = compile_rtl(m, cache=cache)
    prog2 = compile_rtl(m, cache=cache)
    assert prog2 is prog1
    assert (cache.stats.hits, cache.stats.misses) == (1, 1)
    assert "def _run" in prog1.source


def test_rtl_default_cache_shared():
    m = RtlModule("cache_probe")
    m.output("y", Shl(m.input("x", 13), 2))
    before = RTL_COMPILE_CACHE.stats.misses
    RtlSimulator(m, backend="compiled")
    RtlSimulator(m, backend="compiled")
    assert RTL_COMPILE_CACHE.stats.misses == before + 1
