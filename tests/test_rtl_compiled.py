"""Compiled RTL backends: codegen equivalence with the interpreter.

``RtlSimulator(module, backend="compiled")`` generates one Python
function for the whole multi-cycle loop;
``RtlSimulator(module, backend="native")`` generates the same
structure as C.  Both must match the interpreted closures on every
construct the IR offers: arithmetic (signed and unsigned), shifts, comparisons,
muxes, concatenation, reductions, registers and memories (including
same-cycle write/read ordering across ports).
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.engines import ENGINES
from repro.rtl import (Add, BitAnd, BitNot, BitOr, BitXor, Case, Cat, Cmp,
                       Const, Ext, Mux, Mul, Reduce, RtlError,
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


# -------------------------------------------------------- random modules
#: leaf input widths: narrow, odd and either side of the 64-bit word
_LEAF_WIDTHS = (1, 17, 63, 64)
_SHIFTS = (0, 1, 63, 64, 70)


def _fit(expr, width):
    """*expr* sliced or zero-extended to *width* bits."""
    if expr.width > width:
        return Slice(expr, width - 1, 0)
    if expr.width < width:
        return Ext(expr, width, signed=False)
    return expr


def _random_expr(draw, leaves, depth):
    """A random tree over *leaves* in which every node fits 64 bits."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from(leaves))
    a = _random_expr(draw, leaves, depth - 1)
    b = _random_expr(draw, leaves, depth - 1)
    kind = draw(st.sampled_from((
        "add", "sub", "mul", "smul", "bitwise", "not", "shl", "shr", "sra",
        "cmp", "mux", "case", "cat", "slice", "ext", "reduce")))
    carry = min(64, max(a.width, b.width) + 1)
    if kind == "add":
        return Add(a, b, carry)
    if kind == "sub":
        return Sub(a, b, carry)
    if kind in ("mul", "smul", "cat") and a.width + b.width <= 64:
        return {"mul": Mul, "smul": SMul, "cat": Cat}[kind](a, b)
    if kind == "bitwise":
        return draw(st.sampled_from((BitAnd, BitOr, BitXor)))(a, b)
    if kind == "not":
        return BitNot(a)
    if kind == "shl":
        return Shl(a, draw(st.integers(0, 64 - a.width)))
    if kind in ("shr", "sra"):
        amount = draw(st.sampled_from(_SHIFTS + (a.width - 1, a.width)))
        return (Shr if kind == "shr" else Sra)(a, amount)
    if kind == "cmp":
        op = draw(st.sampled_from(("eq", "ne", "ult", "ule", "slt", "sle")))
        return Cmp(op, a, b)
    if kind == "mux":
        return Mux(_fit(b, 1), a, b)
    if kind == "case":
        return Case(_fit(b, 2), {0: a, 2: b}, BitNot(a))
    if kind == "slice":
        lsb = draw(st.integers(0, a.width - 1))
        return Slice(a, draw(st.integers(lsb, a.width - 1)), lsb)
    if kind == "ext":
        width = draw(st.sampled_from((a.width, 64)) | st.integers(a.width, 64))
        return Ext(a, width, signed=draw(st.booleans()))
    if kind == "reduce":
        return Reduce(draw(st.sampled_from(("and", "or", "xor"))), a)
    return a


def _random_module(draw):
    """Inputs at the word edges, wide constants, an out-of-range ROM
    read, random assigns, one register and one RAM write port."""
    m = RtlModule("prop")
    leaves = [m.input(f"i{w}", w) for w in _LEAF_WIDTHS]
    for width in draw(st.lists(st.integers(1, 64), min_size=1, max_size=3)):
        leaves.append(Const(width, draw(st.integers(0, (1 << width) - 1))))
    rom = m.memory("rom", 5, 16, contents=draw(st.lists(
        st.integers(0, 0xFFFF), min_size=5, max_size=5)))
    # a 3-bit address over 5 words: 5..7 read 0
    leaves.append(m.mem_read(rom, _fit(leaves[1], 3)))
    ram = m.memory("ram", 4, 64)
    acc = m.register("acc", 64, init=draw(st.integers(0, (1 << 64) - 1)))
    leaves += [acc, m.mem_read(ram, _fit(acc, 3))]
    for i in range(3):
        leaves.append(m.assign(f"a{i}", _random_expr(draw, leaves, 3)))
        m.output(f"o{i}", leaves[-1])
    m.set_next(acc, _fit(_random_expr(draw, leaves, 3), 64))
    m.mem_write(ram, _fit(_random_expr(draw, leaves, 2), 1),
                _fit(_random_expr(draw, leaves, 2), 3),
                _fit(_random_expr(draw, leaves, 2), 64))
    m.output("acc_q", acc)
    return m


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_random_modules_match_interpreted(data):
    """Random modules around the 64-bit edge (signed ops, shifts by 64
    and more, out-of-range memory addresses): every generated-code
    engine matches the interpreter on every output and memory word."""
    module = _random_module(data.draw)
    drive_and_compare(module, cycles=12,
                      seed=data.draw(st.integers(0, 1 << 16), label="seed"))


# ----------------------------------------------------------- the cache
def test_rtl_compile_cache_hits():
    cache = CompileCache()
    m = RtlModule("m")
    m.output("y", BitNot(m.input("x", 3)))
    prog1 = compile_rtl(m, cache=cache)
    prog2 = compile_rtl(m, cache=cache)
    assert prog2 is prog1
    assert (cache.stats.hits, cache.stats.misses) == (1, 1)
    assert "def nat_run(V, MEM, cycles):" in prog1.source


def test_rtl_default_cache_shared():
    m = RtlModule("cache_probe")
    m.output("y", Shl(m.input("x", 13), 2))
    before = RTL_COMPILE_CACHE.stats.misses
    RtlSimulator(m, backend="compiled")
    RtlSimulator(m, backend="compiled")
    assert RTL_COMPILE_CACHE.stats.misses == before + 1
