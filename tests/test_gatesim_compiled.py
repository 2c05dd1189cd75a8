"""Compiled gate-level backends: codegen equivalence, cache, patterns.

The compiled and native backends must be bit-exact with the
interpreted simulator on everything the interpreter supports: 4-valued
combinational logic, flop initial states, scan flops, memory macros
(RAM and ROM) and X-propagation.  Equivalence is checked per-cell
exhaustively, on the synthesised SRC netlists, and on a population of
random netlists, for both generated-code engines; the pattern-batch
tests also drive the compiled engine past the 64-pattern word.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.datatypes import L0, L1, LX, LZ
from repro.engines import ENGINES
from repro.gatesim import (BACKENDS, COMPILE_CACHE, CheckingMemoryModel,
                           CompileCache, CompiledGateSimulator, GateSimError,
                           GateSimulator, compile_netlist, structural_hash)
from repro.rtl import (Add, BitAnd, BitNot, BitOr, BitXor, Cmp, Const, Ext,
                       Mux, Mul, Ref, RtlModule, Shl, Shr, Slice, Sub)
from repro.synth import map_to_gates, optimize
from repro.synth.library import CODEGEN, EVAL, DEFAULT_LIBRARY
from repro.synth.netlist import Netlist

LOGIC = (L0, L1, LX, LZ)


#: the generated-code engines checked against the interpreter
#: ("native" transparently runs as "compiled" when no C toolchain is
#: present, so the equivalence sweep stays valid either way)
CODEGEN_BACKENDS = tuple(name for name, engine in ENGINES.items()
                         if engine.compiles)

#: the ``vectorized`` batch case: the compiled engine run with more
#: patterns than native's 64-pattern word, so each net spans a vector
#: of words -- the one gate batch that wide
WIDE = "vectorized"
#: the pattern-batch cases: every generated-code engine, and WIDE
BATCH_CASES = CODEGEN_BACKENDS + (WIDE,)


def batch_case(case, counts):
    """The engine a batch case runs on and its pattern counts: *counts*
    on an engine, each 64 patterns more on WIDE."""
    if case == WIDE:
        return "compiled", tuple(n + 64 for n in counts)
    return case, counts


def both_backends(netlist, backend="compiled", **kw):
    return (GateSimulator(netlist),
            GateSimulator(netlist, backend=backend, **kw))


def assert_outputs_match(interp, comp, context="", pattern=0):
    for port in interp.netlist.outputs:
        got = (comp.get_logic_pattern(port, pattern) if pattern
               else comp.get_logic(port))
        assert interp.get_logic(port) == got, f"{context} port {port!r}"


# ------------------------------------------------------------- dispatch
def test_backend_dispatch():
    nl = Netlist("n")
    a = nl.add_input("a", 1)[0]
    g = nl.add_cell("INV", {"A": a})
    nl.set_output("y", [g.outputs["Y"]])
    interp = GateSimulator(nl)
    comp = GateSimulator(nl, backend="compiled")
    nat = GateSimulator(nl, backend="native")
    assert type(interp) is GateSimulator
    assert type(comp) is CompiledGateSimulator
    assert interp.backend == "interpreted"
    assert comp.backend == "compiled"
    from repro.native import toolchain_available
    if toolchain_available():
        from repro.gatesim import NativeGateSimulator
        assert type(nat) is NativeGateSimulator
        assert nat.backend == "native"
    else:
        assert type(nat) is CompiledGateSimulator
        assert nat.backend == "compiled"
    assert set(BACKENDS) == {"interpreted", "compiled", "native"}


def test_unknown_backend_raises():
    nl = Netlist("n")
    a = nl.add_input("a", 1)[0]
    nl.set_output("y", [a])
    with pytest.raises(GateSimError):
        GateSimulator(nl, backend="jit")


def test_interpreted_rejects_pattern_kwarg():
    nl = Netlist("n")
    a = nl.add_input("a", 1)[0]
    nl.set_output("y", [a])
    with pytest.raises(GateSimError):
        GateSimulator(nl, backend="interpreted", n_patterns=4)
    with pytest.raises(GateSimError):
        GateSimulator(nl, backend="compiled", n_patterns=0)


@pytest.mark.parametrize("backend", CODEGEN_BACKENDS)
def test_checking_memories_are_interpreted_only(backend):
    """The address-checking memory model runs on the interpreted engine;
    the generated-code engines, whose memories live in the kernel's
    flat image, reject it."""
    m = RtlModule("ram")
    ram = m.memory("ram", 4, 4)
    a = m.input("a", 3)
    m.mem_write(ram, Const(1, 1), a, Ext(a, 4, signed=False))
    m.output("y", m.mem_read(ram, a))
    nl = map_to_gates(m)
    with pytest.raises(GateSimError, match="use interpreted"):
        GateSimulator(nl, backend=backend, checking_memories=True)
    interp = GateSimulator(nl, checking_memories=True)
    assert isinstance(interp.memory_model("ram"), CheckingMemoryModel)


# ------------------------------------------------------------- per cell
def test_codegen_covers_every_eval_cell():
    assert set(CODEGEN) == set(EVAL)


@pytest.mark.parametrize("backend", CODEGEN_BACKENDS)
@pytest.mark.parametrize("cell", sorted(
    c.name for c in DEFAULT_LIBRARY.cells.values() if not c.sequential))
def test_cell_exhaustive_4valued(cell, backend):
    """Every combinational cell, every 4-valued input combination."""
    spec = DEFAULT_LIBRARY.cells[cell]
    nl = Netlist("n")
    pins = {p: nl.add_input(p.lower(), 1)[0] for p in spec.inputs}
    g = nl.add_cell(cell, pins)
    for out in spec.outputs:
        nl.set_output(out.lower(), [g.outputs[out]])
    interp, comp = both_backends(nl, backend=backend)
    n = len(spec.inputs)
    for combo in range(len(LOGIC) ** n):
        vals = []
        c = combo
        for _ in range(n):
            vals.append(LOGIC[c % len(LOGIC)])
            c //= len(LOGIC)
        for pin, v in zip(spec.inputs, vals):
            interp.set_input_logic(pin.lower(), [v])
            comp.set_input_logic(pin.lower(), [v])
        for out in spec.outputs:
            # the compiled two-bitplane encoding folds Z into X, so a
            # value-preserving cell (BUF, MUX2 pass-through) may turn
            # an LZ into an LX -- normalise before comparing
            ref = [LX if v == LZ else v
                   for v in interp.get_logic(out.lower())]
            assert ref == comp.get_logic(out.lower()), (cell, vals, out)


def _gray(n):
    """Every combination of *n* logic codes, each one code away from
    the one before (a reflected Gray code)."""
    if n == 0:
        return [()]
    rows = _gray(n - 1)
    return [(code,) + row for i, code in enumerate(LOGIC)
            for row in (rows if i % 2 == 0 else rows[::-1])]


@pytest.mark.parametrize("backend", CODEGEN_BACKENDS)
@pytest.mark.parametrize("cell", sorted(
    c.name for c in DEFAULT_LIBRARY.cells.values() if c.sequential))
def test_flop_exhaustive_4valued(cell, backend):
    """Every sequential cell, every 4-valued input combination, one
    edge after each, each combination one input away from the one
    before: the interpreted engine samples only the flops whose inputs
    moved, so an edge after a move of SE alone or SI alone must
    resample too."""
    spec = DEFAULT_LIBRARY.cells[cell]
    nl = Netlist("n")
    pins = {p: nl.add_input(p.lower(), 1)[0] for p in spec.inputs}
    g = nl.add_cell(cell, pins)
    nl.set_output("q", [g.outputs["Q"]])
    interp, comp = both_backends(nl, backend=backend)
    for codes in _gray(len(spec.inputs)):
        for pin, v in zip(spec.inputs, codes):
            interp.set_input_logic(pin.lower(), [v])
            comp.set_input_logic(pin.lower(), [v])
        interp.step()
        comp.step()
        ref = [LX if v == LZ else v for v in interp.get_logic("q")]
        assert ref == comp.get_logic("q"), (cell, codes)


# -------------------------------------------------------- SRC netlists
@pytest.mark.parametrize("backend", BATCH_CASES)
@pytest.mark.parametrize("which", ["rtl", "beh"])
def test_src_netlist_equivalence(which, backend, rtl_opt_netlist,
                                 beh_opt_netlist):
    """The SRC netlists on every engine; on WIDE the interpreted run's
    stimulus is the last pattern, past the 64-pattern word, and every
    other pattern gets its own."""
    nl = rtl_opt_netlist if which == "rtl" else beh_opt_netlist
    engine, (n,) = batch_case(backend, (1,))
    if n == 1:
        interp, comp = both_backends(nl, backend=engine)
    else:
        interp, comp = both_backends(nl, backend=engine, n_patterns=n)
    rng = random.Random(7)
    spans = {name: 1 << len(nets) for name, nets in nl.inputs.items()}
    for cycle in range(40):
        for name, span in spans.items():
            v = rng.randrange(span)
            interp.set_input(name, v)
            if n == 1:
                comp.set_input(name, v)
            else:
                comp.set_input_patterns(
                    name, [rng.randrange(span) for _ in range(n - 1)] + [v])
        assert_outputs_match(interp, comp, f"{which} cycle {cycle}",
                             pattern=n - 1)
        interp.step()
        comp.step()
    assert interp.cycles == comp.cycles == 40


# ------------------------------------------------------ random netlists
def _rand_expr(rng, refs, depth):
    if depth <= 0 or rng.random() < 0.25:
        if rng.random() < 0.3:
            w = rng.randrange(1, 6)
            return Const(w, rng.randrange(1 << w))
        return rng.choice(refs)
    x = _rand_expr(rng, refs, depth - 1)
    y = _rand_expr(rng, refs, depth - 1)
    op = rng.randrange(10)
    if op == 0:
        return Add(x, y)
    if op == 1:
        return Sub(x, y)
    if op == 2 and x.width <= 5 and y.width <= 5:
        return Mul(x, y)
    if op == 3:
        return BitAnd(x, y)
    if op == 4:
        return BitOr(x, y)
    if op == 5:
        return BitXor(x, y)
    if op == 6:
        return BitNot(x)
    if op == 7:
        return Mux(Cmp("ult", x, y), x, y)
    if op == 8 and x.width > 1:
        return Slice(x, rng.randrange(1, x.width), 0)
    if op == 9:
        return rng.choice([Shl, Shr])(x, rng.randrange(0, 2))
    return Ext(x, x.width + 1, signed=False)


def _rand_module(seed):
    """Random module: combinational cone + flops + RAM + ROM.

    Some seeds also get a word-edge input of 63, 64 or 65 bits, a
    64-bit register and a 64-bit-wide RAM, each driving a full-width
    output.  Their draws come from a second generator, so the other
    seeds build the modules they always did.
    """
    rng = random.Random(seed)
    m = RtlModule(f"rand{seed}")
    ins = [m.input(f"i{k}", rng.randrange(1, 6)) for k in range(3)]
    wide = random.Random(-1 - seed)
    if wide.random() < 0.3:
        w = m.input("w", wide.choice((63, 64, 65)))
        acc = m.register("acc", 64, init=wide.getrandbits(64))
        m.set_next(acc, Slice(BitXor(Add(w, Ext(acc, w.width + 1,
                                                     signed=False)),
                                     Shl(acc, 1)), 63, 0))
        wram = m.memory("wram", 2, 64)
        m.mem_write(wram, Slice(ins[0], 0, 0), Slice(ins[1], 0, 0), acc)
        m.output("ow", m.mem_read(wram, Slice(ins[2], 0, 0)))
        m.output("oacc", acc)
        m.output("ww", BitNot(w))
        ins.append(w)
    regs = []
    for k in range(rng.randrange(1, 3)):
        w = rng.randrange(1, 6)
        regs.append(m.register(f"r{k}", w, init=rng.randrange(1 << w)))
    refs = ins + regs
    for reg in regs:
        nxt = _rand_expr(rng, refs, 2)
        m.set_next(reg, nxt if nxt.width == reg.width
                   else Ext(Slice(nxt, 0, 0), reg.width, signed=False))
    if rng.random() < 0.7:  # writable RAM with read-back
        ram = m.memory("ram", 4, 4)
        m.mem_write(ram, Slice(ins[0], 0, 0), Slice(ins[1], 0, 0),
                    Ext(Slice(ins[2], 0, 0), 4, signed=False))
        refs.append(m.mem_read(ram, Slice(ins[0], 0, 0)))
    if rng.random() < 0.5:  # ROM
        rom = m.memory("rom", 4, 4,
                       contents=[rng.randrange(16) for _ in range(4)])
        refs.append(m.mem_read(rom, Slice(ins[1], 0, 0)))
    for k in range(2):
        e = _rand_expr(rng, refs, 3)
        m.output(f"o{k}", Slice(e, min(e.width, 8) - 1, 0))
    return m


def _drive_random_inputs(rng, widths, sims):
    """The same random values, a quarter of them X, on every input."""
    for name, w in widths.items():
        if rng.random() < 0.25:  # X-propagation: drive unknown bits
            # no LZ here: the compiled two-bitplane encoding folds Z
            # into X, so a direct input-to-output feedthrough would
            # legitimately differ on Z
            vals = [rng.choice((L0, L1, LX)) for _ in range(w)]
            for sim in sims:
                sim.set_input_logic(name, vals)
        else:
            v = rng.randrange(1 << w)
            for sim in sims:
                sim.set_input(name, v)


def _assert_wide_read_is_current(sim):
    """The reference engine's own check: the 64-bit RAM's read port
    shows what the RAM holds now."""
    if "ow" not in sim.netlist.outputs:
        return
    select = sim.get_logic("i2")[0]
    if select not in (L0, L1):
        return
    word = sim.memory_model("wram").peek()[select]
    assert sim.get_logic("ow") == [(word >> i) & 1 for i in range(64)]


@pytest.mark.parametrize("backend", CODEGEN_BACKENDS)
@pytest.mark.parametrize("seed", range(50))
def test_random_netlist_equivalence(seed, backend):
    """Interpreted vs codegen on random netlists with X injection and,
    mid-run, a bit flip in every memory cell with the inputs held."""
    nl = optimize(map_to_gates(_rand_module(seed)))
    interp, comp = both_backends(nl, backend=backend)
    duts = [comp]
    sims = [interp] + duts
    rng = random.Random(seed + 1000)
    widths = {name: len(nets) for name, nets in nl.inputs.items()}
    for cycle in range(12):
        if cycle == 6:  # SEUs after a read, with the inputs held
            for dut in duts:
                assert_outputs_match(interp, dut, f"seed {seed} pre-SEU")
            for macro in nl.memories:
                for address in range(macro.depth):
                    bit = rng.randrange(macro.width)
                    for sim in sims:
                        sim.memory_model(macro.name).flip_bit(address, bit)
            _assert_wide_read_is_current(interp)
        else:
            _drive_random_inputs(rng, widths, sims)
        for dut in duts:
            assert_outputs_match(interp, dut, f"seed {seed} cycle {cycle}")
        for sim in sims:
            sim.step()
    for sim in sims:
        sim.reset()
    for dut in duts:
        assert_outputs_match(interp, dut, f"seed {seed} after reset")


def test_flop_init_states_compiled():
    m = RtlModule("m")
    x = m.input("x", 4)
    r = m.register("r", 4, init=11)
    m.set_next(r, x)
    m.output("q", r)
    comp = GateSimulator(map_to_gates(m), backend="compiled")
    assert comp.get("q") == 11
    comp.set_input("x", 5)
    comp.step()
    assert comp.get("q") == 5
    comp.reset()
    assert comp.get("q") == 11


# --------------------------------------------------- parallel patterns
@pytest.mark.parametrize("backend", BATCH_CASES)
def test_parallel_patterns_match_interpreted_runs(backend):
    """One batch run with N patterns == N interpreted runs, up to
    native's 64-pattern word on each engine and past it on WIDE."""
    m = _rand_module(123)
    nl = optimize(map_to_gates(m))
    widths = {name: len(nets) for name, nets in nl.inputs.items()}
    engine, counts = batch_case(backend, (1, 3, 8, 64))
    for n_patterns in counts:
        comp = GateSimulator(nl, backend=engine, n_patterns=n_patterns)
        interps = [GateSimulator(nl) for _ in range(n_patterns)]
        rng = random.Random(9 + n_patterns)
        for cycle in range(10):
            for name, w in widths.items():
                # out-of-range values too: both sides mask to the port
                vals = [rng.randrange(-(1 << 65), 1 << 65)
                        if rng.random() < 0.2 else rng.randrange(1 << w)
                        for _ in range(n_patterns)]
                comp.set_input_patterns(name, tuple(vals) if cycle % 2
                                        else vals)
                for sim, v in zip(interps, vals):
                    sim.set_input(name, v)
            for port in nl.outputs:
                for p, sim in enumerate(interps):
                    assert comp.get_logic_pattern(port, p) == \
                        sim.get_logic(port), (port, p, cycle, n_patterns)
            comp.step()
            for sim in interps:
                sim.step()


def _wire(width):
    """Input ``a`` straight to output ``y``, *width* bits."""
    nl = Netlist(f"wire{width}")
    nl.set_output("y", nl.add_input("a", width))
    return nl


def _edge_values(n_patterns):
    """Negative, wider-than-port, >= 2**63 and >= 2**64 values."""
    pool = [0, 1, -1, -2, 5, 1 << 63, (1 << 64) - 1, 1 << 64,
            (1 << 64) + 3, (1 << 65) + 0x1234, -(1 << 63), -(1 << 70) - 9,
            0x9E3779B97F4A7C15]
    return [pool[p % len(pool)] * (p // len(pool) + 1)
            for p in range(n_patterns)]


@pytest.mark.parametrize("backend", BATCH_CASES)
def test_get_patterns_round_trip(backend):
    nl = Netlist("n")
    a = nl.add_input("a", 3)
    g0 = nl.add_cell("INV", {"A": a[0]})
    g1 = nl.add_cell("INV", {"A": a[1]})
    g2 = nl.add_cell("INV", {"A": a[2]})
    nl.set_output("y", [g0.outputs["Y"], g1.outputs["Y"],
                        g2.outputs["Y"]])
    engine, (n,) = batch_case(backend, (4,))
    comp = GateSimulator(nl, backend=engine, n_patterns=n)
    stimulus = [0, 3, 5, 7] * (n // 4)
    comp.set_input_patterns("a", stimulus)
    assert comp.get_patterns("y") == [7 - v for v in stimulus]

    # every value is taken modulo 2**width, negative ones as two's
    # complement, on ports narrower than, equal to and wider than the
    # 64-bit machine word; lists and tuples alike
    engine, counts = batch_case(backend, (1, 3, 64))
    for width in (1, 63, 64, 65):
        for n_patterns in counts:
            sim = GateSimulator(_wire(width), backend=engine,
                                n_patterns=n_patterns)
            values = _edge_values(n_patterns)
            want = [v % (1 << width) for v in values]
            for kind in (list, tuple):
                sim.set_input_patterns("a", kind(values))
                assert sim.get_patterns("y") == want, (width, n_patterns)
            # an X driven by set_input_logic is cleared by the next
            # set_input_patterns
            sim.set_input_logic("a", [LX] * width)
            with pytest.raises(GateSimError):
                sim.get_patterns("y")
            sim.set_input_patterns("a", values[::-1])
            assert sim.get_patterns("y") == want[::-1]
            with pytest.raises(GateSimError):
                sim.set_input_patterns("a", values + [0])  # wrong length
            with pytest.raises(GateSimError):
                sim.set_input_patterns("nope", values)  # unknown port


#: port widths around the 64-bit word edge, plus a few small ones
_PROPERTY_WIDTHS = (1, 2, 7, 32, 63, 64, 65)
#: one netlist per width, so the engines compile each width once
_WIRES = {}


@pytest.mark.parametrize("backend", BATCH_CASES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_pattern_io_property(backend, data):
    """Any width, pattern count and values: a wire returns every value
    modulo 2**width, on every generated-code engine and on WIDE."""
    width = data.draw(st.sampled_from(_PROPERTY_WIDTHS), label="width")
    engine, (low, high) = batch_case(backend, (1, 64))
    n_patterns = data.draw(st.integers(low, high), label="n_patterns")
    values = data.draw(st.lists(
        st.integers(-(1 << 70), 1 << 70) | st.integers(0, (1 << width) - 1),
        min_size=n_patterns, max_size=n_patterns), label="values")
    sim = GateSimulator(_WIRES.setdefault(width, _wire(width)),
                        backend=engine, n_patterns=n_patterns)
    sim.set_input_patterns("a", values)
    assert sim.get_patterns("y") == [v % (1 << width) for v in values]


def test_vectorized_runs_past_the_word_cap():
    """The compiled engine's batch has no word cap: 200 patterns, four
    words per net, each bit-exact with its own interpreted run."""
    m = _rand_module(123)
    nl = optimize(map_to_gates(m))
    n_patterns = 200
    wide = GateSimulator(nl, backend="compiled", n_patterns=n_patterns)
    ref = GateSimulator(nl)
    rng = random.Random(11)
    widths = {name: len(nets) for name, nets in nl.inputs.items()}
    stimulus = [{name: [rng.randrange(1 << w) for _ in range(n_patterns)]
                 for name, w in widths.items()} for _ in range(6)]
    probe = 137  # deep in the third word
    for cycle, frame in enumerate(stimulus):
        for name, vals in frame.items():
            wide.set_input_patterns(name, vals)
            ref.set_input(name, vals[probe])
        for port in nl.outputs:
            assert wide.get_logic_pattern(port, probe) == \
                ref.get_logic(port), (port, cycle)
        wide.step()
        ref.step()


# ----------------------------------------------------------- the cache
def test_compile_cache_hit_miss():
    cache = CompileCache()
    m = _rand_module(5)
    nl = map_to_gates(m)
    prog1 = compile_netlist(nl, cache=cache)
    assert (cache.stats.hits, cache.stats.misses) == (0, 1)
    prog2 = compile_netlist(nl, cache=cache)
    assert prog2 is prog1
    assert (cache.stats.hits, cache.stats.misses) == (1, 1)
    other = map_to_gates(_rand_module(6))
    compile_netlist(other, cache=cache)
    assert (cache.stats.hits, cache.stats.misses) == (1, 2)
    assert len(cache) == cache.stats.entries == 2
    cache.clear()
    assert len(cache) == 0


def test_structural_hash_stable_and_discriminating():
    nl_a = map_to_gates(_rand_module(5))
    nl_b = map_to_gates(_rand_module(5))
    nl_c = map_to_gates(_rand_module(6))
    assert structural_hash(nl_a) == structural_hash(nl_b)
    assert structural_hash(nl_a) != structural_hash(nl_c)


def test_simulators_share_default_cache():
    nl = map_to_gates(_rand_module(7))
    before = COMPILE_CACHE.stats.misses
    GateSimulator(nl, backend="compiled")
    GateSimulator(nl, backend="compiled")
    stats = COMPILE_CACHE.stats
    assert stats.misses == before + 1  # second construction hits
    assert "hits" in stats.format()
