"""Randomised behavioural programs: interpreter == FSM engines == RTL == gates.

A small structured-program generator builds random (but valid) HLS
programs -- assignments over a few variables, nested ifs, constant-bound
loops, memory reads, port writes -- schedules them, and cross-checks the
FSM interpreter against every generated-code FSM engine, scalar and
batched, against the generated RTL (and, for a subset, against the
synthesised gates).
"""

import random

from hypothesis import given, settings, strategies as st

from repro.engines import ENGINES, engine_class
from repro.gatesim import GateSimulator
from repro.hls import (Assign, FsmInterpreter, For, HlsProgram, If,
                       MemReadStmt, PortWrite, Scheduler,
                       SchedulingConstraints, WaitCycle, WaitUntil,
                       bind_registers, generate_rtl, prune_dead_reg_writes)
from repro.rtl import (Add, BitAnd, BitXor, Const, Mux, Ref, RtlModule,
                       RtlSimulator, Slice, SMul, Sub)
from repro.synth import synthesize

VARS = {"v0": 8, "v1": 8, "v2": 12, "cnt": 3}
INS = {"go": 1, "x": 8, "y": 8}


def _expr(rng, depth):
    if depth <= 0:
        pick = rng.randrange(3)
        if pick == 0:
            name = rng.choice(list(VARS))
            return Ref(name, VARS[name])
        if pick == 1:
            name = rng.choice(["x", "y"])
            return Ref(name, INS[name])
        w = rng.randrange(1, 9)
        return Const(w, rng.randrange(1 << w))
    a = _expr(rng, depth - 1)
    b = _expr(rng, depth - 1)
    op = rng.randrange(6)
    if op == 0:
        return Slice(Add(a, b), min(a.width, b.width) - 1, 0) \
            if min(a.width, b.width) > 1 else BitXor(a, b)
    if op == 1:
        return Slice(Sub(a, b), max(a.width, b.width) - 1, 0)
    if op == 2 and 2 <= a.width <= 8 and 2 <= b.width <= 8:
        return Slice(SMul(a, b), a.width + b.width - 1, 0)
    if op == 3:
        return BitAnd(a, b)
    if op == 4:
        cond = Ref("go", 1) if rng.randrange(2) else a.bit(0)
        w = max(a.width, b.width)
        return Mux(cond, a.zext(w) if a.width < w else a,
                   b.zext(w) if b.width < w else b)
    return BitXor(a, b)


def _sized(expr, width):
    if expr.width == width:
        return expr
    if expr.width > width:
        return Slice(expr, width - 1, 0)
    return expr.zext(width)


def _mul_count(expr):
    from repro.rtl.expr import Mul, SMul, traverse

    return sum(1 for n in traverse(expr) if isinstance(n, (Mul, SMul)))


def _expr_single_mul(rng, depth):
    """Random expression with at most one multiplier (the scheduler's
    single-multiplier allocation cannot split one statement)."""
    for _ in range(20):
        e = _expr(rng, depth)
        if _mul_count(e) <= 1:
            return e
    return Ref("x", 8)


def _stmts(rng, depth, allow_loop=True):
    out = []
    for _ in range(rng.randrange(1, 4)):
        kind = rng.randrange(6)
        if kind <= 2:
            var = rng.choice([v for v in VARS if v != "cnt"])
            out.append(Assign(var, _sized(_expr_single_mul(rng, 2), VARS[var])))
        elif kind == 3 and depth > 0:
            out.append(If(_expr_single_mul(rng, 1).bit(0),
                          _stmts(rng, depth - 1, allow_loop),
                          _stmts(rng, depth - 1, allow_loop)
                          if rng.randrange(2) else []))
        elif kind == 4 and depth > 0 and allow_loop:
            out.append(For("cnt", rng.randrange(2, 5),
                           _stmts(rng, depth - 1, allow_loop=False)))
        elif kind == 5:
            out.append(MemReadStmt(
                "v0", "rom", _sized(_expr_single_mul(rng, 1), 3)))
        else:
            out.append(WaitCycle())
    return out


def _make_program(seed):
    rng = random.Random(seed)
    prog = HlsProgram(f"rand{seed}")
    for name, w in INS.items():
        prog.input(name, w)
    prog.output("o0", 8)
    prog.output("o1", 12)
    prog.output("done", 1, kind="pulse")
    prog.memory("rom", 8, 8,
                contents=[rng.randrange(256) for _ in range(8)])
    for name, w in VARS.items():
        prog.var(name, w)
    prog.body = [
        WaitUntil(Ref("go", 1)),
        *_stmts(rng, 2),
        PortWrite("o0", Ref("v0", 8)),
        PortWrite("o1", Ref("v2", 12)),
        PortWrite("done", Const(1, 1)),
    ]
    prog.validate()
    return prog


def _run(dut, get, x, y, max_cycles=200, label=""):
    dut.set_input("x", x)
    dut.set_input("y", y)
    dut.set_input("go", 1)
    for _ in range(max_cycles):
        dut.step()
        if get("done"):
            return get("o0"), get("o1")
    raise AssertionError(f"no done pulse ({label or 'unseeded run'})")


def _run_batch(batch, stimuli, max_cycles=200, label=""):
    """Each pattern's first ``(o0, o1)``, one ``(x, y)`` per pattern."""
    batch.set_input_patterns("x", [x for x, _ in stimuli])
    batch.set_input_patterns("y", [y for _, y in stimuli])
    batch.set_input("go", 1)
    results = [None] * len(stimuli)
    for _ in range(max_cycles):
        batch.step()
        outputs = zip(batch.get_output_patterns("done"),
                      batch.get_output_patterns("o0"),
                      batch.get_output_patterns("o1"))
        for p, (done, o0, o1) in enumerate(outputs):
            if done and results[p] is None:
                results[p] = (o0, o1)
        if None not in results:
            return results
    raise AssertionError(f"no done pulse ({label or 'unseeded run'})")


def _build_rtl(prog, share):
    fsm = Scheduler(prog, SchedulingConstraints(clock_ns=200.0)).run()
    if share:
        prune_dead_reg_writes(fsm)
    module = RtlModule(prog.name)
    inputs = {name: module.input(name, w) for name, w in INS.items()}
    gen = generate_rtl(fsm, module, inputs,
                       bind_registers(fsm, share=share))
    module.output("o0", gen.outputs["o0"])
    module.output("o1", gen.outputs["o1"])
    module.output("done", gen.outputs["done"])
    return module


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=2000))
def test_interpreter_matches_generated_rtl(seed):
    prog = _make_program(seed)
    fsm = Scheduler(prog, SchedulingConstraints(clock_ns=200.0)).run()
    interp = FsmInterpreter(fsm)
    module = _build_rtl(_make_program(seed), share=False)
    rtl = RtlSimulator(module)
    vec = random.Random(seed + 1)
    for _ in range(3):
        x, y = vec.randrange(256), vec.randrange(256)
        expected = _run(interp, interp.get_output, x, y,
                        label=f"seed {seed}")
        got = _run(rtl, rtl.get, x, y, label=f"seed {seed}")
        assert got == expected, f"seed {seed}"


#: the generated-code engines, each with a scalar and a batch FSM class
CODEGEN_ENGINES = tuple(name for name, engine in ENGINES.items()
                        if engine.compiles)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=2000))
def test_fsm_engines_match_interpreter(seed):
    """Every engine's generated FSM code, scalar (three runs in a row)
    and as a 3-pattern batch (one run per pattern, each with its own
    ``x``/``y``), against the interpreter."""
    fsm = Scheduler(_make_program(seed),
                    SchedulingConstraints(clock_ns=200.0)).run()
    vec = random.Random(seed + 5)
    stimuli = [(vec.randrange(256), vec.randrange(256)) for _ in range(3)]
    label = f"seed {seed}"
    interp = FsmInterpreter(fsm)
    in_a_row = [_run(interp, interp.get_output, x, y, label=label)
                for x, y in stimuli]
    first_runs = []
    for x, y in stimuli:
        fresh = FsmInterpreter(fsm)
        first_runs.append(_run(fresh, fresh.get_output, x, y, label=label))
    for name in CODEGEN_ENGINES:
        dut = engine_class(name, "fsm")(fsm)
        assert [_run(dut, dut.get_output, x, y, label=label)
                for x, y in stimuli] == in_a_row, (name, label)
        batch = engine_class(name, "fsm_batch")(fsm, len(stimuli))
        assert _run_batch(batch, stimuli, label=label) == first_runs, \
            (name, label)


@settings(max_examples=6, deadline=None)
@given(st.integers(min_value=0, max_value=500))
def test_shared_binding_preserves_behaviour(seed):
    unshared = _build_rtl(_make_program(seed), share=False)
    shared = _build_rtl(_make_program(seed), share=True)
    a = RtlSimulator(unshared)
    b = RtlSimulator(shared)
    vec = random.Random(seed + 9)
    for _ in range(3):
        x, y = vec.randrange(256), vec.randrange(256)
        assert _run(a, a.get, x, y, label=f"seed {seed}") == \
            _run(b, b.get, x, y, label=f"seed {seed}"), f"seed {seed}"


@settings(max_examples=4, deadline=None)
@given(st.integers(min_value=0, max_value=200))
def test_gates_match_interpreter(seed):
    prog = _make_program(seed)
    fsm = Scheduler(prog, SchedulingConstraints(clock_ns=200.0)).run()
    interp = FsmInterpreter(fsm)
    module = _build_rtl(_make_program(seed), share=True)
    gate = GateSimulator(synthesize(module))
    gate.set_input("scan_en", 0)
    vec = random.Random(seed + 3)
    x, y = vec.randrange(256), vec.randrange(256)
    assert _run(gate, gate.get, x, y, label=f"seed {seed}") == \
        _run(interp, interp.get_output, x, y,
             label=f"seed {seed}"), f"seed {seed}"
