"""``replay(waveform, ports)`` on every clocked host and engine.

The interpreted hosts replay with the per-cycle reference loop
(:func:`repro.engines.replay_loop`: one ``set_input`` per write, one
``step``, one port read); the generated-code hosts run the waveform in
one ``nat_replay`` kernel call, which steps only the ticks whose start
state moved.  Every replay must return what that loop reads on a twin
simulator, and leave its host where the loop leaves the twin: the same
``cycles`` and the same later reads -- on busy waveforms and on quiet
ones (runs of empty ticks, writes of values the ports already hold),
and across calls with pokes and writes between them.  A replay counts
its stepped and skipped ticks, and a restarted DUT replays as a new
one.  Also here: the gate host's lazy settle (a read settles only when
it reads a net of the combinational cone) and a verify run on a netlist
whose output goes X, which must raise the per-cycle driver's error
text.
"""

import random

import pytest

from repro.datatypes import LX
from repro.engines import ENGINES, engine_class, replay_loop
from repro.flow.refinement import Level, build_module
from repro.gatesim import GateSimulator
from repro.hls import FsmInterpreter, Scheduler, SchedulingConstraints
from repro.hls.compiled import CompiledFsm
from repro.obs.metrics import REGISTRY
from repro.rtl import RtlError, RtlModule, RtlSimulator
from repro.rtl.expr import BitXor, Const
from repro.src_design.params import SMALL_PARAMS
from repro.synth import map_to_gates, optimize, synthesize
from repro.verify import (LevelBuilds, LevelSpec, ToggleCoverage,
                          generate_cases, run_case_level)
from repro.verify.runner import OUT_PORTS, case_timing, make_dut
from tests.test_gatesim_compiled import _rand_module
from tests.test_hls_random_programs import _make_program
from tests.test_wide_values import _wide_fsm, _wide_module

ALL_ENGINES = tuple(ENGINES)


def _waveform(rng, widths, ticks, quiet=False):
    """Random writes to a random subset of *widths*' ports per tick,
    negative and over-wide values included (the host masks them).

    A *quiet* waveform also holds still: runs of empty ticks, and
    writes of the value a port already holds (as written, or one period
    of its width away)."""
    wave = []
    held = {}
    while len(wave) < ticks:
        if quiet and rng.random() < 0.3:
            wave += [{}] * rng.randrange(1, 9)
            continue
        writes = {}
        for name, w in widths.items():
            if rng.random() < 0.5:
                if quiet and name in held and rng.random() < 0.5:
                    writes[name] = held[name] + rng.choice((0, 1 << w))
                else:
                    writes[name] = rng.randrange(-(1 << w), 1 << (w + 1))
        held.update(writes)
        wave.append(writes)
    return wave[:ticks]


def _outcome(fn, *args):
    """A read's value, or its error as text."""
    try:
        return fn(*args)
    except Exception as exc:  # the engines raise on an X bit
        return f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------- gate
def _gate_twins(netlist, backend):
    n = 1 if backend == "interpreted" else 3
    kw = {} if n == 1 else {"n_patterns": n}
    return [GateSimulator(netlist, backend=backend, **kw) for _ in range(2)]


@pytest.mark.parametrize("backend", ALL_ENGINES)
@pytest.mark.parametrize("seed", range(12))
def test_gate_replay_equals_the_loop(seed, backend):
    """Random netlists with X inputs: every port sampled (the
    combinational outputs make the kernel settle after each edge), then
    the inputs alone (no settle), continuing on the same simulators."""
    nl = optimize(map_to_gates(_rand_module(seed)))
    widths = {name: len(nets) for name, nets in nl.inputs.items()}
    replayed, looped = _gate_twins(nl, backend)
    rng = random.Random(seed)
    for name, w in widths.items():
        if rng.random() < 0.5:  # unknown until the waveform writes it
            for sim in (replayed, looped):
                sim.set_input_logic(name, [LX] * w)
    ports = [*nl.inputs, *nl.outputs]
    for quiet in (False, True):
        for sampled in (ports, list(nl.inputs)):
            wave = _waveform(rng, widths, 25, quiet)
            want = replay_loop(looped, wave,
                               looped.port_sampler(sampled).read)
            assert replayed.replay(wave, sampled) == want, \
                (seed, sampled, quiet)
            assert replayed.cycles == looped.cycles
            for name in ports:
                assert replayed.get_logic(name) == \
                    looped.get_logic(name), name
                assert _outcome(replayed.get, name) == \
                    _outcome(looped.get, name), name


@pytest.mark.parametrize("backend", ALL_ENGINES)
def test_gate_replay_of_an_empty_waveform_changes_nothing(backend):
    nl = optimize(map_to_gates(_rand_module(3)))
    replayed, looped = _gate_twins(nl, backend)
    ports = [*nl.inputs, *nl.outputs]
    assert replayed.replay([], ports) == []
    assert replayed.replay([{}], ()) == [0]
    looped.step()
    assert replayed.cycles == looped.cycles == 1
    for name in ports:
        assert replayed.get_logic(name) == looped.get_logic(name)


@pytest.mark.parametrize("backend", ALL_ENGINES)
def test_gate_replay_raises_the_hosts_error_for_an_unknown_input(backend):
    nl = optimize(map_to_gates(_rand_module(1)))
    sim = GateSimulator(nl, backend=backend)
    with pytest.raises(Exception, match="no input named 'nope'"):
        sim.replay([{"nope": 1}], ())


# ----------------------------------------------------------------- RTL
def _rtl_twins(module, backend):
    return [RtlSimulator(module, backend=backend) for _ in range(2)]


def _check_rtl(module, backend, rng, ticks=30):
    widths = {name: module.net_width(name) for name in module.input_names()}
    replayed, looped = _rtl_twins(module, backend)
    ports = module.input_names() + module.output_names()
    for quiet in (False, True):
        for sampled in (ports, module.output_names()[:1]):
            wave = _waveform(rng, widths, ticks, quiet)
            want = replay_loop(looped, wave,
                               looped.port_sampler(sampled).read)
            assert replayed.replay(wave, sampled) == want, (sampled, quiet)
            assert replayed.cycles == looped.cycles
            for name in ports:
                assert replayed.get(name) == looped.get(name), name
            for mem in module.memories:
                assert replayed.peek_memory(mem.name) == \
                    looped.peek_memory(mem.name)


@pytest.mark.parametrize("backend", ALL_ENGINES)
@pytest.mark.parametrize("seed", range(12))
def test_rtl_replay_equals_the_loop(seed, backend):
    """Random modules; those with 65-bit inputs and 66-bit nodes run
    past 64 bits on compiled, and native refuses them."""
    module = _rand_module(seed)
    try:
        _check_rtl(module, backend, random.Random(seed))
    except RtlError as exc:
        assert backend == "native" and "64-bit" in str(exc)


@pytest.mark.parametrize("backend", ("interpreted", "compiled"))
def test_rtl_replay_past_64_bits(backend):
    _check_rtl(_wide_module(), backend, random.Random(7), ticks=40)


@pytest.mark.parametrize("backend", ALL_ENGINES)
def test_rtl_replay_of_an_empty_waveform(backend):
    module = _rand_module(1)  # no net past 64 bits
    replayed, _ = _rtl_twins(module, backend)
    assert replayed.replay([], module.output_names()) == []
    assert replayed.replay([{}, {}], ()) == [(), ()]
    assert replayed.cycles == 2


# ----------------------------------------------------------------- FSM
def _fsm_twins(fsm, backend):
    return [engine_class(backend, "fsm")(fsm) for _ in range(2)]


def _check_fsm(fsm, backend, rng, ticks=60):
    program = fsm.program
    widths = {p.name: p.width for p in program.ports.values()
              if p.direction == "in"}
    outputs = [p.name for p in program.ports.values()
               if p.direction == "out"]
    replayed, looped = _fsm_twins(fsm, backend)
    for quiet in (False, True):
        for sampled in (outputs, outputs[-1:]):
            wave = _waveform(rng, widths, ticks, quiet)
            want = replay_loop(looped, wave, lambda: tuple(
                looped.get_output(name) for name in sampled))
            assert replayed.replay(wave, sampled) == want, (sampled, quiet)
            assert replayed.cycles == looped.cycles
            assert replayed.state == looped.state
            for name in outputs:
                assert replayed.get_output(name) == \
                    looped.get_output(name)
            assert replayed.memories == looped.memories


@pytest.mark.parametrize("backend", ALL_ENGINES)
@pytest.mark.parametrize("seed", range(10))
def test_fsm_replay_equals_the_loop(seed, backend):
    fsm = Scheduler(_make_program(seed),
                    SchedulingConstraints(clock_ns=200.0)).run()
    _check_fsm(fsm, backend, random.Random(seed))


@pytest.mark.parametrize("host", (FsmInterpreter, CompiledFsm))
def test_fsm_replay_past_64_bits(host):
    fsm = _wide_fsm()
    _check_fsm(fsm, "compiled" if host is CompiledFsm else "interpreted",
               random.Random(3))


@pytest.mark.parametrize("backend", ALL_ENGINES)
def test_fsm_replay_of_an_empty_waveform_and_bad_ports(backend):
    fsm = Scheduler(_make_program(1),
                    SchedulingConstraints(clock_ns=200.0)).run()
    replayed, _ = _fsm_twins(fsm, backend)
    assert replayed.replay([], ("o0",)) == []
    assert replayed.cycles == 0
    with pytest.raises(KeyError):
        replayed.replay([{}], ("x",))  # an input, not an output port
    with pytest.raises(KeyError):
        replayed.replay([{"o0": 1}], ("o0",))  # not an input port


# ------------------------------------------------ between replay calls
def _calls_module():
    """Two things a step reads: memory word 0, written from ``din``
    while ``we`` is high and read into ``y`` and register ``q``; and
    input ``a``, registered into ``p`` and mixed into ``z``."""
    m = RtlModule("calls")
    we, din, a = m.input("we", 1), m.input("din", 4), m.input("a", 4)
    mem = m.memory("m", 2, 4)
    m.mem_write(mem, we, Const(1, 0), din)
    word = m.mem_read(mem, Const(1, 0))
    q, p = m.register("q_r", 4), m.register("p_r", 4)
    m.set_next(q, word)
    m.set_next(p, a)
    m.output("q", q)
    m.output("y", word)
    m.output("p", p)
    m.output("z", BitXor(a, word))
    return m


def _fsm():
    return Scheduler(_make_program(4),
                     SchedulingConstraints(clock_ns=200.0)).run()


def _level_twins(level, backend):
    """Twin hosts at *level*, where ``replay`` runs and the reference
    loop, its read of every output port, and a memory poke."""
    if level == "beh":
        fsm = _fsm()
        replayed, looped = _fsm_twins(fsm, backend)
        outputs = [p.name for p in fsm.program.ports.values()
                   if p.direction == "out"]
        return (replayed, looped, outputs,
                lambda: tuple(looped.get_output(name) for name in outputs),
                lambda sim, value: [sim.write_memory("rom", k, value)
                                    for k in range(8)])
    module = _calls_module()
    outputs = module.output_names()
    if level == "gate":
        replayed, looped = _gate_twins(optimize(map_to_gates(module)),
                                       backend)
        def poke(sim, value):  # every pattern's word
            for p in range(getattr(sim, "n_patterns", 1)):
                sim.memory_model("m", p).write(0, value)

        return (replayed, looped, outputs,
                looped.port_sampler(outputs).read, poke)
    replayed, looped = _rtl_twins(module, backend)
    return (replayed, looped, outputs, looped.port_sampler(outputs).read,
            lambda sim, value: sim.load_memory("m", [value, 0]))


def _between_calls(level, backend, calls):
    """*calls* -- ``(waveform, between)`` -- replayed on one host and
    looped on its twin, ``between(sim)`` applied to both after each
    waveform: the same samples, cycles, outputs and memories."""
    replayed, looped, outputs, read, poke = _level_twins(level, backend)
    for i, (wave, between) in enumerate(calls):
        assert replayed.replay(wave, outputs) == \
            replay_loop(looped, wave, read), i
        assert replayed.cycles == looped.cycles
        for sim in (replayed, looped):
            if between is not None:
                between(sim, poke)
    assert _src_state(replayed) == _src_state(looped)


LEVELS = ("gate", "rtl", "beh")
#: per level, the inputs that start the FSM's program
GO = {"go": 1, "x": 5, "y": 9}


@pytest.mark.parametrize("backend", ALL_ENGINES)
@pytest.mark.parametrize("level", LEVELS)
def test_replay_sees_a_memory_poke_between_calls(level, backend):
    """The poke lands between a call's ticks; at RTL and gate level it
    restores the word the first call's step wrote, so the state equals
    the one that call stepped from, and only a step shows the poke."""
    if level == "beh":
        calls = [([GO, {}], lambda sim, poke: poke(sim, 0x5A)),
                 ([{}] * 40, None)]
    else:
        calls = [([{"we": 1, "din": 7}], lambda sim, poke: poke(sim, 0)),
                 ([{}, {}], None)]
    _between_calls(level, backend, calls)


def _settle(sim):
    """Bring *sim*'s computed values up to its inputs: a read settles a
    gate host, an RTL host settles on request, an FSM holds none."""
    if hasattr(sim, "netlist"):
        sim.get("z")
    elif hasattr(sim, "module"):
        sim.settle()


@pytest.mark.parametrize("backend", ALL_ENGINES)
@pytest.mark.parametrize("level", LEVELS)
def test_replay_sees_an_input_write_between_calls(level, backend):
    """First, a reset and the first call's writes again put the state
    back where that call stepped from; then one input moves between
    calls."""
    start = GO if level == "beh" else {"a": 3}
    change = ("x", 2) if level == "beh" else ("a", 5)

    def back_to_start(sim, poke):
        sim.set_input(*change)
        _settle(sim)
        sim.reset()
        for name, value in start.items():
            sim.set_input(name, value)

    _between_calls(level, backend, [
        ([start], back_to_start),
        ([{}], lambda sim, poke: sim.set_input(*change)),
        ([{}] * 40, None)])


@pytest.mark.parametrize("backend", ALL_ENGINES)
def test_gate_replay_holds_an_x_input_through_a_quiet_stretch(backend):
    """``a`` is X until the waveform writes it 0: the ones plane does
    not move, the unknowns plane does."""
    replayed, looped = _gate_twins(optimize(map_to_gates(_calls_module())),
                                   backend)
    for sim in (replayed, looped):
        sim.set_input_logic("a", [LX] * 4)
    ports = [*replayed.netlist.inputs, *replayed.netlist.outputs]
    wave = ([{}] * 4 + [{"we": 1, "din": 9}] + [{}] * 3 + [{"a": 0}]
            + [{}] * 4)
    assert replayed.replay(wave, ports) == \
        replay_loop(looped, wave, looped.port_sampler(ports).read)
    for name in ports:
        assert replayed.get_logic(name) == looped.get_logic(name), name


# ------------------------------------------- the SRC's DUTs, replayed
#: the SRC's clocked levels, by replay counter label
SRC_LEVELS = {"gate": Level.GATE_RTL, "rtl": Level.RTL_OPT,
              "beh": Level.BEH_OPT}


def _src_waveforms(seed, n):
    return [case_timing(SMALL_PARAMS, case, True).waveform
            for case in generate_cases(SMALL_PARAMS, seed, n, 6)]


def _src_state(sim):
    """Everything a later step of *sim* reads, through the surface
    every engine shares: a gate DUT's nets and memories, an RTL DUT's
    inputs, registers and memories, an FSM's environment, control state
    and memories."""
    if hasattr(sim, "netlist"):
        return (list(sim.values),
                {name: mem.peek() for name, mem in sim.memories.items()})
    if hasattr(sim, "module"):
        module = sim.module
        names = module.input_names() + [r.name for r in module.registers]
        return ([sim.get(name) for name in names],
                {mem.name: sim.peek_memory(mem.name)
                 for mem in module.memories})
    fsm = getattr(sim, "interp", sim)
    return dict(fsm.env), fsm.state, fsm.memories


def _replay_ticks(level):
    return {outcome: REGISTRY.counter("repro_replay_ticks_total",
                                      level=level, outcome=outcome).value
            for outcome in ("stepped", "skipped")}


@pytest.mark.parametrize("backend", ("compiled", "native"))
@pytest.mark.parametrize("level", sorted(SRC_LEVELS))
def test_replay_counts_the_ticks_it_stepped(level, backend):
    """One tick steps, then each tick whose start state differs from the
    one before -- counted on a twin stepped tick by tick -- and the rest
    count as skipped."""
    builds = LevelBuilds(SMALL_PARAMS)
    spec = LevelSpec(SRC_LEVELS[level], backend)
    sim, twin = (make_dut(SMALL_PARAMS, spec, builds) for _ in range(2))
    total = {"stepped": 0, "skipped": 0}
    for wave in _src_waveforms(3, 2):
        starts = []
        for writes in wave:
            for name, value in writes.items():
                twin.set_input(name, value)
            starts.append(_src_state(twin))
            twin.step()
        moved = 1 + sum(a != b for a, b in zip(starts, starts[1:]))
        before = _replay_ticks(level)
        sim.replay(wave, OUT_PORTS)
        after = _replay_ticks(level)
        assert after["stepped"] - before["stepped"] == moved
        assert after["skipped"] - before["skipped"] == len(wave) - moved
        total["stepped"] += moved
        total["skipped"] += len(wave) - moved
    assert total["skipped"] > total["stepped"] > 2  # the SRC mostly idles


@pytest.mark.parametrize("backend", ALL_ENGINES)
@pytest.mark.parametrize("level", sorted(SRC_LEVELS))
def test_restarted_dut_replays_as_a_new_one(level, backend):
    """The run's DUT of a level, restarted after one waveform, replays
    the next to the samples and state a new DUT reaches."""
    builds = LevelBuilds(SMALL_PARAMS)
    spec = LevelSpec(SRC_LEVELS[level], backend)
    first, second = _src_waveforms(5, 2)
    dut = builds.dut(spec)
    dut.replay(first, OUT_PORTS)
    assert builds.dut(spec) is dut
    fresh = make_dut(SMALL_PARAMS, spec, builds)
    assert _src_state(dut) == _src_state(fresh)
    assert dut.replay(second, OUT_PORTS) == fresh.replay(second, OUT_PORTS)
    assert _src_state(dut) == _src_state(fresh)


# ------------------------------------------------- the gate host's reads
@pytest.mark.parametrize("backend", ("compiled", "native"))
def test_combinational_read_after_set_input_is_settled(backend):
    m = RtlModule("comb")
    a, b = m.input("a", 4), m.input("b", 4)
    m.output("y", a & b)
    nl = optimize(map_to_gates(m))
    sim = GateSimulator(nl, backend=backend)
    ref = GateSimulator(nl)
    for va, vb in ((0xF, 0x5), (0x3, 0xE), (0x9, 0x9)):
        for s in (sim, ref):
            s.set_input("a", va)
            s.set_input("b", vb)
        assert sim.get("y") == ref.get("y") == va & vb
        assert sim.port_sampler(["y"]).read() == \
            ref.port_sampler(["y"]).read()


@pytest.mark.parametrize("backend", ("compiled", "native"))
def test_state_only_read_after_step_calls_no_kernel(backend):
    module = build_module(SMALL_PARAMS, Level.GATE_RTL)
    nl = synthesize(module)
    sim = GateSimulator(nl, backend=backend)
    calls = []
    run = sim._run

    def counted(*args):
        calls.append(args)
        return run(*args)

    sim._run = counted
    sim.set_input("in_valid", 1)
    sim.step()
    assert len(calls) == 1
    read = sim.port_sampler(["out_valid", "out_l", "out_r"]).read
    read()
    sim.get("out_valid")
    sim.get_port_planes("out_l")
    sim.get_logic("in_valid")
    assert len(calls) == 1  # flop Qs and inputs: no settle


# ------------------------------------------------- verify on an X output
def _x_on(port):
    """SMALL Gate-RTL with bit 0 of *port*'s flop fed from a read port
    of a new memory whose address nothing drives: X from the first
    edge on."""
    nl = synthesize(build_module(SMALL_PARAMS, Level.GATE_RTL))
    macro = nl.add_memory("xsrc", 2, 1)
    data = nl.add_mem_read_port(macro, [nl.new_net("xaddr")])
    flop, pin = nl.outputs[port][0].driver
    assert pin == "Q" and flop in nl.flops()
    flop.pins["D"] = data[0]
    return nl


#: the text the per-cycle driver's first ``get`` raised, per engine
X_TEXT = {"interpreted": "GateSimError: port {!r} bit 0 is X",
          "compiled": "GateSimError: port {!r} bit 0 is X in pattern 0",
          "native": "GateSimError: port {!r} bit 0 is X in pattern 0"}


@pytest.mark.parametrize("backend", ALL_ENGINES)
@pytest.mark.parametrize("port", ("out_valid", "out_l"))
def test_verify_reports_the_drivers_error_on_an_x_output(port, backend):
    builds = LevelBuilds(SMALL_PARAMS,
                         netlist_overrides={Level.GATE_RTL: _x_on(port)})
    case = generate_cases(SMALL_PARAMS, 0, 1, 4)[0]
    coverage = ToggleCoverage()
    run = run_case_level(SMALL_PARAMS, LevelSpec(Level.GATE_RTL, backend),
                         case, builds, coverage=coverage)
    assert run.error == X_TEXT[backend].format(port)
    assert run.outputs == [] and run.ticks is None
    assert coverage.counts == {}  # a run that raised adds no coverage
