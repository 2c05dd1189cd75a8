"""Values wider than 64 bits on the generated-code engines.

The compiled and native engines share one host per level; the native
print holds every value in one ``uint64_t``, the compiled one in a
Python int.  A design with a register, memory or variable past 64 bits
must run bit-exactly on compiled -- nothing in the shared host may
truncate to the native word (pokes, ROM images, port lanes) -- and be
refused by native with its width error before any C is built.
"""

import random

import pytest

from repro.hls import (Assign, FsmInterpreter, HlsProgram, MemReadStmt,
                       MemWriteStmt, PortWrite, Scheduler,
                       SchedulingConstraints, WaitCycle)
from repro.hls.compiled import CompiledFsm, CompiledFsmBatch
from repro.hls.native import NativeFsm
from repro.rtl import (Add, BitXor, Cmp, RtlError, RtlModule,
                       RtlSimulator, Slice, Sra)
from repro.rtl.native import NativeRtlSimulator

#: a bit no 64-bit word holds
HIGH = 70


def _wide_module():
    """A 72-bit accumulator, an 80-bit ROM and a 72-bit RAM."""
    m = RtlModule("wide")
    x = m.input("x", 70)
    en = m.input("en", 1)
    addr = m.input("addr", 2)
    acc = m.register("acc", 72, init=(1 << 71) | 5)
    m.set_next(acc, Add(acc, x.zext(72), 72))
    rom = m.memory("rom", 4, 80,
                   contents=[(1 << 79) | (3 << 64) | i for i in range(4)])
    ram = m.memory("ram", 4, 72)
    m.mem_write(ram, en, addr, acc)
    m.output("q", m.mem_read(ram, addr))
    m.output("r", m.mem_read(rom, addr))
    m.output("acc_q", acc)
    m.output("sra", Sra(acc, 3))
    m.output("slt", Cmp("slt", acc, x.sext(72)))
    return m


def test_wide_rtl_module_runs_on_compiled_and_native_refuses():
    module = _wide_module()
    ref, comp = RtlSimulator(module), RtlSimulator(module,
                                                   backend="compiled")
    rng = random.Random(1)
    widths = {n: module.net_width(n) for n in module.input_names()}
    for cycle in range(40):
        if cycle == 17:  # a fault-style poke above bit 63
            for sim in (ref, comp):
                sim.env["acc"] = sim.env["acc"] ^ (1 << HIGH)
                sim.settle()
        for name, width in widths.items():
            value = rng.randrange(1 << width)
            ref.set_input(name, value)
            comp.set_input(name, value)
        ref.step()
        comp.step()
        for out in module.output_names():
            assert comp.get(out) == ref.get(out), (out, cycle)
    assert any(v >> 64 for v in ref.peek_memory("ram"))
    for mem in ("rom", "ram"):
        assert comp.peek_memory(mem) == ref.peek_memory(mem), mem
    image = [(1 << HIGH) | i for i in range(4)]
    for sim in (ref, comp):
        sim.load_memory("ram", image)
        sim.settle()
    assert comp.peek_memory("ram") == image
    for out in module.output_names():
        assert comp.get(out) == ref.get(out), (out, "after a load")
    for sim in (ref, comp):
        sim.reset()
    for out in module.output_names():
        assert comp.get(out) == ref.get(out), (out, "after reset")
    with pytest.raises(RtlError, match="64-bit"):
        NativeRtlSimulator(module)


def _wide_fsm():
    """An 80-bit ROM word and a 72-bit variable fed from a 70-bit port."""
    prog = HlsProgram("wide")
    a = prog.input("a", 70)
    k = prog.input("k", 2)
    prog.output("y", 72)
    v = prog.var("v", 72)
    w = prog.var("w", 80)
    prog.memory("rom", 4, 80,
                contents=[(1 << 79) | (5 << 64) | i for i in range(4)])
    prog.memory("ram", 4, 72)
    prog.body = [MemReadStmt("w", "rom", k),
                 Assign("v", Add(v, a.zext(72), 72)),
                 MemWriteStmt("ram", k, v),
                 PortWrite("y", BitXor(v, Slice(w, 71, 0))),
                 WaitCycle()]
    return Scheduler(prog, SchedulingConstraints()).run()


def test_wide_fsm_variable_runs_on_compiled_and_native_refuses():
    fsm = _wide_fsm()
    n = 3
    refs = [FsmInterpreter(fsm) for _ in range(n)]
    comp = CompiledFsm(fsm)  # mirrors refs[0]
    batch = CompiledFsmBatch(fsm, n)
    rng = random.Random(2)
    for cycle in range(60):
        values = [rng.randrange(1 << 70) for _ in range(n)]
        k = rng.randrange(4)
        batch.set_input_patterns("a", values)
        batch.set_input("k", k)
        comp.set_input("a", values[0])
        comp.set_input("k", k)
        for ref, value in zip(refs, values):
            ref.set_input("a", value)
            ref.set_input("k", k)
        if cycle == 23:  # a fault-style poke above bit 63, pattern 0
            for env in (refs[0].env, comp.env, batch.envs[0]):
                env["v"] = env["v"] ^ (1 << HIGH)
        for sim in (*refs, comp, batch):
            sim.step()
        expect = [ref.get_output("y") for ref in refs]
        assert batch.get_output_patterns("y") == expect, cycle
        assert comp.get_output("y") == expect[0], cycle
        assert comp.state == refs[0].state
    assert any(v >> 64 for v in refs[0].memories["ram"])
    assert comp.memories == refs[0].memories
    assert batch.memories == [ref.memories for ref in refs]
    assert comp.env["v"] == refs[0].env["v"]
    with pytest.raises(RtlError, match="64-bit"):
        NativeFsm(fsm)
