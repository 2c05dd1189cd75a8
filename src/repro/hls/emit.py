"""The one code-generation walk of the behavioural level.

The compiled and native behavioural engines run one kernel per
scheduled FSM, ``nat_step_batch(ENVS, MEMS, STATES, cycles, NP)`` and
beside it ``nat_replay(ENVS, MEMS, STATES, S, W, NW, ticks, SRC, NB,
OUT)``, the RTL level's waveform replay over pattern 0 (see
:mod:`repro.rtl.emit`), which steps only where pattern 0's environment,
memory image and control state moved, printed as Python and as C
(:func:`emit_fsm`).  This module owns what
those sources share -- the environment's slots, the flat memory image,
each state's evaluation and commit order, the 64-bit width check --
and reuses the RTL level's :class:`~repro.rtl.emit.Emitter` for the
expressions (FSM micro-operations hold :mod:`repro.rtl.expr` trees).
An engine's printer extends its RTL printer with the FSM statement
forms and lays the state bodies out in its own dispatch; one host
(:class:`~repro.hls.native.NativeFsmBatch`) runs either print.

The kernel is pattern-major: pattern ``p``'s environment is
``ENVS[p * n_slots + slot]``, its memory image ``MEMS[p * mem_words +
base + addr]`` and its control state ``STATES[p]``.

One state's cycle body, in order:

* memory reads: each address against the environment so far, with a
  fresh memo per read (a read's wire is visible to later addresses);
* the evaluation phase under one shared memo -- register and port
  values, memory write address/data, transition guards -- all judged
  against the same pre-edge environment;
* next-state resolution: the first true guard wins, the last
  transition is the default;
* commits: registers, ports, pulse-port auto-clears, memory writes.

An FSM with a front end (:class:`~repro.hls.schedule.FrontEndBlock`)
wraps the state dispatch in :func:`front_end_cycle`'s two parts: the
front end's module, walked by :func:`repro.rtl.emit.walk_module` under
the FSM's own names, settles, drives the FSM's input ports and
evaluates its edge before the dispatch, and stores its memory writes
and commits its registers after it.

What the walk asks of a printer beyond :mod:`repro.rtl.emit`'s:
``zero`` (the literal a pulse port clears to), ``env_entry(slot)``
(how the kernel names an environment entry), the statement forms
``mem_write`` (one end-of-cycle memory write) and ``next_state``, and
``nat_step_batch`` (the kernel's source around the state bodies, then
the RTL printer's ``nat_replay`` over it).  A
value lands in an environment entry through ``assign``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..compile_cache import CompileCache
from ..datatypes.bits import mask
from ..rtl.emit import (Emitter, KernelProgram, check_widths,
                        memory_layout, walk_module)
from .schedule import Fsm, FsmState

__all__ = ["HLS_COMPILE_CACHE", "emit_fsm", "front_end_cycle",
           "state_bodies"]

#: the process-wide cache of loaded FSM kernels, one slot per backend
HLS_COMPILE_CACHE = CompileCache()


def emit_fsm(fsm: Fsm, printer) -> KernelProgram:
    """*fsm*'s kernel as *printer* prints it, not yet loaded: advance
    NP patterns *cycles* cycles each, in place.  The slots follow
    :meth:`~repro.hls.schedule.Fsm.initial_env`."""
    name_index = {name: i for i, name in enumerate(fsm.initial_env())}
    name_of = {name: printer.env_entry(i) for name, i in name_index.items()}
    mem_of, layout = memory_layout(fsm.program.memories.values())
    mem_words = sum(depth for _, _, depth, _ in layout)
    bodies = state_bodies(printer, fsm, name_of, mem_of)
    before, after = front_end_cycle(printer, fsm, name_of, mem_of)
    source = printer.nat_step_batch(list(name_of.values()), mem_words,
                                    before, bodies, after)
    return KernelProgram(source, name_index, len(name_index), layout,
                         mem_words, len(name_index) + mem_words + 1)


def front_end_cycle(printer, fsm: Fsm, name_of: Dict[str, str],
                    mem_of: Dict[str, object]
                    ) -> Tuple[List[str], List[str]]:
    """The statements before and after the state dispatch that run
    *fsm*'s front end (both empty without one)."""
    fe = fsm.front_end
    if fe is None:
        return [], []
    walk = walk_module(fe.module, printer, mem_of, name_of, split=True)
    settled = len(walk.settle)
    drive = [printer.assign(name_of[port], name_of[net])
             for port, net in fe.drives.items()]
    return (walk.cycle[:settled] + drive + walk.cycle[settled:walk.edge],
            walk.cycle[walk.edge:])


def state_bodies(printer, fsm: Fsm, name_of: Dict[str, str],
                 mem_of: Dict[str, object]
                 ) -> List[Tuple[int, List[str]]]:
    """``(state index, cycle body)`` for every state, in state order."""
    if printer.word is not None:
        for st in fsm.states:
            check_widths(fsm.all_exprs(st), fsm.name, printer.word)
    program = fsm.program
    pulse_ports = [p.name for p in program.ports.values()
                   if p.direction == "out" and p.kind == "pulse"]
    return [(st.index, _state_body(printer, fsm, st, name_of, mem_of,
                                   pulse_ports))
            for st in fsm.states]


def _state_body(p, fsm: Fsm, st: FsmState, name_of: Dict[str, str],
                mem_of: Dict[str, object],
                pulse_ports: Sequence[str]) -> List[str]:
    program = fsm.program
    k = st.index
    lines: List[str] = []

    for i, op in enumerate(st.mem_reads):
        mem = program.memories[op.mem]
        em = Emitter(p, name_of, mem_of, f"r{k}_{i}_")
        addr = em.emit(op.addr)
        lines += em.lines
        lines.append(p.assign(name_of[op.wire],
                              p.mem_read(mem_of[op.mem], addr, mem.depth)))

    em = Emitter(p, name_of, mem_of, f"e{k}_")
    reg_tmps: List[str] = []
    for i, op in enumerate(st.reg_writes):
        value = em.emit(op.expr)
        m = p.lit(mask(program.variables[op.var]))
        em.lines.append(p.let(f"n{k}_{i}", f"({value}) & {m}"))
        reg_tmps.append(f"n{k}_{i}")
    port_tmps: List[str] = []
    for i, op in enumerate(st.port_writes):
        value = em.emit(op.expr)
        m = p.lit(mask(program.ports[op.port].width))
        em.lines.append(p.let(f"p{k}_{i}", f"({value}) & {m}"))
        port_tmps.append(f"p{k}_{i}")
    writes = []
    for i, op in enumerate(st.mem_writes):
        mem = program.memories[op.mem]
        addr = em.emit(op.addr)
        data = em.emit(op.data)
        m = p.lit(mask(mem.width))
        em.lines.append(p.let(f"wa{k}_{i}", addr))
        em.lines.append(p.let(f"wd{k}_{i}", f"({data}) & {m}"))
        writes.append((mem_of[op.mem], f"wa{k}_{i}", f"wd{k}_{i}",
                       mem.depth, m))
    guards = [(em.emit(tr.cond), tr.target) for tr in st.transitions[:-1]]
    lines += em.lines

    lines += p.next_state(guards, st.transitions[-1].target)

    for op, tmp in zip(st.reg_writes, reg_tmps):
        lines.append(p.assign(name_of[op.var], tmp))
    written = {op.port for op in st.port_writes}
    for op, tmp in zip(st.port_writes, port_tmps):
        lines.append(p.assign(name_of[op.port], tmp))
    for port in pulse_ports:
        if port not in written:
            lines.append(p.assign(name_of[port], p.zero))
    for write in writes:
        lines += p.mem_write(*write)
    return lines
