"""The one code-generation walk of the behavioural level.

The compiled, vectorized and native behavioural engines generate
Python, numpy and C from the same scheduled FSM.  This module owns what
those sources share -- the environment's naming, each state's
evaluation and commit order, the 64-bit width check -- and reuses the
RTL level's :class:`~repro.rtl.emit.Emitter` for the expressions (FSM
micro-operations hold :mod:`repro.rtl.expr` trees).  An engine's
printer extends its RTL printer with the FSM statement forms, and the
engine lays the state bodies out in its own dispatch.

One state's cycle body, in order:

* memory reads: each address against the environment so far, with a
  fresh memo per read (a read's wire is visible to later addresses);
* the evaluation phase under one shared memo -- register and port
  values, memory write address/data, transition guards -- all judged
  against the same pre-edge environment;
* next-state resolution: the first true guard wins, the last
  transition is the default;
* commits: registers, ports, pulse-port auto-clears, memory writes.

What the walk asks of a printer beyond :mod:`repro.rtl.emit`'s:
``zero`` (the literal a pulse port clears to) and the statement forms
``commit`` (a value landing in an environment local), ``write_data``,
``mem_write`` (one end-of-cycle memory write), ``next_state`` and
``monitor`` (memory-access callbacks; empty where unsupported).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..datatypes.bits import mask
from ..rtl.emit import Emitter, check_widths
from .schedule import Fsm, FsmState

__all__ = ["fsm_names", "state_bodies"]


def fsm_names(fsm: Fsm) -> Dict[str, str]:
    """Environment entry -> local: variables, ports, then the
    scheduler-created memory-read wires (``v0``, ``v1``, ...)."""
    program = fsm.program
    name_of: Dict[str, str] = {}
    for name in [*program.variables, *program.ports,
                 *(op.wire for st in fsm.states for op in st.mem_reads)]:
        if name not in name_of:
            name_of[name] = f"v{len(name_of)}"
    return name_of


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
        lines += p.monitor(op.mem, addr, mem.depth, "read")
        lines.append(p.commit(name_of[op.wire],
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
        em.lines.append(p.let(f"wd{k}_{i}", p.write_data(data, m)))
        em.lines += p.monitor(op.mem, f"wa{k}_{i}", mem.depth, "write")
        writes.append((mem_of[op.mem], f"wa{k}_{i}", f"wd{k}_{i}",
                       mem.depth, m))
    guards = [(em.emit(tr.cond), tr.target) for tr in st.transitions[:-1]]
    lines += em.lines

    lines += p.next_state(guards, st.transitions[-1].target)

    for op, tmp in zip(st.reg_writes, reg_tmps):
        lines.append(p.commit(name_of[op.var], tmp))
    written = {op.port for op in st.port_writes}
    for op, tmp in zip(st.port_writes, port_tmps):
        lines.append(p.commit(name_of[op.port], tmp))
    for port in pulse_ports:
        if port not in written:
            lines.append(p.commit(name_of[port], p.zero))
    for write in writes:
        lines += p.mem_write(*write)
    return lines
