"""Cycle-accurate interpretation of a scheduled FSM.

This is the *behavioural simulation* of the paper's flow: the scheduled
program executes one control step per clock cycle, evaluating only the
operations of the active state -- which is why behavioural simulation is
faster than RTL simulation (the RTL simulator evaluates the entire
elaborated datapath, muxes and all, every cycle).

Semantics are identical to the RTL generated by
:mod:`repro.hls.codegen`: register writes commit at the end of the
cycle, memory reads are asynchronous (out-of-range addresses read 0,
like the plain array model), pulse outputs auto-clear.  The equivalence
tests verify behavioural-vs-RTL bit-exactness.

An FSM's front end (:class:`~repro.hls.schedule.FrontEndBlock`) runs
from :meth:`FsmInterpreter.settle_front_end` and
:meth:`FsmInterpreter.commit_front_end` around the state body, as
``Expr.compile()`` closures like :class:`~repro.rtl.RtlSimulator`'s.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..datatypes.bits import mask
from ..engines import replay_loop
from . import memports
from .ir import HlsProgram
from .schedule import Fsm

#: memory-access monitor: (memory name, address, depth, kind)
MemMonitor = Callable[[str, int, int, str], None]


class FsmInterpreter:
    """Executes one :class:`Fsm` cycle by cycle."""

    def __init__(self, fsm: Fsm, mem_monitor: Optional[MemMonitor] = None):
        self.fsm = fsm
        self.program: HlsProgram = fsm.program
        self.mem_monitor = mem_monitor
        self.state = fsm.entry
        self.cycles = 0

        self.env: Dict[str, int] = fsm.initial_env()
        self._inputs = fsm.input_masks()

        self.memories: Dict[str, List[int]] = {
            mem.name: memports.init_storage(mem.depth, mem.width,
                                            mem.contents)
            for mem in self.program.memories.values()
        }

        self._out_ports = [p for p in self.program.ports.values()
                           if p.direction == "out"]
        self._compile_states()
        self._compile_front_end()

    # ------------------------------------------------------------------
    def _compile_states(self) -> None:
        self._compiled = []
        for st in self.fsm.states:
            reads = [
                (op.mem, op.addr.compile(), op.wire,
                 self.program.memories[op.mem].depth,
                 mask(self.program.memories[op.mem].width))
                for op in st.mem_reads
            ]
            regs = [
                (op.var, op.expr.compile(),
                 mask(self.program.variables[op.var]))
                for op in st.reg_writes
            ]
            ports = [
                (op.port, op.expr.compile(),
                 mask(self.program.ports[op.port].width))
                for op in st.port_writes
            ]
            writes = [
                (op.mem, op.addr.compile(), op.data.compile(),
                 self.program.memories[op.mem].depth,
                 mask(self.program.memories[op.mem].width))
                for op in st.mem_writes
            ]
            trans = [
                (tr.cond.compile() if tr.cond is not None else None,
                 tr.target)
                for tr in st.transitions
            ]
            self._compiled.append((reads, regs, ports, writes, trans))

    def _compile_front_end(self) -> None:
        fe = self.fsm.front_end
        self._fe = fe is not None
        if fe is None:
            return
        module = fe.module
        self._fe_comb = [(a.name, a.expr.compile())
                         for a in module.topo_assign_order()]
        self._fe_drives = list(fe.drives.items())
        self._fe_regs = [(r.name, r.next.compile(), mask(r.width))
                         for r in module.registers]
        self._fe_writes = [
            (mem.name, mem.depth, mask(mem.width), port.enable.compile(),
             port.addr.compile(), port.data.compile())
            for mem in module.memories for port in mem.write_ports]

    # ------------------------------------------------------------------
    def set_input(self, name: str, value: int) -> None:
        self.env[name] = value & self._inputs[name]

    def get_output(self, name: str) -> int:
        port = self.program.ports.get(name)
        if port is None or port.direction != "out":
            raise KeyError(f"{name!r} is not an output port")
        return self.env[name]

    def replay(self, waveform: Sequence[Dict[str, int]],
               ports: Sequence[str]) -> List[tuple]:
        """Run *waveform*, reading the output *ports* after every tick:
        the reference loop of :func:`repro.engines.replay_loop`."""
        get = self.get_output
        return replay_loop(self, waveform,
                           lambda: tuple(get(name) for name in ports))

    def write_memory(self, mem: str, address: int, value: int) -> None:
        """External write access (for memories owned by another block)."""
        spec = self.program.memories[mem]
        memports.write_mem(self.memories[mem], address, spec.depth,
                           value, mask(spec.width))

    def settle_front_end(self):
        """Settle the front end, drive the ports it drives, and return
        its register nexts and memory writes, judged pre-edge."""
        env = self.env
        for name, fn in self._fe_comb:
            env[name] = fn(env)
        for port, net in self._fe_drives:
            env[port] = env[net]
        regs = [(name, fn(env) & m) for name, fn, m in self._fe_regs]
        writes = []
        for mem, depth, m, en_fn, addr_fn, data_fn in self._fe_writes:
            if en_fn(env):
                addr = addr_fn(env)
                if 0 <= addr < depth:
                    writes.append((mem, addr, data_fn(env) & m))
        return regs, writes

    def commit_front_end(self, edge) -> None:
        """Store the front end's memory writes, commit its registers."""
        regs, writes = edge
        for mem, addr, value in writes:
            self.memories[mem][addr] = value
        self.env.update(regs)

    def step(self, cycles: int = 1) -> None:
        env = self.env
        for _ in range(cycles):
            edge = self.settle_front_end() if self._fe else None
            reads, regs, ports, writes, trans = self._compiled[self.state]
            for mem, addr_fn, wire, depth, _m in reads:
                addr = addr_fn(env)
                if self.mem_monitor is not None:
                    self.mem_monitor(mem, addr, depth, "read")
                env[wire] = memports.read_mem(self.memories[mem], addr,
                                              depth)
            # evaluate everything against the pre-edge environment
            reg_updates = [(var, fn(env) & m) for var, fn, m in regs]
            port_updates = [(port, fn(env) & m) for port, fn, m in ports]
            mem_updates = []
            for mem, addr_fn, data_fn, depth, m in writes:
                addr = addr_fn(env)
                if self.mem_monitor is not None:
                    self.mem_monitor(mem, addr, depth, "write")
                if 0 <= addr < depth:
                    mem_updates.append((mem, addr, data_fn(env) & m))
            next_state = trans[-1][1]
            for cond_fn, target in trans[:-1]:
                if cond_fn(env):
                    next_state = target
                    break
            # commit
            for var, value in reg_updates:
                env[var] = value
            written_ports = {p for p, _v in port_updates}
            for port, value in port_updates:
                env[port] = value
            for p in self._out_ports:
                if p.kind == "pulse" and p.name not in written_ports:
                    env[p.name] = 0
            for mem, addr, value in mem_updates:
                self.memories[mem][addr] = value
            if edge is not None:
                self.commit_front_end(edge)
            self.state = next_state
            self.cycles += 1

    def reset(self) -> None:
        self.state = self.fsm.entry
        self.env.update(self.fsm.initial_env())
        for mem in self.program.memories.values():
            memports.reset_storage(self.memories[mem.name], mem.depth,
                                   mem.width, mem.contents)
        self.cycles = 0
