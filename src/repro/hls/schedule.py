"""Behavioural scheduling: program -> finite state machine.

A linear, resource- and timing-constrained scheduler in the style of the
SystemC Compiler's behavioural scheduling:

* operations chain combinationally within one control step while the
  estimated delay fits the clock budget;
* a shared multiplier (default allocation: one) forces multiply
  operations into distinct steps;
* each memory supports one read and one write per step;
* ``If``/``For``/``WaitUntil`` introduce control-step boundaries; loops
  get an implicit counter register and a back edge.

The result is an :class:`Fsm`: states with micro-operations (register
writes, memory reads/writes, port writes) and guarded transitions,
optionally carrying an RT-level :class:`FrontEndBlock` the FSM engines
run inside every cycle (:meth:`Fsm.with_front_end`).  A
subsequent liveness pass (``prune_dead_reg_writes``) removes register
writes of values never needed later -- the *cleanup* the paper's
optimised behavioural model received; the unoptimised model keeps every
write ("code proliferation", conservative cut-and-paste refinement).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..datatypes.bits import mask
from ..rtl.expr import Const, Expr, Ref, substitute, traverse, Mul, SMul
from ..rtl.ir import RtlModule
from .delay import estimate_delay
from .ir import (Assign, For, HlsError, HlsProgram, If, MemReadStmt,
                 MemWriteStmt, PortWrite, Stmt, WaitCycle, WaitUntil)


@dataclass
class RegWriteOp:
    var: str
    expr: Expr


@dataclass
class MemReadOp:
    mem: str
    addr: Expr
    wire: str
    width: int


@dataclass
class MemWriteOp:
    mem: str
    addr: Expr
    data: Expr


@dataclass
class PortWriteOp:
    port: str
    expr: Expr


@dataclass
class Transition:
    cond: Optional[Expr]  # None = default (must be last)
    target: int


@dataclass
class FsmState:
    index: int
    reg_writes: List[RegWriteOp] = field(default_factory=list)
    mem_reads: List[MemReadOp] = field(default_factory=list)
    mem_writes: List[MemWriteOp] = field(default_factory=list)
    port_writes: List[PortWriteOp] = field(default_factory=list)
    transitions: List[Transition] = field(default_factory=list)


class InputMasks(dict):
    """Input name -> width mask (:meth:`Fsm.input_masks`); looking up
    any other name raises :class:`KeyError`."""

    def __missing__(self, name: str) -> int:
        raise KeyError(f"{name!r} is not an input port")


@dataclass
class FrontEndBlock:
    """An RT-level block an FSM's engines run inside its every cycle.

    ``module``'s in-ports named after the program's output ports read
    those registered outputs; its other in-ports are pins the engines'
    ``set_input`` takes.  ``drives`` maps program input ports to the
    module nets driving them.  The module writes program memories
    declared ``external_write``, and nothing else of the program.

    Each cycle the engines settle the block, drive the ports, evaluate
    its register nexts and write ports, run the state body (whose reads
    see the memories before this cycle's writes), then store the writes
    and commit the registers.
    """

    module: RtlModule
    drives: Dict[str, str]


@dataclass
class Fsm:
    """The scheduled design: states plus the source program context."""

    name: str
    program: HlsProgram
    states: List[FsmState]
    entry: int = 0
    front_end: Optional[FrontEndBlock] = None

    @property
    def state_bits(self) -> int:
        return max(1, (len(self.states) - 1).bit_length())

    def all_exprs(self, state: FsmState) -> List[Expr]:
        exprs: List[Expr] = [op.expr for op in state.reg_writes]
        exprs += [op.addr for op in state.mem_reads]
        exprs += [op.addr for op in state.mem_writes]
        exprs += [op.data for op in state.mem_writes]
        exprs += [op.expr for op in state.port_writes]
        exprs += [t.cond for t in state.transitions if t.cond is not None]
        return exprs

    def with_front_end(self, module: RtlModule,
                       inputs: Dict[str, Ref]) -> "Fsm":
        """This FSM with *module* as its front end; *inputs* maps
        program input ports to the module nets driving them (as
        :func:`~repro.hls.codegen.generate_rtl` takes them)."""
        module.validate()
        program = self.program
        ports = program.ports
        outputs = {p.name for p in ports.values() if p.direction == "out"}
        taken = set(self.initial_env()) - outputs
        own = [r.name for r in module.registers] + \
            [a.name for a in module.assigns]
        for name in module.input_names():
            if name in taken or (name in outputs and
                                 ports[name].width != module.net_width(name)):
                raise HlsError(
                    f"front-end input {name!r} clashes with {self.name!r}")
        for name in own:
            if name in taken or name in outputs:
                raise HlsError(
                    f"front-end net {name!r} clashes with {self.name!r}")
        nets = set(module.input_names()) | set(own)
        for port_name, net in inputs.items():
            port = ports.get(port_name)
            if port is None or port.direction != "in" or \
                    net.name not in nets or \
                    port.width != module.net_width(net.name):
                raise HlsError(
                    f"front end drives {port_name!r}, not an input port "
                    f"of that width")
        for mem in module.memories:
            spec = program.memories.get(mem.name)
            if spec is None or not spec.external_write or \
                    (spec.depth, spec.width) != (mem.depth, mem.width):
                raise HlsError(
                    f"front end writes {mem.name!r}, not an "
                    f"external_write memory of that shape")
        block = FrontEndBlock(module, {port: net.name
                                       for port, net in inputs.items()})
        return replace(self, front_end=block)

    def initial_env(self) -> Dict[str, int]:
        """Every environment entry at power-on, in naming order:
        variables, ports, the memory-read wires, then the front end's
        pins, registers (at their init) and assigns."""
        program = self.program
        env = dict.fromkeys([*program.variables, *program.ports,
                             *(op.wire for st in self.states
                               for op in st.mem_reads)], 0)
        if self.front_end is not None:
            module = self.front_end.module
            for name in module.input_names():
                env.setdefault(name, 0)
            for reg in module.registers:
                env[reg.name] = reg.init & mask(reg.width)
            for assign in module.assigns:
                env[assign.name] = 0
        return env

    def input_masks(self) -> InputMasks:
        """What ``set_input`` takes, with each value's width mask: the
        program's input ports, and a front end's pins in place of the
        ports it drives."""
        masks = InputMasks((p.name, mask(p.width))
                           for p in self.program.ports.values()
                           if p.direction == "in")
        if self.front_end is not None:
            module = self.front_end.module
            for name in self.front_end.drives:
                del masks[name]
            masks.update((name, mask(module.net_width(name)))
                         for name in module.input_names()
                         if name not in self.program.ports)
        return masks


@dataclass
class SchedulingConstraints:
    """Knobs of the behavioural synthesis run."""

    clock_ns: float = 40.0
    #: register clk->q plus setup, subtracted from the chaining budget
    flop_overhead_ns: float = 1.2
    #: shared-multiplier allocation
    max_muls_per_state: int = 1
    #: keep every register write even when the value is dead afterwards
    #: (the conservative, unoptimised refinement style)
    materialize_all_regs: bool = False

    @property
    def chain_budget_ns(self) -> float:
        return self.clock_ns - self.flop_overhead_ns


_PENDING = -1


class Scheduler:
    """Schedules one :class:`HlsProgram` into an :class:`Fsm`."""

    def __init__(self, program: HlsProgram,
                 constraints: Optional[SchedulingConstraints] = None):
        program.validate()
        self.program = program
        self.constraints = constraints or SchedulingConstraints()
        self._states: List[FsmState] = []
        self._wire_count = 0
        self._open: Optional[FsmState] = None
        #: transitions awaiting their target (the next sequential state)
        self._loose: List[Transition] = []
        self._wire_env: Dict[str, Expr] = {}
        self._wire_delays: Dict[str, float] = {}
        self._mul_ids: Set[int] = set()
        self._mems_read: Set[str] = set()
        self._mems_written: Set[str] = set()
        self._ports_written: Set[str] = set()

    # ------------------------------------------------------------------
    # state management
    # ------------------------------------------------------------------
    def _begin(self) -> FsmState:
        state = FsmState(index=len(self._states))
        self._states.append(state)
        self._open = state
        self._wire_env = {}
        self._wire_delays = {}
        self._mul_ids = set()
        self._mems_read = set()
        self._mems_written = set()
        self._ports_written = set()
        return state

    def _close(self, transitions: Optional[List[Transition]] = None
               ) -> FsmState:
        """Materialise register writes and finish the open state.

        Without explicit *transitions*, the state gets a default
        transition whose target is resolved when the next sequential
        state begins (tracked in ``self._loose``).
        """
        state = self._open
        if state is None:
            raise HlsError("no open state to close")
        for var, expr in self._wire_env.items():
            state.reg_writes.append(RegWriteOp(var, expr))
        if transitions is None:
            default = Transition(None, _PENDING)
            state.transitions = [default]
            self._loose.append(default)
        else:
            state.transitions = transitions
        self._open = None
        return state

    def _link_loose(self, target: int) -> None:
        for tr in self._loose:
            tr.target = target
        self._loose = []

    def _ensure_open(self) -> FsmState:
        if self._open is None:
            state = self._begin()
            self._link_loose(state.index)
            return state
        return self._open

    def _translate(self, expr: Expr) -> Expr:
        return substitute(expr, self._wire_env)

    def _delay_of(self, expr: Expr) -> float:
        return estimate_delay(expr, self._wire_delays)

    def _count_new_muls(self, expr: Expr) -> int:
        count = 0
        for node in traverse(expr):
            if isinstance(node, (Mul, SMul)) and id(node) not in self._mul_ids:
                count += 1
        return count

    def _commit_muls(self, expr: Expr) -> None:
        for node in traverse(expr):
            if isinstance(node, (Mul, SMul)):
                self._mul_ids.add(id(node))

    def _fits(self, expr: Expr, extra_delay: float = 0.0) -> bool:
        c = self.constraints
        if len(self._mul_ids) + self._count_new_muls(expr) > \
                c.max_muls_per_state:
            return False
        return self._delay_of(expr) + extra_delay <= c.chain_budget_ns

    def _break_state(self) -> None:
        """Close the open state (default transition to the next one)."""
        self._close()
        self._ensure_open()

    # ------------------------------------------------------------------
    # statement scheduling
    # ------------------------------------------------------------------
    def run(self) -> Fsm:
        self._ensure_open()
        self._schedule_block(self.program.body)
        # loop the process body forever
        if self._open is not None:
            self._close()
        self._link_loose(0)
        fsm = Fsm(self.program.name, self.program, self._states)
        _validate_fsm(fsm)
        return fsm

    def _schedule_block(self, block: Sequence[Stmt]) -> None:
        for stmt in block:
            self._schedule_stmt(stmt)

    def _schedule_stmt(self, stmt: Stmt) -> None:
        if isinstance(stmt, Assign):
            self._ensure_open()
            value = self._translate(stmt.expr)
            if not self._fits(value):
                self._break_state()
                value = self._translate(stmt.expr)
                if not self._fits(value):
                    muls = self._count_new_muls(value)
                    if muls > self.constraints.max_muls_per_state:
                        raise HlsError(
                            f"assignment to {stmt.var!r} needs {muls} "
                            f"multipliers in one statement but only "
                            f"{self.constraints.max_muls_per_state} "
                            "allocated; split the expression"
                        )
                    raise HlsError(
                        f"operation chain for {stmt.var!r} does not fit "
                        f"one cycle ({self._delay_of(value):.1f} ns)"
                    )
            self._commit_muls(value)
            self._wire_env[stmt.var] = value
            return

        if isinstance(stmt, MemReadStmt):
            self._ensure_open()
            addr = self._translate(stmt.addr)
            mem = self.program.memories[stmt.mem]
            if stmt.mem in self._mems_read or not self._fits(addr, 2.5):
                self._break_state()
                addr = self._translate(stmt.addr)
                if not self._fits(addr, 2.5):
                    raise HlsError(
                        f"address chain for memory {stmt.mem!r} does not "
                        f"fit one cycle"
                    )
            self._commit_muls(addr)
            self._mems_read.add(stmt.mem)
            wire = f"%{stmt.mem}_{self._wire_count}"
            self._wire_count += 1
            self._open.mem_reads.append(
                MemReadOp(stmt.mem, addr, wire, mem.width)
            )
            self._wire_delays[wire] = self._delay_of(addr) + 2.5
            self._wire_env[stmt.var] = Ref(wire, mem.width)
            return

        if isinstance(stmt, MemWriteStmt):
            self._ensure_open()
            if stmt.mem in self._mems_written:
                self._break_state()
            addr = self._translate(stmt.addr)
            data = self._translate(stmt.data)
            if not (self._fits(addr) and self._fits(data)):
                self._break_state()
                addr = self._translate(stmt.addr)
                data = self._translate(stmt.data)
            self._commit_muls(addr)
            self._commit_muls(data)
            self._mems_written.add(stmt.mem)
            self._open.mem_writes.append(MemWriteOp(stmt.mem, addr, data))
            return

        if isinstance(stmt, PortWrite):
            self._ensure_open()
            if stmt.port in self._ports_written:
                self._break_state()
            value = self._translate(stmt.expr)
            if not self._fits(value):
                self._break_state()
                value = self._translate(stmt.expr)
            self._commit_muls(value)
            self._ports_written.add(stmt.port)
            self._open.port_writes.append(PortWriteOp(stmt.port, value))
            return

        if isinstance(stmt, WaitCycle):
            self._ensure_open()
            self._break_state()
            return

        if isinstance(stmt, WaitUntil):
            if self._open is not None:
                self._close()
            wait = self._begin()
            self._link_loose(wait.index)
            cond = self._translate(stmt.cond)  # empty env: register values
            exit_tr = Transition(cond, _PENDING)
            self._close([exit_tr, Transition(None, wait.index)])
            self._loose.append(exit_tr)
            return

        if isinstance(stmt, If):
            self._schedule_if(stmt)
            return

        if isinstance(stmt, For):
            self._schedule_for(stmt)
            return

        raise HlsError(f"cannot schedule {type(stmt).__name__}")

    def _schedule_if(self, stmt: If) -> None:
        self._ensure_open()
        cond = self._translate(stmt.cond)
        if not self._fits(cond):
            self._break_state()
            cond = self._translate(stmt.cond)
        self._commit_muls(cond)
        then_tr = Transition(cond, _PENDING)
        else_tr = Transition(None, _PENDING)
        self._close([then_tr, else_tr])

        # THEN branch: its final loose transitions flow to the join.
        if stmt.then:
            entry = self._begin()
            then_tr.target = entry.index
            self._schedule_block(stmt.then)
            if self._open is not None:
                self._close()
        else:
            self._loose.append(then_tr)
        join_feeds = self._loose
        self._loose = []

        # ELSE branch
        if stmt.orelse:
            entry = self._begin()
            else_tr.target = entry.index
            self._schedule_block(stmt.orelse)
            if self._open is not None:
                self._close()
        else:
            self._loose.append(else_tr)

        # Both branches' exits await the join -- created lazily by the
        # next sequential state.
        self._loose.extend(join_feeds)

    def _schedule_for(self, stmt: For) -> None:
        width = self.program.variables[stmt.var]
        if stmt.count > (1 << width):
            raise HlsError(
                f"loop count {stmt.count} exceeds counter width {width}"
            )
        self._ensure_open()
        # counter init in the state preceding the loop body
        self._wire_env[stmt.var] = Const(width, 0)
        self._close()
        body = self._begin()
        self._link_loose(body.index)
        self._schedule_block(stmt.body)
        # increment + branch in the last body state
        self._ensure_open()
        inc = self._translate(
            (Ref(stmt.var, width) + Const(width, 1)).slice(width - 1, 0)
        )
        self._wire_env[stmt.var] = inc
        done = inc.eq(Const(width, stmt.count % (1 << width)))
        exit_tr = Transition(done, _PENDING)
        self._close([exit_tr, Transition(None, body.index)])
        self._loose.append(exit_tr)


def _validate_fsm(fsm: Fsm) -> None:
    n = len(fsm.states)
    for state in fsm.states:
        if not state.transitions:
            raise HlsError(f"state {state.index} has no transitions")
        if state.transitions[-1].cond is not None:
            raise HlsError(f"state {state.index} lacks a default transition")
        for tr in state.transitions:
            if not 0 <= tr.target < n:
                raise HlsError(
                    f"state {state.index} -> invalid target {tr.target}"
                )


# ----------------------------------------------------------------------
# liveness-based cleanup (the 'optimised behavioural' source cleanup)
# ----------------------------------------------------------------------

def prune_dead_reg_writes(fsm: Fsm) -> int:
    """Delete register writes of values never read later; returns count.

    Memory reads / port writes are side effects and always survive -- in
    particular, the golden-model bug's discarded prefetch *read* remains
    even though the register write of its data is pruned.
    """
    var_names = set(fsm.program.variables)
    uses: List[Set[str]] = []
    defs: List[Set[str]] = []
    for state in fsm.states:
        used: Set[str] = set()
        for expr in fsm.all_exprs(state):
            for node in traverse(expr):
                if isinstance(node, Ref) and node.name in var_names:
                    used.add(node.name)
        uses.append(used)
        defs.append({op.var for op in state.reg_writes})

    succ: List[List[int]] = [
        [tr.target for tr in st.transitions] for st in fsm.states
    ]
    live_in: List[Set[str]] = [set() for _ in fsm.states]
    live_out: List[Set[str]] = [set() for _ in fsm.states]
    changed = True
    while changed:
        changed = False
        for i in range(len(fsm.states) - 1, -1, -1):
            out: Set[str] = set()
            for s in succ[i]:
                out |= live_in[s]
            newin = uses[i] | (out - defs[i])
            if out != live_out[i] or newin != live_in[i]:
                live_out[i] = out
                live_in[i] = newin
                changed = True

    pruned = 0
    for i, state in enumerate(fsm.states):
        keep = []
        for op in state.reg_writes:
            if op.var in live_out[i]:
                keep.append(op)
            else:
                pruned += 1
        state.reg_writes = keep
    return pruned
