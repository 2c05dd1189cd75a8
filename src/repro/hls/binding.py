"""Register allocation/binding for scheduled behavioural designs.

Computes variable liveness over the FSM state graph and shares registers
between variables with disjoint lifetimes.  The binder is conservative in
the way commercial behavioural synthesis of the paper's era was: only
variables of the *same width* share a register (no packing of a narrow
value into a wide register), which is one reason hand-written RTL can
still beat it on register count (paper Section 5.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from ..rtl.expr import Ref, traverse
from .schedule import Fsm


@dataclass
class RegisterBinding:
    """Mapping from program variables to physical registers."""

    #: variable name -> register name
    assignment: Dict[str, str]
    #: register name -> width
    registers: Dict[str, int]

    @property
    def register_count(self) -> int:
        return len(self.registers)


def compute_liveness(fsm: Fsm) -> Tuple[List[Set[str]], List[Set[str]]]:
    """Per-state (live_in, live_out) sets of program variables."""
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

    succ = [[tr.target for tr in st.transitions] for st in fsm.states]
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
                live_out[i], live_in[i] = out, newin
                changed = True
    return live_in, live_out


def bind_registers(fsm: Fsm, share: bool = True) -> RegisterBinding:
    """Bind program variables to registers.

    ``share=False`` gives the one-register-per-variable binding of the
    unoptimised behavioural design; ``share=True`` shares same-width
    registers between lifetime-disjoint variables.
    """
    variables = fsm.program.variables
    if not share:
        return RegisterBinding(
            assignment={v: v for v in variables},
            registers=dict(variables),
        )

    live_in, live_out = compute_liveness(fsm)
    defs = [{op.var for op in st.reg_writes} for st in fsm.states]

    # Interference: simultaneously live somewhere, or defined together.
    interferes: Dict[str, Set[str]] = {v: set() for v in variables}

    def mark(group: Set[str]) -> None:
        group_list = sorted(group)
        for i, a in enumerate(group_list):
            for b in group_list[i + 1:]:
                interferes[a].add(b)
                interferes[b].add(a)

    for i in range(len(fsm.states)):
        mark(live_in[i])
        mark(live_out[i] | defs[i])

    assignment: Dict[str, str] = {}
    registers: Dict[str, int] = {}
    bins: Dict[int, List[Tuple[str, Set[str]]]] = {}  # width -> [(reg, members)]
    for var in sorted(variables, key=lambda v: (-variables[v], v)):
        width = variables[var]
        placed = False
        for reg, members in bins.get(width, []):
            if not (members & interferes[var]) and not any(
                m in interferes[var] for m in members
            ):
                assignment[var] = reg
                members.add(var)
                placed = True
                break
        if not placed:
            reg = f"r{len(registers)}_{width}"
            registers[reg] = width
            assignment[var] = reg
            bins.setdefault(width, []).append((reg, {var}))
    return RegisterBinding(assignment=assignment, registers=registers)
