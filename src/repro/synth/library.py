"""Generic 0.25 um-style standard-cell library.

Areas are in *gate equivalents* (NAND2 = 1.0), the unit `report_area`
aggregates; delays are worst-case pin-to-pin in nanoseconds, loosely
modelled on a 0.25 um CMOS process.  Absolute values only matter
relatively -- the paper's Figure 10 normalises all areas to the VHDL
reference design.

Each combinational cell carries an evaluation function over 4-valued
logic (for the gate-level simulator) and over plain ints (for mapping-
time constant folding).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Sequence, Tuple

from ..datatypes import logic as L


@dataclass(frozen=True)
class Cell:
    """One library cell."""

    name: str
    inputs: Tuple[str, ...]
    outputs: Tuple[str, ...]
    area: float
    delay_ns: float
    sequential: bool = False

    @property
    def n_inputs(self) -> int:
        return len(self.inputs)


def _and2(a, b):
    return L.logic_and(a, b)


def _or2(a, b):
    return L.logic_or(a, b)


def _xor2(a, b):
    return L.logic_xor(a, b)


def _inv(a):
    return L.logic_not(a)


def _nand2(a, b):
    return L.logic_not(L.logic_and(a, b))


def _nor2(a, b):
    return L.logic_not(L.logic_or(a, b))


def _xnor2(a, b):
    return L.logic_not(L.logic_xor(a, b))


def _buf(a):
    return a


def _mux2(s, a, b):
    """Output pin Y = b when s else a."""
    return L.logic_mux(s, a, b)


def _fa_sum(a, b, cin):
    return L.logic_xor(L.logic_xor(a, b), cin)


def _fa_carry(a, b, cin):
    return L.logic_or(
        L.logic_and(a, b),
        L.logic_or(L.logic_and(a, cin), L.logic_and(b, cin)),
    )


def _ha_sum(a, b):
    return L.logic_xor(a, b)


def _ha_carry(a, b):
    return L.logic_and(a, b)


#: combinational evaluation functions, keyed by (cell name, output pin)
EVAL: Dict[Tuple[str, str], Callable] = {
    ("INV", "Y"): _inv,
    ("BUF", "Y"): _buf,
    ("NAND2", "Y"): _nand2,
    ("NOR2", "Y"): _nor2,
    ("AND2", "Y"): _and2,
    ("OR2", "Y"): _or2,
    ("XOR2", "Y"): _xor2,
    ("XNOR2", "Y"): _xnor2,
    ("MUX2", "Y"): _mux2,
    ("FA", "S"): _fa_sum,
    ("FA", "CO"): _fa_carry,
    ("HA", "S"): _ha_sum,
    ("HA", "CO"): _ha_carry,
}


# ----------------------------------------------------------------------
# word-level codegen templates for the parallel-pattern gate kernel
# ----------------------------------------------------------------------
#
# The gate kernel (:mod:`repro.gatesim.emit`) encodes a
# net as two integer bitplanes: ``a`` holds the bits that are known 1,
# ``x`` the bits that are unknown (X/Z); bit *p* of a plane belongs to
# stimulus pattern *p*.  The planes are disjoint (``a & x == 0``) and
# both lie inside the pattern mask ``M``.  Each template receives the
# output plane names, the input plane-name pairs (in ``Cell.inputs``
# order) and a unique temp-name prefix, and returns SSA ``name = expr``
# lines over ``& | ^ ~ ( )`` and ``M`` -- valid Python and, once
# declared, valid C -- computing the cell over all patterns at once.

def _cg_lines(fn):
    """Wrap an expression-pair template into a line-list template."""

    def template(out, ins, tmp):
        e1, ex = fn(*ins)
        return [f"{out[0]} = {e1}", f"{out[1]} = {ex}"]

    return template


def _cg_inv(a):
    return (f"M&~({a[0]}|{a[1]})", a[1])


def _cg_buf(a):
    return (a[0], a[1])


def _cg_and2(a, b):
    return (f"{a[0]}&{b[0]}",
            f"({a[1]}|{b[1]})&({a[0]}|{a[1]})&({b[0]}|{b[1]})")


def _cg_or2(a, b):
    return (f"{a[0]}|{b[0]}",
            f"({a[1]}|{b[1]})&~({a[0]}|{b[0]})")


def _cg_xor2(a, b):
    return (f"({a[0]}^{b[0]})&~({a[1]}|{b[1]})", f"{a[1]}|{b[1]}")


def _cg_nand2(a, b):
    return (f"M&(~({a[0]}|{a[1]})|~({b[0]}|{b[1]}))",
            f"({a[1]}|{b[1]})&({a[0]}|{a[1]})&({b[0]}|{b[1]})")


def _cg_nor2(a, b):
    return (f"M&~({a[0]}|{a[1]}|{b[0]}|{b[1]})",
            f"({a[1]}|{b[1]})&~({a[0]}|{b[0]})")


def _cg_xnor2(a, b):
    return (f"M&~({a[0]}^{b[0]})&~({a[1]}|{b[1]})", f"{a[1]}|{b[1]}")


def _cg_mux2(out, ins, tmp):
    """Y = B when S else A; X-select resolves only when A and B agree."""
    s, a, b = ins
    t0 = f"{tmp}s0"
    return [
        f"{t0} = ~({s[0]}|{s[1]})",
        f"{out[0]} = {t0}&{a[0]} | {s[0]}&{b[0]} | {s[1]}&{a[0]}&{b[0]}",
        f"{out[1]} = {t0}&{a[1]} | {s[0]}&{b[1]} | "
        f"{s[1]}&~({a[0]}&{b[0]} | M&~({a[0]}|{a[1]}|{b[0]}|{b[1]}))",
    ]


def _cg_ha_sum(a, b):
    return _cg_xor2(a, b)


def _cg_ha_carry(a, b):
    return _cg_and2(a, b)


def _cg_fa_sum(a, b, c):
    return (f"({a[0]}^{b[0]}^{c[0]})&~({a[1]}|{b[1]}|{c[1]})",
            f"{a[1]}|{b[1]}|{c[1]}")


def _cg_fa_carry(out, ins, tmp):
    """Majority carry: known when two inputs agree on a known value."""
    a, b, c = ins
    ta, tb, tc = f"{tmp}a0", f"{tmp}b0", f"{tmp}c0"
    return [
        f"{ta} = M&~({a[0]}|{a[1]})",
        f"{tb} = M&~({b[0]}|{b[1]})",
        f"{tc} = M&~({c[0]}|{c[1]})",
        f"{out[0]} = {a[0]}&{b[0]} | {a[0]}&{c[0]} | {b[0]}&{c[0]}",
        f"{out[1]} = M&~({out[0]} | {ta}&{tb} | {ta}&{tc} | {tb}&{tc})",
    ]


#: codegen templates, keyed by (cell name, output pin) like EVAL
CODEGEN: Dict[Tuple[str, str], Callable] = {
    ("INV", "Y"): _cg_lines(_cg_inv),
    ("BUF", "Y"): _cg_lines(_cg_buf),
    ("NAND2", "Y"): _cg_lines(_cg_nand2),
    ("NOR2", "Y"): _cg_lines(_cg_nor2),
    ("AND2", "Y"): _cg_lines(_cg_and2),
    ("OR2", "Y"): _cg_lines(_cg_or2),
    ("XOR2", "Y"): _cg_lines(_cg_xor2),
    ("XNOR2", "Y"): _cg_lines(_cg_xnor2),
    ("MUX2", "Y"): _cg_mux2,
    ("FA", "S"): _cg_lines(_cg_fa_sum),
    ("FA", "CO"): _cg_fa_carry,
    ("HA", "S"): _cg_lines(_cg_ha_sum),
    ("HA", "CO"): _cg_lines(_cg_ha_carry),
}


class Library:
    """A named collection of cells with lookup helpers."""

    def __init__(self, name: str, cells: Sequence[Cell]):
        self.name = name
        self.cells: Dict[str, Cell] = {c.name: c for c in cells}

    def __getitem__(self, name: str) -> Cell:
        return self.cells[name]

    def __contains__(self, name: str) -> bool:
        return name in self.cells

    def area_of(self, name: str) -> float:
        return self.cells[name].area

    def evaluate(self, cell_name: str, output: str, *values: int) -> int:
        """Evaluate a combinational cell output over 4-valued inputs."""
        return EVAL[(cell_name, output)](*values)


def generic_025um() -> Library:
    """The default library: generic 0.25 um CMOS standard cells."""
    cells = [
        Cell("INV", ("A",), ("Y",), area=0.7, delay_ns=0.08),
        Cell("BUF", ("A",), ("Y",), area=1.0, delay_ns=0.12),
        Cell("NAND2", ("A", "B"), ("Y",), area=1.0, delay_ns=0.10),
        Cell("NOR2", ("A", "B"), ("Y",), area=1.0, delay_ns=0.12),
        Cell("AND2", ("A", "B"), ("Y",), area=1.3, delay_ns=0.15),
        Cell("OR2", ("A", "B"), ("Y",), area=1.3, delay_ns=0.16),
        Cell("XOR2", ("A", "B"), ("Y",), area=2.2, delay_ns=0.20),
        Cell("XNOR2", ("A", "B"), ("Y",), area=2.2, delay_ns=0.20),
        # MUX2: Y = S ? B : A
        Cell("MUX2", ("S", "A", "B"), ("Y",), area=2.2, delay_ns=0.18),
        Cell("FA", ("A", "B", "CI"), ("S", "CO"), area=6.5, delay_ns=0.35),
        Cell("HA", ("A", "B"), ("S", "CO"), area=3.5, delay_ns=0.22),
        # D flip-flop with synchronous load; init handled by the simulator
        Cell("DFF", ("D",), ("Q",), area=5.5, delay_ns=0.45,
             sequential=True),
        # Scan flop: D/SI muxed by SE inside the cell
        Cell("SDFF", ("D", "SI", "SE"), ("Q",), area=7.0, delay_ns=0.50,
             sequential=True),
    ]
    return Library("generic_025um", cells)


#: process-wide default library instance
DEFAULT_LIBRARY = generic_025um()
