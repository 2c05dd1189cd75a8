"""Fault models and non-destructive netlist overlays.

Four fault models, the SBFI classics:

* ``stuck0`` / ``stuck1`` -- a permanent stuck-at on a net;
* ``pulse``  -- a timed transient forcing a value on a net for a
  bounded window of clock cycles;
* ``seu``    -- a single-event upset: one bit-flip, either in a flop
  (gate level), an RTL register bit, or a memory cell.

Gate-level net and flop faults are applied **structurally**, by cloning
the baseline netlist and inserting a *saboteur* cell in front of every
load of the target net:

* forcing faults get ``MUX2(S=fi<k>, A=<net>, B=const)`` -- transparent
  while the per-fault control input ``fi<k>`` is 0, forcing while 1;
* flip faults (flop SEU) get ``XOR2(A=<net>, B=fi<k>)`` -- a one-cycle
  pulse on the control flips the sampled state, which then persists
  through the hold path exactly like a real upset.

The baseline netlist is never touched, and every overlay carries a
name derived from its fault set, so compiled-backend artifacts key
distinctly in the :class:`~repro.compile_cache.CompileCache` while
timed variants of the *same* structure still share one compilation.
Because each saboteur is gated by its own control input and is
transparent while it is 0, a whole faultload rides in one overlay: a
campaign builds it once (:class:`repro.fi.campaign.SaboteurProgram`)
and every batch asserts its own faults' controls per pattern on it --
classic parallel-fault simulation, one program per campaign.

Memory-cell SEUs need no structure: they poke the (pattern-private)
behavioural memory model at the injection cycle.  RTL register SEUs
poke the simulator's environment and re-settle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from ..synth.netlist import Net, Netlist

#: fault-model names accepted by the faultload generator and the CLI
FAULT_MODELS = ("stuck0", "stuck1", "pulse", "seu")

#: models applied by inserting a saboteur cell (vs. state pokes)
STRUCTURAL_MODELS = ("stuck0", "stuck1", "pulse", "seu")


class FaultError(ValueError):
    """Raised for malformed faults or inapplicable targets."""


@dataclass(frozen=True)
class Fault:
    """One concrete fault, fully replayable from its fields.

    ``index`` is the fault's position in the campaign faultload -- with
    the campaign seed it is the complete replay record.
    """

    index: int
    model: str           # one of FAULT_MODELS
    level: str           # 'gate' | 'rtl' | 'beh'
    target_kind: str     # 'net' | 'flop' | 'reg' | 'mem'
    target: str          # net name / flop cell name / register / macro
    uid: int = -1        # gate net uid ('net' and 'flop' targets)
    bit: int = 0         # register / memory data bit
    address: int = 0     # memory word address
    value: int = 0       # forced value (stuck/pulse)
    cycle: int = -1      # first injection cycle (-1: permanent)
    duration: int = 1    # pulse window length in cycles

    @property
    def permanent(self) -> bool:
        return self.cycle < 0

    @property
    def structural(self) -> bool:
        """True when applied via a saboteur in a netlist overlay."""
        return self.level == "gate" and self.target_kind in ("net", "flop")

    @property
    def flip(self) -> bool:
        """True for XOR (flip) saboteurs, False for MUX (force) ones."""
        return self.model == "seu"

    def active(self, cycle: int) -> bool:
        """Is the saboteur control asserted on *cycle*?"""
        if self.permanent:
            return True
        return self.cycle <= cycle < self.cycle + self.duration

    def structure_key(self) -> str:
        """Overlay-naming key: identical structure => identical key.

        Deliberately excludes timing (``cycle`` / ``duration``): two
        pulses on the same net differ only in control waveforms, so
        their overlays share one compiled artifact.
        """
        if self.flip:
            return f"xor:{self.uid}"
        return f"mux{self.value}:{self.uid}"

    def format(self) -> str:
        where = f"{self.target_kind} {self.target}"
        if self.target_kind == "mem":
            where += f"[{self.address}].{self.bit}"
        elif self.target_kind == "reg":
            where += f".{self.bit}"
        when = "permanent" if self.permanent else (
            f"cycle {self.cycle}" if self.duration == 1
            else f"cycles {self.cycle}..{self.cycle + self.duration - 1}")
        return f"#{self.index} {self.model} @ {where} ({when})"


@dataclass
class Overlay:
    """A saboteur-instrumented clone of the baseline netlist."""

    netlist: Netlist
    #: structural faults in insertion order; fault -> control input name
    controls: Dict[int, str] = field(default_factory=dict)
    faults: List[Fault] = field(default_factory=list)


def _net_by_uid(netlist: Netlist, uid: int) -> Net:
    for net in netlist.nets:
        if net.uid == uid:
            return net
    raise FaultError(f"no net with uid {uid} in {netlist.name!r}")


def _rewire_loads(netlist: Netlist, old: Net, new: Net,
                  skip_cell=None) -> None:
    """Point every load of *old* (cell pins, memory-port pins, output
    ports) at *new*; *skip_cell*'s own pins are left alone."""
    for cell in netlist.cells:
        if cell is skip_cell:
            continue
        for pin, net in cell.pins.items():
            if net is old:
                cell.pins[pin] = new
    for macro in netlist.memories:
        for rp in macro.read_ports:
            rp.addr = [new if n is old else n for n in rp.addr]
            if rp.enable is old:
                rp.enable = new
        for wp in macro.write_ports:
            if wp.enable is old:
                wp.enable = new
            wp.addr = [new if n is old else n for n in wp.addr]
            wp.data = [new if n is old else n for n in wp.data]
    for name, nets in netlist.outputs.items():
        netlist.outputs[name] = [new if n is old else n for n in nets]


def control_name(fault: Fault) -> str:
    """The overlay control-input name of a structural fault."""
    return f"fi{fault.index}"


def insert_saboteur(netlist: Netlist, fault: Fault) -> str:
    """Insert *fault*'s saboteur into *netlist* (in place).

    Adds a 1-bit control input named after the fault and rewires every
    load of the target net through the saboteur cell.  Returns the
    control input's name.  Multiple saboteurs compose, even on the same
    net: each inserts in front of the previous loads, and at most one
    control is asserted per simulated pattern.
    """
    if not fault.structural:
        raise FaultError(f"fault {fault.format()} is not structural")
    target = _net_by_uid(netlist, fault.uid)
    ctrl_name = control_name(fault)
    ctrl = netlist.add_input(ctrl_name, 1)[0]
    if fault.flip:
        cell = netlist.add_cell("XOR2", {"A": target, "B": ctrl})
    else:
        forced = netlist.const1 if fault.value else netlist.const0
        cell = netlist.add_cell(
            "MUX2", {"S": ctrl, "A": target, "B": forced})
    _rewire_loads(netlist, target, cell.outputs["Y"], skip_cell=cell)
    return ctrl_name


def build_overlay(baseline: Netlist, faults: Sequence[Fault]) -> Overlay:
    """Clone *baseline* and insert saboteurs for the structural faults.

    Non-structural faults (memory SEUs) ride along without saboteurs --
    they are applied as state pokes at run time.  The clone's name
    encodes the set of structure keys, so distinct fault sets key
    distinctly in the compile cache while retimed variants share.
    """
    structural = [f for f in faults if f.structural]
    suffix = "+".join(f.structure_key() for f in structural) or "baseline"
    overlay = Overlay(baseline.clone(f"{baseline.name}@{suffix}"))
    overlay.faults = list(faults)
    for fault in structural:
        overlay.controls[fault.index] = insert_saboteur(
            overlay.netlist, fault)
    overlay.netlist.validate()
    return overlay
