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
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

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


#: where a net is read: ``holder[key]`` is the net -- a cell's pin map
#: and pin, a port's net list and bit, or a memory port's ``vars()``
#: and ``"enable"``
_Slot = Tuple[object, object]


def _load_index(netlist: Netlist, uids: Iterable[int]
                ) -> Dict[int, List[_Slot]]:
    """Every load of the nets *uids*: cell pins, memory-port pins and
    output-port bits, one walk over the netlist."""
    loads: Dict[int, List[_Slot]] = {uid: [] for uid in uids}

    def note(holder, key, net: Optional[Net]) -> None:
        if net is not None and net.uid in loads:
            loads[net.uid].append((holder, key))

    for cell in netlist.cells:
        for pin, net in cell.pins.items():
            note(cell.pins, pin, net)
    for macro in netlist.memories:
        for rp in macro.read_ports:
            for i, net in enumerate(rp.addr):
                note(rp.addr, i, net)
            note(vars(rp), "enable", rp.enable)
        for wp in macro.write_ports:
            note(vars(wp), "enable", wp.enable)
            for nets in (wp.addr, wp.data):
                for i, net in enumerate(nets):
                    note(nets, i, net)
    for nets in netlist.outputs.values():
        for i, net in enumerate(nets):
            note(nets, i, net)
    return loads


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
    return _insert(netlist, fault, {n.uid: n for n in netlist.nets},
                   _load_index(netlist, [fault.uid]))


def _insert(netlist: Netlist, fault: Fault, nets: Dict[int, Net],
            loads: Dict[int, List[_Slot]]) -> str:
    """:func:`insert_saboteur` over a uid->net map and the
    :func:`_load_index` of the target nets, which it keeps current."""
    target = nets.get(fault.uid)
    if target is None:
        raise FaultError(f"no net with uid {fault.uid} in {netlist.name!r}")
    ctrl_name = control_name(fault)
    ctrl = netlist.add_input(ctrl_name, 1)[0]
    if fault.flip:
        cell = netlist.add_cell("XOR2", {"A": target, "B": ctrl})
    else:
        forced = netlist.const1 if fault.value else netlist.const0
        cell = netlist.add_cell(
            "MUX2", {"S": ctrl, "A": target, "B": forced})
    out = cell.outputs["Y"]
    slots = loads[target.uid]
    for holder, key in slots:
        holder[key] = out
    # the saboteur's own pins are the target's loads from now on (a
    # later saboteur on the net inserts in front of this one)
    slots.clear()
    for pin, net in cell.pins.items():
        if net.uid in loads:
            loads[net.uid].append((cell.pins, pin))
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
    netlist = overlay.netlist
    nets = {net.uid: net for net in netlist.nets}
    loads = _load_index(netlist, {f.uid for f in structural})
    for fault in structural:
        overlay.controls[fault.index] = _insert(netlist, fault, nets, loads)
    netlist.validate()
    return overlay
