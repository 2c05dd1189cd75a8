"""The simulation engines, in one table.

Three abstraction levels of the flow have an engine choice: the gate
netlist, the RTL module and the scheduled behavioural FSM.  Each runs
on three engines -- ``interpreted`` (the reference), ``compiled``
(generated Python) and ``native`` (generated C built by the host
toolchain).

:data:`ENGINES` is the one place that says which class implements an
engine at a level, how many stimulus patterns one instance holds and
what the engine degrades to on a host without a C compiler.  Every
dispatch in the package asks it instead of comparing engine names, so
adding or removing an engine is an edit to this table.
:class:`PortSampler` is the one port-sampling surface every gate and
RTL engine offers (``port_sampler(names)``).

Every clocked host -- gate, RTL and FSM, on every engine -- offers
``replay(waveform, ports)``: apply each tick's writes as ``set_input``
would, clock once, and sample *ports*, for every tick of *waveform*
(one dict of input writes per tick).  It returns one sample per tick:
what ``port_sampler(ports).read()`` returns after that tick on a gate
or RTL host, the tuple of ``get_output`` values on an FSM host.  The
interpreted hosts run :func:`replay_loop`, the reference; the
generated-code hosts pass :func:`write_rows` to their kernel's
``nat_replay`` entry, which runs the whole waveform in one call.

A ``nat_replay`` entry steps only the ticks whose start state moved.
After a tick's write rows it compares the state its step reads (gate:
the state slots of both value planes and the memory image; RTL: the
in-ports, registers and memory image; FSM: pattern 0's environment,
memory image and control state) with the state the last stepped tick
started from, in one compare-and-save pass over a snapshot buffer the
host allocates once.  Where the two are equal it skips the step: the
step is a pure function of that state, so the state, and every value
the step computes from it, already hold what it would leave.  The first
tick of a call always steps, since a host may poke memory or leave
values unsettled between calls.  Every tick is still sampled and
counted in ``cycles``; the entry returns the number of ticks it
stepped, and the host adds one call's stepped and skipped ticks to
``repro_replay_ticks_total{level,outcome}`` (:func:`count_replay`).

:func:`restart` puts a host back in the state a new one starts in, so
a run can replay many waveforms on one host.
"""

from __future__ import annotations

import importlib
import operator
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterable, List, Mapping,
                    NamedTuple, Optional, Sequence, Tuple)

from .native import resolve_backend


@dataclass(frozen=True)
class Engine:
    """One engine: its simulator class per level and its capabilities.

    Classes are ``"module:Class"`` paths, imported on first use, so
    importing the table loads no engine.
    """

    gate: str
    rtl: str
    fsm: str
    #: the multi-pattern FSM class; None when the engine has none
    fsm_batch: Optional[str]
    #: most stimulus patterns one simulator holds, per level ("gate",
    #: "rtl", "beh"): 1 means scalar only, None means no cap.  A gate or
    #: RTL batch is the level's class built with ``n_patterns``.
    max_patterns: Dict[str, Optional[int]]
    #: generates code, so its runs leave compile-cache statistics
    compiles: bool
    #: the engine that runs instead on a host without a C toolchain
    fallback: Optional[str] = None

    def batches(self, level: str) -> bool:
        """True when one simulator at *level* holds several patterns."""
        return self.max_patterns[level] != 1


ENGINES: Dict[str, Engine] = {
    "interpreted": Engine(
        gate="repro.gatesim.simulator:GateSimulator",
        rtl="repro.rtl.simulate:RtlSimulator",
        fsm="repro.hls.interpreter:FsmInterpreter",
        fsm_batch=None,
        max_patterns={"gate": 1, "rtl": 1, "beh": 1},
        compiles=False),
    "compiled": Engine(
        gate="repro.gatesim.compiled:CompiledGateSimulator",
        rtl="repro.rtl.compiled:CompiledRtlSimulator",
        fsm="repro.hls.compiled:CompiledFsm",
        fsm_batch="repro.hls.compiled:CompiledFsmBatch",
        # native's hosts over list buffers of Python ints: gate
        # patterns share one bigint plane
        max_patterns={"gate": None, "rtl": 1, "beh": None},
        compiles=True),
    "native": Engine(
        gate="repro.gatesim.native:NativeGateSimulator",
        rtl="repro.rtl.native:NativeRtlSimulator",
        fsm="repro.hls.native:NativeFsm",
        fsm_batch="repro.hls.native:NativeFsmBatch",
        # gate patterns share one uint64_t plane word; the gate host
        # (repro.gatesim.native) enforces the cap from this table
        max_patterns={"gate": 64, "rtl": 1, "beh": None},
        compiles=True, fallback="compiled"),
}

#: multi-engine selections of ``verify --backend``
GROUPS: Dict[str, Tuple[str, ...]] = {
    "both": ("interpreted", "compiled"),
    "all": tuple(ENGINES),
}


def lookup(name: str, error=ValueError) -> Engine:
    """The table entry for *name*; an unknown name raises *error*."""
    engine = ENGINES.get(name)
    if engine is None:
        raise error(f"unknown backend {name!r} "
                    f"(expected one of {tuple(ENGINES)})")
    return engine


def resolve(name: str, error=ValueError) -> str:
    """The engine that runs for *name* on this host.

    An engine that needs a C toolchain becomes its fallback when there
    is none; :func:`repro.native.resolve_backend` warns and counts.
    """
    lookup(name, error)
    return resolve_backend(name)


def engine_class(name: str, kind: str, error=ValueError):
    """The class implementing engine *name* (after fallback) for
    *kind*: ``"gate"``, ``"rtl"``, ``"fsm"`` or ``"fsm_batch"``."""
    resolved = resolve(name, error)
    path = getattr(ENGINES[resolved], kind)
    if path is None:
        raise error(f"the {resolved!r} engine has no {kind} simulator")
    module, _, attr = path.partition(":")
    return getattr(importlib.import_module(module), attr)


def expand(selection: str) -> Tuple[str, ...]:
    """The engines a ``verify --backend`` value names: one or a group."""
    if selection in GROUPS:
        return GROUPS[selection]
    if selection not in ENGINES:
        raise ValueError(f"unknown backend {selection!r} (expected one of "
                         f"{tuple(ENGINES) + tuple(GROUPS)})")
    return (selection,)


def batch_engines(level: Optional[str] = None) -> Tuple[str, ...]:
    """Engines holding several patterns at *level* (at any level when
    *level* is None): what FI and the corpus classify faults on."""
    return tuple(name for name, engine in ENGINES.items()
                 if any(engine.batches(lv) for lv in
                        (engine.max_patterns if level is None else (level,))))


class PortSampler(NamedTuple):
    """What ``port_sampler(names)`` of a gate or RTL engine returns.

    ``read()`` samples pattern 0 of the named ports in one call.  On a
    gate engine it is one int whose byte *k* holds the 4-valued code
    (``L0``/``L1``/``LX``/``LZ``) of port bit *k*, LSB first, ports in
    order; on an RTL engine it is the tuple of the port values.
    ``widths`` maps every port, in that order, to its width.
    """

    read: Callable[[], Any]
    widths: Dict[str, int]


def gather(keys: Sequence) -> Callable[[Any], tuple]:
    """``operator.itemgetter(*keys)``, returning a tuple for any number
    of keys: the per-cycle read of a port sampler."""
    if len(keys) == 1:
        key = keys[0]
        return lambda seq: (seq[key],)
    if not keys:
        return lambda seq: ()
    return operator.itemgetter(*keys)


#: one port's fields in a kernel's state: ``(slot, shift, mask)`` -- the
#: slot takes ``value >> shift & mask`` of a value written to the port
Fields = Sequence[Tuple[int, int, int]]


def replay_loop(sim, waveform: Sequence[Mapping[str, int]],
                read: Callable[[], Any]) -> List[Any]:
    """The reference ``replay``: per tick, one ``set_input`` per write,
    one ``step``, then ``read()``."""
    set_input, step = sim.set_input, sim.step
    samples = []
    for writes in waveform:
        for name, value in writes.items():
            set_input(name, value)
        step()
        samples.append(read())
    return samples


def write_rows(waveform: Sequence[Mapping[str, int]],
               fields: Mapping[str, Fields],
               set_input: Callable[[str, int], None]) -> List[int]:
    """*waveform*'s writes as a kernel's flat ``(tick, slot, value)``
    rows, in tick order, each only where a slot's value changes (the
    first write to a slot always counts: a slot never written keeps its
    state).  Values are masked per field, so negative values wrap as
    ``set_input`` wraps them.  A name *fields* lacks goes to
    *set_input*, which raises the host's error for it."""
    rows: List[int] = []
    last: Dict[int, int] = {}
    previous = None
    for tick, writes in enumerate(waveform):
        if writes is previous:  # the same writes again change nothing
            continue
        previous = writes
        for name, value in writes.items():
            port = fields.get(name)
            if port is None:
                set_input(name, value)
            for slot, shift, m in port:
                v = value >> shift & m
                if last.get(slot, -1) != v:
                    last[slot] = v
                    rows += (tick, slot, v)
    return rows


def count_replay(level: str, ticks: int, stepped: int) -> None:
    """Add one ``nat_replay`` call's *stepped* and skipped ticks, of
    *ticks*, to ``repro_replay_ticks_total`` at *level* (``"gate"``,
    ``"rtl"`` or ``"beh"``)."""
    from .obs.metrics import REGISTRY

    for outcome, n in (("stepped", stepped), ("skipped", ticks - stepped)):
        REGISTRY.counter(
            "repro_replay_ticks_total",
            help="waveform replay ticks a kernel stepped, or skipped "
                 "because their start state had not moved",
            level=level, outcome=outcome).inc(n)


def restart(sim, inputs: Iterable[str]) -> None:
    """Put *sim* back in the state a new host starts in: every input of
    *inputs* to 0, then ``reset()`` (flops or registers, control state
    and every memory to their initial contents)."""
    for name in inputs:
        sim.set_input(name, 0)
    sim.reset()
