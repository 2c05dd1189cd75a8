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
"""

from __future__ import annotations

import importlib
import operator
from dataclasses import dataclass
from typing import Any, Callable, Dict, NamedTuple, Optional, Sequence, Tuple

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
        # bigint pattern planes, one environment per FSM pattern
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
