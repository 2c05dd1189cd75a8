"""Per-layer self-time tracing for the benchmark's traced run.

The traced run wraps public functions and methods of the ``repro``
layers -- from the benchmark's own files, no ``src/`` file changes --
and records one span per call.  A layer's *self time* is its span's
duration minus the time its child spans cover, so the self times of
every layer plus the benchmark's own time (``other_s``) add up to the
wall time of the traced region.

Functions are patched wherever their name is bound: a function that
another module imported by name (``repro.fi.campaign.build_overlay``,
``repro.verify.runner.run_tlm``, ...) is replaced in that module too.
Methods are patched on their class.

Lazy work counts against whichever public call triggers it.  The
native and compiled gate engines settle the combinational cone lazily,
so a settle after ``step`` is charged to the next ``get*`` /
``get_port_planes`` call (readback), not to ``step``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple, Union

#: a layer is named statically or chosen per call from the arguments
LayerName = Union[str, Callable[[tuple, dict], str]]

#: Chrome trace events kept in memory; later calls are counted only
MAX_EVENTS = 50_000

#: every layer whose self time the traced run reports, in report order
LAYERS = (
    "native.cc", "native.lookup", "native.load",
    "gatesim.codegen", "gatesim.marshal", "gatesim.step",
    "gatesim.readback", "gatesim.interp",
    "hls.codegen", "hls.marshal", "hls.step", "hls.readback",
    "rtl.codegen", "rtl.marshal", "rtl.step", "rtl.readback",
    "kernel.tlm",
    "src_design.driver", "src_design.frontend",
    "verify.harness", "verify.stimulus", "verify.golden",
    "verify.dut_build", "verify.coverage",
    "fi.campaign", "fi.faultload", "fi.overlay", "fi.batch",
    "fi.probe_compiled", "fi.probe_interp",
    "synth.synthesize",
)


def _shared_object_layer() -> Callable[[tuple, dict], str]:
    """``build_shared_object`` is ``native.cc`` when it compiled (the
    disk-cache miss counter moved during the call), else a lookup."""
    from repro.obs.metrics import REGISTRY

    misses = REGISTRY.counter("repro_native_disk_cache_misses_total")
    seen = [misses.value]

    def layer(args: tuple, kwargs: dict) -> str:
        now = misses.value
        built = now != seen[0]
        seen[0] = now
        return "native.cc" if built else "native.lookup"

    return layer


def _gate_batch_layer(args: tuple, kwargs: dict) -> str:
    """The campaign's main batches run on the configured engine; the
    cross-engine probe re-runs leading faults with ``backend="compiled"``."""
    backend = kwargs.get("backend", args[4] if len(args) > 4 else "compiled")
    return "fi.probe_compiled" if backend == "compiled" else "fi.batch"


def _gate_batch_faults(args: tuple, kwargs: dict) -> int:
    return len(kwargs.get("faults", args[2] if len(args) > 2 else ()))


def targets() -> List[Tuple[str, str, LayerName, Optional[Callable]]]:
    """``(module, attribute, layer, items)`` rows of the wrap table.

    *attribute* is ``"function"`` or ``"Class.method"``; *items*
    optionally counts work items per call (faults per batch).
    """
    marshal_gate = ("set_input", "set_input_logic", "set_input_patterns",
                    "privatize_memory", "memory_model")
    read_gate = ("get", "get_logic", "get_patterns", "get_port_planes",
                 "get_logic_pattern")
    rows: List[Tuple[str, str, LayerName, Optional[Callable]]] = [
        ("repro.native", "build_shared_object", _shared_object_layer(),
         None),
        ("repro.native", "NativeModule.__init__", "native.load", None),
        ("repro.gatesim.native", "compile_netlist_native",
         "gatesim.codegen", None),
        ("repro.gatesim.compiled", "compile_netlist", "gatesim.codegen",
         None),
        ("repro.gatesim.native", "NativeGateSimulator.step",
         "gatesim.step", None),
        ("repro.hls.native", "compile_fsm_native", "hls.codegen", None),
        ("repro.hls.compiled", "compile_fsm", "hls.codegen", None),
        ("repro.hls.native", "NativeFsmBatch.step", "hls.step", None),
        ("repro.hls.native", "NativeFsm.step", "hls.step", None),
        ("repro.rtl.native", "compile_rtl_native", "rtl.codegen", None),
        ("repro.rtl.compiled", "compile_rtl", "rtl.codegen", None),
        ("repro.rtl.native", "NativeRtlSimulator.step", "rtl.step", None),
        ("repro.rtl.native", "NativeRtlSimulator.settle", "rtl.step",
         None),
        ("repro.src_design.testbench", "run_tlm", "kernel.tlm", None),
        ("repro.src_design.testbench", "run_clocked", "src_design.driver",
         None),
        ("repro.src_design.testbench", "RtlDutDriver.cycle",
         "src_design.driver", None),
        ("repro.src_design.testbench", "BehavioralDutDriver.cycle",
         "src_design.driver", None),
        ("repro.src_design.behavioral", "BehavioralSimulation.step",
         "src_design.frontend", None),
        ("repro.verify.harness", "run_verify", "verify.harness", None),
        ("repro.verify.stimulus", "generate_cases", "verify.stimulus",
         None),
        ("repro.verify.runner", "golden_outputs", "verify.golden", None),
        ("repro.verify.runner", "make_dut", "verify.dut_build", None),
        ("repro.verify.coverage", "ToggleCoverage.begin",
         "verify.coverage", None),
        ("repro.verify.coverage", "_GateHandle.sample", "verify.coverage",
         None),
        ("repro.verify.coverage", "_RtlHandle.sample", "verify.coverage",
         None),
        ("repro.fi.campaign", "run_campaign", "fi.campaign", None),
        ("repro.fi.faultload", "generate_gate_faultload", "fi.faultload",
         None),
        ("repro.fi.faults", "build_overlay", "fi.overlay", None),
        ("repro.fi.campaign", "run_gate_batch", _gate_batch_layer,
         _gate_batch_faults),
        ("repro.fi.campaign", "run_gate_fault_scalar", "fi.probe_interp",
         None),
        ("repro.synth", "synthesize", "synth.synthesize", None),
    ]
    rows += [("repro.gatesim.native", f"NativeGateSimulator.{m}",
              "gatesim.marshal", None) for m in marshal_gate]
    rows += [("repro.gatesim.native", f"NativeGateSimulator.{m}",
              "gatesim.readback", None) for m in read_gate]
    rows += [("repro.gatesim.simulator", f"GateSimulator.{m}",
              "gatesim.interp", None)
             for m in ("__init__", "set_input", "set_input_logic", "get",
                       "get_logic", "memory_model", "step", "reset")]
    rows += [("repro.hls.native", f"NativeFsmBatch.{m}", "hls.marshal",
              None) for m in ("set_input", "set_input_patterns",
                              "write_memory", "flip_bit")]
    rows += [("repro.hls.native", f"NativeFsm.{m}", "hls.marshal", None)
             for m in ("set_input", "write_memory")]
    rows += [("repro.hls.native", "NativeFsmBatch.get_output_patterns",
              "hls.readback", None),
             ("repro.hls.native", "NativeFsmBatch.peek_memory",
              "hls.readback", None),
             ("repro.hls.native", "NativeFsm.get_output", "hls.readback",
              None)]
    rows += [("repro.rtl.native", f"NativeRtlSimulator.{m}", "rtl.marshal",
              None) for m in ("set_input", "load_memory")]
    rows += [("repro.rtl.native", f"NativeRtlSimulator.{m}", "rtl.readback",
              None) for m in ("get", "peek_memory")]
    return rows


class Tracer:
    """Installs the wrap table and accumulates per-layer self time.

    ``take()`` returns and resets the accumulators, so one installation
    can report set-up and the timed units as separate regions.
    """

    def __init__(self):
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.items: Dict[str, int] = {}
        #: (name, start, duration) -- converted to Chrome JSON on write
        self.events: List[Tuple[str, float, float]] = []
        self.dropped = 0
        self._stack: List[List[float]] = []
        self._patched: List[Tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        for module_name, attr, layer, items in targets():
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, meth, self._wrap(cls.__dict__[meth],
                                                  layer, items))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, layer, items)
            for name, mod in list(sys.modules.items()):
                if name != "repro" and not name.startswith("repro."):
                    continue
                for bound, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, bound, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, layer: LayerName, items: Optional[Callable]):
        stack = self._stack
        self_s, calls, counts = self.self_s, self.calls, self.items
        events = self.events
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                name = layer if isinstance(layer, str) else layer(args,
                                                                  kwargs)
                self_s[name] = self_s.get(name, 0.0) + dur - child[0]
                calls[name] = calls.get(name, 0) + 1
                if items is not None:
                    counts[name] = counts.get(name, 0) + items(args, kwargs)
                if len(events) < MAX_EVENTS:
                    events.append((name, t0, dur))
                else:
                    tracer.dropped += 1

        return traced

    # -- results -----------------------------------------------------------
    def take(self) -> Tuple[Dict[str, float], Dict[str, int],
                            Dict[str, int]]:
        """Return and reset ``(self_s, calls, items)``."""
        out = (dict(self.self_s), dict(self.calls), dict(self.items))
        self.self_s.clear()
        self.calls.clear()
        self.items.clear()
        return out

    def mark(self, name: str, t0: float, t1: float) -> None:
        """Record one of the benchmark's own region spans."""
        self.events.append((name, t0, t1 - t0))

    def write_chrome_trace(self, path: str, meta: Dict[str, object]) -> None:
        """Write the spans as Chrome trace-event JSON (Perfetto loads it)."""
        base = min((t0 for _, t0, _ in self.events), default=0.0)
        trace_events: List[Dict[str, object]] = [
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
             "args": {"name": "perfbench"}}]
        for name, t0, dur in sorted(self.events, key=lambda e: e[1]):
            trace_events.append({
                "name": name, "cat": name.split(".")[0], "ph": "X",
                "pid": 1, "tid": 1, "ts": round((t0 - base) * 1e6, 3),
                "dur": round(dur * 1e6, 3)})
        doc = {"traceEvents": trace_events, "displayTimeUnit": "ms",
               "otherData": dict(meta, dropped_events=self.dropped,
                                 generator="perfbench")}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
            fh.write("\n")
