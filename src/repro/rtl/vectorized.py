"""Vectorized wide-word RTL simulation (numpy uint64 lanes).

Mirrors :mod:`repro.rtl.compiled` -- the whole module becomes one
generated Python function -- but every net value is a ``uint64``
ndarray of shape ``(n_patterns,)``: one lane per stimulus pattern, so a
single ``step`` evaluates thousands of independent vectors.

The statements come from the RTL level's one code-generation walk
(:mod:`repro.rtl.emit`); :class:`VectorPrinter` respells the Python
printer's data-dependent forms lane-parallel:

* signed interpretation via full-width two's complement:
  ``(a ^ s) - s`` wraps mod 2**64, then an ``int64`` view gives signed
  compares/shifts without ever mixing ``int64`` with ``uint64`` in an
  arithmetic op (which numpy would promote to ``float64``); a signed
  result goes back through ``_u``, masked below 64 bits only -- at 64
  bits the mask is a no-op and numpy 2 rejects ``2**64 - 1`` as an
  ``int64`` operand;
* ``Mux``/``Case`` become ``np.where`` chains;
* memory reads become bounds-guarded gathers from pattern-major
  ``(n_patterns, depth)`` storage; write ports become boolean scatters.

All expression widths must fit one 64-bit lane; wider nodes raise
:class:`~repro.rtl.ir.RtlError` at compile time.  Programs are cached
in :data:`~repro.rtl.compiled.RTL_COMPILE_CACHE` under the
``"vectorized"`` backend tag.

The same printer serves the behavioural (HLS) vectorized backend --
FSM micro-operations hold :mod:`repro.rtl.expr` trees too.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..compile_cache import CompileCache
from ..datatypes.bits import mask
from ..engines import PortSampler
from .compiled import RTL_COMPILE_CACHE, PythonPrinter, module_source
from .ir import RtlError, RtlModule

__all__ = [
    "RtlVectorizedProgram", "VectorPrinter", "VectorizedRtlSimulator",
    "compile_rtl_vectorized", "make_runtime",
]


def make_runtime(n_patterns: int) -> Dict[str, object]:
    """The helper namespace the generated vectorized code runs in.

    Everything is closed over ``n_patterns``; values flowing through
    the generated code are either ``(n,)`` uint64 ndarrays or plain
    Python ints (constants) -- the helpers accept both.
    """
    n = n_patterns
    rows = np.arange(n)
    u0 = np.uint64(0)

    def _bc(x):
        """Broadcast to a fresh writable (n,) uint64 array.

        Views (e.g. a memory-column gather) are copied so env entries
        never alias backing storage -- in-place pokes must stay local.
        """
        if isinstance(x, np.ndarray) and x.shape == (n,) \
                and x.dtype == np.uint64:
            return x if x.base is None else x.copy()
        out = np.empty(n, dtype=np.uint64)
        out[...] = np.asarray(x, dtype=np.uint64)
        return out

    def _u(x):
        """Coerce to uint64 (no-op for uint64 arrays)."""
        return np.asarray(x, dtype=np.uint64)

    def _sgn(a, w):
        """w-bit value -> full-width signed int64 (lane-parallel)."""
        s = np.uint64(1 << (w - 1))
        # modular wrap below zero is the point; 0-dim operands warn
        with np.errstate(over="ignore"):
            return ((np.asarray(a, dtype=np.uint64) ^ s) - s).view(np.int64)

    def _b2u(b):
        """Comparison result -> uint64 0/1."""
        return np.asarray(b).astype(np.uint64)

    def _wc(cond, t, f):
        """Guarded select; result coerced back to uint64."""
        return np.asarray(np.where(cond, t, f), dtype=np.uint64)

    def _nz(x):
        """Lane-parallel truth test (guards, transition conditions)."""
        return np.asarray(x) != 0

    def _pop(a):
        """Population-count parity (Reduce-xor)."""
        return (np.bitwise_count(np.asarray(a, dtype=np.uint64))
                & 1).astype(np.uint64)

    def _mrd(storage, addr, depth):
        """Bounds-guarded gather: out-of-range lanes read 0."""
        a = np.asarray(addr)
        if a.ndim == 0:
            ai = int(a)
            return storage[:, ai] if 0 <= ai < depth else u0
        ok = a < depth
        safe = np.where(ok, a, u0).astype(np.int64)
        return np.where(ok, storage[rows, safe], u0)

    def _mwr(storage, en, addr, data, depth, width_mask):
        """Per-lane write commit: out-of-range lanes are dropped."""
        e = np.asarray(en)
        if e.ndim == 0 and not int(e):
            return
        a = _bc(addr)
        d = _bc(data) & np.uint64(width_mask)
        sel = a < depth
        if e.ndim != 0:
            sel = sel & (e != 0)
        if sel.any():
            storage[rows[sel], a[sel].astype(np.int64)] = d[sel]

    return {
        "np": np, "_bc": _bc, "_u": _u, "_sgn": _sgn, "_b2u": _b2u,
        "_wc": _wc, "_nz": _nz, "_pop": _pop, "_mrd": _mrd, "_mwr": _mwr,
    }


class VectorPrinter(PythonPrinter):
    """numpy spelling of the code-generation walk (uint64 lane arrays).

    Only the forms whose Python spelling is data-dependent differ; the
    rest apply lane-parallel as written (a uint64 ``-`` wraps, and 2**64
    is a multiple of 2**width, so the masked residue matches Python).
    """

    word = "lane of the vectorized backend"

    def signed(self, a: str, width: int) -> str:
        return f"_sgn({a}, {width})"

    def _unsigned(self, value: str, m: str, width: int) -> str:
        """int64 lanes back to uint64 (see the module docstring)."""
        return f"_u({value})" if width == 64 else f"_u({value} & {m})"

    def smul(self, sa: str, sb: str, m: str, width: int) -> str:
        # |product| < 2**62 (lane-width check), so int64 is exact
        return self._unsigned(f"({sa} * {sb})", m, width)

    def sra(self, sa: str, amount: int, m: str, width: int) -> str:
        return self._unsigned(f"({sa} >> {amount})", m, width)

    def sext(self, sa: str, m: str, width: int) -> str:
        return self._unsigned(sa, m, width)

    def cmp(self, a: str, rel: str, b: str, signed: bool) -> str:
        return f"_b2u({a} {rel} {b})"

    def mux(self, s: str, t: str, f: str) -> str:
        return f"_wc({s} != 0, {t}, {f})"

    def case_arm(self, s: str, value: str, t: str, f: str) -> str:
        return f"_wc({s} == {value}, {t}, {f})"

    _REDUCE = {"and": "_b2u({a} == {full})", "or": "_b2u({a} != 0)",
               "xor": "_pop({a})"}

    def mem_read(self, mem: str, addr: str, depth: int) -> str:
        return f"_mrd({mem}, {addr}, {depth})"

    def fresh(self, value: str) -> str:
        """A fresh (n,) array: env entries never alias a temp."""
        return f"_bc({value})"

    def port_write(self, mem: str, en: str, addr: str, data: str,
                   depth: int, m: str) -> List[str]:
        return [f"_mwr({mem}, {en}, {addr}, {data}, {depth}, {m})"]


@dataclass
class RtlVectorizedProgram:
    """A compiled lane-parallel whole-module step/settle function."""

    source: str
    #: ``fn(env, mems, cycles)``: run *cycles* clock edges then settle;
    #: *env* maps nets to (n,) uint64 arrays, *mems* maps memories to
    #: (n, depth) uint64 arrays
    fn: Callable
    structural_key: str


def compile_rtl_vectorized(module: RtlModule, n_patterns: int,
                           cache: Optional[CompileCache] = None
                           ) -> RtlVectorizedProgram:
    """Compile *module* into a lane-parallel run function (cached).

    The generated source is pattern-count independent; the runtime
    namespace binds ``n_patterns``, so the cache key carries both the
    source digest and the lane count.
    """
    if cache is None:
        cache = RTL_COMPILE_CACHE
    source = module_source(module, VectorPrinter())
    digest = hashlib.sha256(source.encode()).hexdigest()
    key = f"{digest}:n{n_patterns}"

    def factory() -> RtlVectorizedProgram:
        code = compile(source, f"<rtl-vectorized:{module.name}>", "exec")
        namespace: Dict[str, object] = make_runtime(n_patterns)
        exec(code, namespace)
        return RtlVectorizedProgram(
            source=source,
            fn=namespace["_run"],  # type: ignore[arg-type]
            structural_key=key,
        )

    return cache.get_or_compile(key, factory, backend="vectorized")


class VectorizedRtlSimulator:
    """Lane-parallel cycle simulator for one :class:`RtlModule`.

    Public surface mirrors :class:`~repro.rtl.simulate.RtlSimulator`
    (scalar calls broadcast writes / read lane 0) and adds
    ``set_input_patterns`` / ``get_patterns``.  ``env`` holds ``(n,)``
    uint64 arrays, so per-lane pokes (fault injection) work with plain
    ``env[name] ^= 1 << bit`` element-wise.
    """

    backend = "vectorized"

    def __init__(self, module: RtlModule, n_patterns: int = 1,
                 cache: Optional[CompileCache] = None):
        if n_patterns < 1:
            raise RtlError(f"n_patterns must be >= 1, got {n_patterns}")
        module.validate()
        self.module = module
        self.mem_monitor = None
        self.n_patterns = n_patterns
        self.cycles = 0
        self.program = compile_rtl_vectorized(module, n_patterns,
                                              cache=cache)
        self._run = self.program.fn

        self._memories: Dict[str, np.ndarray] = {}
        for mem in module.memories:
            if mem.contents is not None:
                row = np.array([v & mask(mem.width) for v in mem.contents],
                               dtype=np.uint64)
                data = np.tile(row, (n_patterns, 1))
            else:
                data = np.zeros((n_patterns, mem.depth), dtype=np.uint64)
            self._memories[mem.name] = data

        self.env: Dict[str, np.ndarray] = {}
        for port in module.ports:
            if port.direction == "in":
                self.env[port.name] = np.zeros(n_patterns, dtype=np.uint64)
        for reg in module.registers:
            self.env[reg.name] = np.full(
                n_patterns, np.uint64(reg.init & mask(reg.width)),
                dtype=np.uint64)
        self._in_names = set(module.input_names())
        self.settle()

    # ------------------------------------------------------------------
    def set_input(self, name: str, value: int) -> None:
        """Drive *value* on input *name*, broadcast to all lanes."""
        if name not in self._in_names:
            raise RtlError(
                f"{name!r} is not an input of {self.module.name!r}")
        value &= mask(self.module.net_width(name))
        self.env[name] = np.full(self.n_patterns, np.uint64(value),
                                 dtype=np.uint64)

    def set_input_patterns(self, name: str, values) -> None:
        """Drive one stimulus value per lane on input *name*."""
        if name not in self._in_names:
            raise RtlError(
                f"{name!r} is not an input of {self.module.name!r}")
        if len(values) != self.n_patterns:
            raise RtlError(
                f"expected {self.n_patterns} pattern values, "
                f"got {len(values)}"
            )
        vals = np.asarray(values, dtype=np.uint64)
        self.env[name] = vals & np.uint64(mask(
            self.module.net_width(name)))

    def get(self, name: str) -> int:
        """Read any net of lane 0 as an integer."""
        target = self.module.outputs.get(name, name)
        return int(self.env[target][0])

    def get_patterns(self, name: str):
        """Read any net as one integer per lane."""
        target = self.module.outputs.get(name, name)
        return [int(v) for v in self.env[target]]

    def port_sampler(self, names: Sequence[str]) -> PortSampler:
        """The lane-0 values of *names* (see
        :class:`~repro.engines.PortSampler`), read port by port."""
        widths = {name: self.module.net_width(name) for name in names}
        return PortSampler(lambda: tuple(map(self.get, widths)), widths)

    def peek_memory(self, name: str, pattern: int = 0):
        return [int(v) for v in self._memories[name][pattern]]

    def load_memory(self, name: str, contents) -> None:
        data = self._memories[name]
        if len(contents) != data.shape[1]:
            raise RtlError(
                f"memory {name!r}: {len(contents)} values for depth "
                f"{data.shape[1]}"
            )
        width = next(m.width for m in self.module.memories
                     if m.name == name)
        row = np.array([v & mask(width) for v in contents],
                       dtype=np.uint64)
        data[:] = row

    # ------------------------------------------------------------------
    def settle(self) -> None:
        """Re-evaluate combinational logic for the current inputs/state."""
        self._run(self.env, self._memories, 0)

    def step(self, cycles: int = 1) -> None:
        """Advance by *cycles* clock edges (inputs held constant)."""
        self._run(self.env, self._memories, cycles)
        self.cycles += cycles

    def reset(self) -> None:
        """Restore registers (and RAM contents) to their initial state."""
        for reg in self.module.registers:
            self.env[reg.name] = np.full(
                self.n_patterns, np.uint64(reg.init & mask(reg.width)),
                dtype=np.uint64)
        for mem in self.module.memories:
            if mem.contents is None:
                self._memories[mem.name][:] = np.uint64(0)
        self.cycles = 0
        self.settle()
