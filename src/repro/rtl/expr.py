"""RTL expression trees.

Expressions are width-annotated, purely combinational value computations
over named nets (ports, registers, combinational assigns, memory read
data).  Storage semantics are unsigned bit vectors; signed behaviour is
explicit through signed operators (``SMul``, ``Sra``, signed compares,
sign extension), exactly as in synthesisable HDL.

Every node can be *compiled* into a Python closure for fast cycle-based
simulation, and *mapped* bit-by-bit onto standard cells by
:mod:`repro.synth.mapping`.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from ..datatypes.bits import mask
from ..datatypes.integers import wrap_signed

Env = Dict[str, int]


class Expr:
    """Base class: a combinational expression of a fixed bit width."""

    __slots__ = ("width",)

    def __init__(self, width: int):
        if width < 1:
            raise ValueError(f"expression width must be >= 1, got {width}")
        self.width = width

    # -- operator sugar (width rules follow hardware conventions) ---------
    def __add__(self, other: "Expr") -> "Expr":
        return Add(self, as_expr(other))

    def __sub__(self, other: "Expr") -> "Expr":
        return Sub(self, as_expr(other))

    def __mul__(self, other: "Expr") -> "Expr":
        return Mul(self, as_expr(other))

    def __and__(self, other: "Expr") -> "Expr":
        return BitAnd(self, as_expr(other))

    def __or__(self, other: "Expr") -> "Expr":
        return BitOr(self, as_expr(other))

    def __xor__(self, other: "Expr") -> "Expr":
        return BitXor(self, as_expr(other))

    def __invert__(self) -> "Expr":
        return BitNot(self)

    def __lshift__(self, amount: int) -> "Expr":
        return Shl(self, amount)

    def __rshift__(self, amount: int) -> "Expr":
        return Shr(self, amount)

    def eq(self, other) -> "Expr":
        return Cmp("eq", self, as_expr(other))

    def ne(self, other) -> "Expr":
        return Cmp("ne", self, as_expr(other))

    def ult(self, other) -> "Expr":
        return Cmp("ult", self, as_expr(other))

    def ule(self, other) -> "Expr":
        return Cmp("ule", self, as_expr(other))

    def uge(self, other) -> "Expr":
        return Cmp("ule", as_expr(other), self)

    def slt(self, other) -> "Expr":
        return Cmp("slt", self, as_expr(other))

    def sle(self, other) -> "Expr":
        return Cmp("sle", self, as_expr(other))

    def sge(self, other) -> "Expr":
        return Cmp("sle", as_expr(other), self)

    def sgt(self, other) -> "Expr":
        return Cmp("slt", as_expr(other), self)

    def bit(self, index: int) -> "Expr":
        return Slice(self, index, index)

    def slice(self, msb: int, lsb: int) -> "Expr":
        return Slice(self, msb, lsb)

    def zext(self, width: int) -> "Expr":
        return Ext(self, width, signed=False)

    def sext(self, width: int) -> "Expr":
        return Ext(self, width, signed=True)

    def children(self) -> Tuple["Expr", ...]:
        return ()

    def refs(self) -> Iterable[str]:
        """All net names this expression reads."""
        for child in self.children():
            yield from child.refs()

    def compile(self) -> Callable[[Env], int]:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(w={self.width})"


def as_expr(value) -> Expr:
    """Coerce ints to :class:`Const` (width = minimum unsigned width)."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, int):
        if value < 0:
            raise ValueError(
                f"negative literal {value}: build signed constants with "
                "Const(width, value) to make the width explicit"
            )
        return Const(max(1, value.bit_length()), value)
    raise TypeError(f"cannot convert {value!r} to an RTL expression")


class Const(Expr):
    """A literal of explicit width (value stored unsigned / two's compl.)."""

    __slots__ = ("value",)

    def __init__(self, width: int, value: int):
        super().__init__(width)
        self.value = value & mask(width)

    def compile(self):
        value = self.value
        return lambda env: value

    def __repr__(self) -> str:
        return f"Const({self.width}, {self.value})"


class Ref(Expr):
    """A read of a named net."""

    __slots__ = ("name",)

    def __init__(self, name: str, width: int):
        super().__init__(width)
        self.name = name

    def refs(self):
        yield self.name

    def compile(self):
        name = self.name
        return lambda env: env[name]

    def __repr__(self) -> str:
        return f"Ref({self.name!r}, w={self.width})"


class _Binary(Expr):
    __slots__ = ("a", "b")

    def __init__(self, a: Expr, b: Expr, width: int):
        super().__init__(width)
        self.a = a
        self.b = b

    def children(self):
        return (self.a, self.b)


class Add(_Binary):
    """Addition; default width grows by one bit for the carry."""

    __slots__ = ()

    def __init__(self, a: Expr, b: Expr, width: Optional[int] = None):
        super().__init__(a, b, width or max(a.width, b.width) + 1)

    def compile(self):
        fa, fb, m = self.a.compile(), self.b.compile(), mask(self.width)
        return lambda env: (fa(env) + fb(env)) & m


class Sub(_Binary):
    """Subtraction (two's complement result, masked to width)."""

    __slots__ = ()

    def __init__(self, a: Expr, b: Expr, width: Optional[int] = None):
        super().__init__(a, b, width or max(a.width, b.width) + 1)

    def compile(self):
        fa, fb, m = self.a.compile(), self.b.compile(), mask(self.width)
        return lambda env: (fa(env) - fb(env)) & m


class Mul(_Binary):
    """Unsigned multiplication, full product width."""

    __slots__ = ()

    def __init__(self, a: Expr, b: Expr):
        super().__init__(a, b, a.width + b.width)

    def compile(self):
        fa, fb, m = self.a.compile(), self.b.compile(), mask(self.width)
        return lambda env: (fa(env) * fb(env)) & m


class SMul(_Binary):
    """Signed multiplication, full product width."""

    __slots__ = ()

    def __init__(self, a: Expr, b: Expr):
        super().__init__(a, b, a.width + b.width)

    def compile(self):
        fa, fb = self.a.compile(), self.b.compile()
        wa, wb, m = self.a.width, self.b.width, mask(self.width)
        return lambda env: (
            wrap_signed(fa(env), wa) * wrap_signed(fb(env), wb)
        ) & m


class BitAnd(_Binary):
    __slots__ = ()

    def __init__(self, a: Expr, b: Expr):
        super().__init__(a, b, max(a.width, b.width))

    def compile(self):
        fa, fb = self.a.compile(), self.b.compile()
        return lambda env: fa(env) & fb(env)


class BitOr(_Binary):
    __slots__ = ()

    def __init__(self, a: Expr, b: Expr):
        super().__init__(a, b, max(a.width, b.width))

    def compile(self):
        fa, fb = self.a.compile(), self.b.compile()
        return lambda env: fa(env) | fb(env)


class BitXor(_Binary):
    __slots__ = ()

    def __init__(self, a: Expr, b: Expr):
        super().__init__(a, b, max(a.width, b.width))

    def compile(self):
        fa, fb = self.a.compile(), self.b.compile()
        return lambda env: fa(env) ^ fb(env)


class BitNot(Expr):
    __slots__ = ("a",)

    def __init__(self, a: Expr):
        super().__init__(a.width)
        self.a = a

    def children(self):
        return (self.a,)

    def compile(self):
        fa, m = self.a.compile(), mask(self.width)
        return lambda env: ~fa(env) & m


class Shl(Expr):
    """Left shift by a constant amount (wires, no logic)."""

    __slots__ = ("a", "amount")

    def __init__(self, a: Expr, amount: int):
        if amount < 0:
            raise ValueError(f"negative shift {amount}")
        super().__init__(a.width + amount)
        self.a = a
        self.amount = amount

    def children(self):
        return (self.a,)

    def compile(self):
        fa, k = self.a.compile(), self.amount
        return lambda env: fa(env) << k


class Shr(Expr):
    """Logical right shift by a constant amount."""

    __slots__ = ("a", "amount")

    def __init__(self, a: Expr, amount: int):
        if amount < 0:
            raise ValueError(f"negative shift {amount}")
        super().__init__(max(1, a.width - amount))
        self.a = a
        self.amount = amount

    def children(self):
        return (self.a,)

    def compile(self):
        fa, k = self.a.compile(), self.amount
        return lambda env: fa(env) >> k


class Sra(Expr):
    """Arithmetic right shift by a constant amount (keeps width)."""

    __slots__ = ("a", "amount")

    def __init__(self, a: Expr, amount: int):
        if amount < 0:
            raise ValueError(f"negative shift {amount}")
        super().__init__(a.width)
        self.a = a
        self.amount = amount

    def children(self):
        return (self.a,)

    def compile(self):
        fa, k, w, m = self.a.compile(), self.amount, self.a.width, mask(self.width)
        return lambda env: (wrap_signed(fa(env), w) >> k) & m


class Cmp(Expr):
    """Comparison, 1-bit result.  Ops: eq ne ult ule slt sle."""

    __slots__ = ("op", "a", "b")
    _OPS = ("eq", "ne", "ult", "ule", "slt", "sle")

    def __init__(self, op: str, a: Expr, b: Expr):
        if op not in self._OPS:
            raise ValueError(f"unknown comparison {op!r}")
        super().__init__(1)
        self.op = op
        self.a = a
        self.b = b

    def children(self):
        return (self.a, self.b)

    def compile(self):
        fa, fb = self.a.compile(), self.b.compile()
        wa, wb = self.a.width, self.b.width
        op = self.op
        if op == "eq":
            return lambda env: 1 if fa(env) == fb(env) else 0
        if op == "ne":
            return lambda env: 1 if fa(env) != fb(env) else 0
        if op == "ult":
            return lambda env: 1 if fa(env) < fb(env) else 0
        if op == "ule":
            return lambda env: 1 if fa(env) <= fb(env) else 0
        if op == "slt":
            return lambda env: (
                1 if wrap_signed(fa(env), wa) < wrap_signed(fb(env), wb) else 0
            )
        # sle
        return lambda env: (
            1 if wrap_signed(fa(env), wa) <= wrap_signed(fb(env), wb) else 0
        )


class Mux(Expr):
    """2:1 multiplexer: ``sel ? if_true : if_false``."""

    __slots__ = ("sel", "if_true", "if_false")

    def __init__(self, sel: Expr, if_true: Expr, if_false: Expr):
        if sel.width != 1:
            raise ValueError(f"mux select must be 1 bit, got {sel.width}")
        super().__init__(max(if_true.width, if_false.width))
        self.sel = sel
        self.if_true = if_true
        self.if_false = if_false

    def children(self):
        return (self.sel, self.if_true, self.if_false)

    def compile(self):
        fs = self.sel.compile()
        ft = self.if_true.compile()
        ff = self.if_false.compile()
        return lambda env: ft(env) if fs(env) else ff(env)


class Case(Expr):
    """Parallel case: select one branch by the value of *sel*.

    Synthesised as a balanced multiplexer tree; missing selector values
    fall through to *default*.
    """

    __slots__ = ("sel", "branches", "default")

    def __init__(self, sel: Expr, branches: Mapping[int, Expr],
                 default: Expr):
        if not branches:
            raise ValueError("Case needs at least one branch")
        width = max(
            [default.width] + [expr.width for expr in branches.values()]
        )
        super().__init__(width)
        self.sel = sel
        self.branches = dict(branches)
        self.default = default
        for key in self.branches:
            if not 0 <= key < (1 << sel.width):
                raise ValueError(
                    f"case value {key} unrepresentable in {sel.width} bits"
                )

    def children(self):
        return (self.sel, *self.branches.values(), self.default)

    def compile(self):
        fs = self.sel.compile()
        table = {key: expr.compile() for key, expr in self.branches.items()}
        fd = self.default.compile()
        return lambda env: table.get(fs(env), fd)(env)


class Cat(Expr):
    """Concatenation; first part is most significant."""

    __slots__ = ("parts",)

    def __init__(self, *parts: Expr):
        if not parts:
            raise ValueError("Cat needs at least one part")
        super().__init__(sum(p.width for p in parts))
        self.parts = tuple(parts)

    def children(self):
        return self.parts

    def compile(self):
        compiled = [(p.compile(), p.width) for p in self.parts]

        def run(env: Env) -> int:
            value = 0
            for fn, width in compiled:
                value = (value << width) | fn(env)
            return value

        return run


class Slice(Expr):
    """Inclusive bit range ``[msb:lsb]`` (wires, no logic)."""

    __slots__ = ("a", "msb", "lsb")

    def __init__(self, a: Expr, msb: int, lsb: int):
        if msb < lsb:
            raise ValueError(f"slice msb {msb} < lsb {lsb}")
        if msb >= a.width or lsb < 0:
            raise ValueError(
                f"slice [{msb}:{lsb}] out of range for width {a.width}"
            )
        super().__init__(msb - lsb + 1)
        self.a = a
        self.msb = msb
        self.lsb = lsb

    def children(self):
        return (self.a,)

    def compile(self):
        fa, k, m = self.a.compile(), self.lsb, mask(self.width)
        return lambda env: (fa(env) >> k) & m


class Ext(Expr):
    """Zero or sign extension to a wider width."""

    __slots__ = ("a", "signed")

    def __init__(self, a: Expr, width: int, signed: bool):
        if width < a.width:
            raise ValueError(
                f"extension target {width} narrower than source {a.width}"
            )
        super().__init__(width)
        self.a = a
        self.signed = signed

    def children(self):
        return (self.a,)

    def compile(self):
        fa, wa, m = self.a.compile(), self.a.width, mask(self.width)
        if not self.signed or self.width == wa:
            return lambda env: fa(env)
        return lambda env: wrap_signed(fa(env), wa) & m


class Reduce(Expr):
    """Reduction operator over all bits: and / or / xor, 1-bit result."""

    __slots__ = ("op", "a")
    _OPS = ("and", "or", "xor")

    def __init__(self, op: str, a: Expr):
        if op not in self._OPS:
            raise ValueError(f"unknown reduction {op!r}")
        super().__init__(1)
        self.op = op
        self.a = a

    def children(self):
        return (self.a,)

    def compile(self):
        fa, w = self.a.compile(), self.a.width
        if self.op == "and":
            full = mask(w)
            return lambda env: 1 if fa(env) == full else 0
        if self.op == "or":
            return lambda env: 1 if fa(env) else 0
        return lambda env: bin(fa(env)).count("1") & 1


class MemRead(Expr):
    """Asynchronous memory read port.

    Evaluation needs the memory contents, so compiled closures receive
    them through the environment under the reserved key
    ``"$mem:<name>"`` (a list of ints).  Out-of-range addresses read 0 --
    the silent stale-cell behaviour of a plain array model; *checking*
    memory models live in :mod:`repro.gatesim.memory`.
    """

    __slots__ = ("mem_name", "addr", "depth")

    def __init__(self, mem_name: str, addr: Expr, depth: int, width: int):
        super().__init__(width)
        self.mem_name = mem_name
        self.addr = addr
        self.depth = depth

    def children(self):
        return (self.addr,)

    def refs(self):
        yield from self.addr.refs()

    def compile(self):
        fa = self.addr.compile()
        key = f"$mem:{self.mem_name}"
        depth = self.depth

        def run(env: Env) -> int:
            addr = fa(env)
            contents = env[key]
            if 0 <= addr < depth:
                return contents[addr]
            return 0

        return run


def evaluate(expr: Expr, env: Env) -> int:
    """Convenience one-shot evaluation (compiles then runs)."""
    return expr.compile()(env)


def substitute(expr: Expr, mapping: Mapping[str, Expr],
               cache: Optional[Dict[int, Expr]] = None) -> Expr:
    """Replace ``Ref`` nodes named in *mapping* by their expressions.

    Substituted subtrees are inserted by reference (not copied), and a
    rebuild *cache* (keyed by original node identity) guarantees that a
    subtree shared between several expressions is rebuilt exactly once --
    downstream technology mapping and functional-unit sharing depend on
    node identity to build the hardware once.  Pass one cache dict across
    a group of related substitutions to preserve sharing between them.
    Returns *expr* itself when nothing matches.
    """
    if cache is not None:
        hit = cache.get(id(expr))
        if hit is not None:
            return hit
        result = _substitute_uncached(expr, mapping, cache)
        cache[id(expr)] = result
        return result
    return _substitute_uncached(expr, mapping, {})


def _substitute_uncached(expr: Expr, mapping: Mapping[str, Expr],
                         cache: Dict[int, Expr]) -> Expr:
    if isinstance(expr, Ref):
        replacement = mapping.get(expr.name)
        if replacement is None:
            return expr
        if replacement.width != expr.width:
            if replacement.width > expr.width:
                return Slice(replacement, expr.width - 1, 0)
            return Ext(replacement, expr.width, signed=False)
        return replacement
    if isinstance(expr, Const):
        return expr

    kids = expr.children()
    new_kids = [substitute(k, mapping, cache) for k in kids]
    if all(n is o for n, o in zip(new_kids, kids)):
        return expr

    if isinstance(expr, Add):
        return Add(new_kids[0], new_kids[1], expr.width)
    if isinstance(expr, Sub):
        return Sub(new_kids[0], new_kids[1], expr.width)
    if isinstance(expr, Mul):
        return Mul(new_kids[0], new_kids[1])
    if isinstance(expr, SMul):
        return SMul(new_kids[0], new_kids[1])
    if isinstance(expr, BitAnd):
        return BitAnd(new_kids[0], new_kids[1])
    if isinstance(expr, BitOr):
        return BitOr(new_kids[0], new_kids[1])
    if isinstance(expr, BitXor):
        return BitXor(new_kids[0], new_kids[1])
    if isinstance(expr, BitNot):
        return BitNot(new_kids[0])
    if isinstance(expr, Shl):
        return Shl(new_kids[0], expr.amount)
    if isinstance(expr, Shr):
        return Shr(new_kids[0], expr.amount)
    if isinstance(expr, Sra):
        return Sra(new_kids[0], expr.amount)
    if isinstance(expr, Cmp):
        return Cmp(expr.op, new_kids[0], new_kids[1])
    if isinstance(expr, Mux):
        return Mux(new_kids[0], new_kids[1], new_kids[2])
    if isinstance(expr, Case):
        keys = list(expr.branches.keys())
        return Case(new_kids[0],
                    dict(zip(keys, new_kids[1:1 + len(keys)])),
                    new_kids[-1])
    if isinstance(expr, Cat):
        return Cat(*new_kids)
    if isinstance(expr, Slice):
        return Slice(new_kids[0], expr.msb, expr.lsb)
    if isinstance(expr, Ext):
        return Ext(new_kids[0], expr.width, expr.signed)
    if isinstance(expr, Reduce):
        return Reduce(expr.op, new_kids[0])
    if isinstance(expr, MemRead):
        return MemRead(expr.mem_name, new_kids[0], expr.depth, expr.width)
    raise TypeError(f"cannot substitute in {type(expr).__name__}")


def traverse(expr: Expr):
    """Yield *expr* and all descendants, pre-order."""
    yield expr
    for child in expr.children():
        yield from traverse(child)
