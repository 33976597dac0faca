"""Monotone word machines: the effective layer.

A Machine is a pure function from a finite input prefix to a finite output
prefix, monotone under the prefix order.  The stream function it induces is
the limit over ever longer input prefixes; run_on_point performs that
widening.  Evaluation receives prefix *views* (length plus indexing), which
lets machines with sparse access patterns run on very long prefixes of
lazily evaluated points without materializing them.

A machine may also carry its point action: a function from a finitely
presented point to a finitely presented point whose prefixes the machine
emits.  Every combinator builds it from the point actions of its parts;
a primitive whose action is structural (a search, a guess, a split of
rows) is given its action by hand, and the checker validates either kind
against eval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .errors import UnsupportedShape
from .points import (
    Interleave,
    LawPoint,
    Point,
    RowTuple,
    Word,
    depair,
    pair_decode,
    pair_encode,
    point_drop,
    point_prepend,
    prefix as point_prefix,
    row,
    rows_of,
)

DEFAULT_FUEL = 10 ** 6


# ---------------------------------------------------------------------------
# prefix views

class PointView:
    """Length-bounded view of a point's prefix; values computed on demand."""

    __slots__ = ("point", "length")

    def __init__(self, point: Point, length: int):
        self.point = point
        self.length = length

    def __len__(self):
        return self.length

    def __getitem__(self, i):
        if i < 0 or i >= self.length:
            raise IndexError(i)
        return self.point.value_at(i)


class StrideView:
    """Every stride-th symbol starting at offset (component of a pair)."""

    __slots__ = ("base", "stride", "offset", "length")

    def __init__(self, base, stride: int, offset: int):
        self.base = base
        self.stride = stride
        self.offset = offset
        n = len(base)
        self.length = 0 if n <= offset else (n - offset + stride - 1) // stride

    def __len__(self):
        return self.length

    def __getitem__(self, i):
        if i < 0 or i >= self.length:
            raise IndexError(i)
        return self.base[self.offset + self.stride * i]


class RowView:
    """The n-th row of a tupled word under the global pairing."""

    __slots__ = ("base", "n", "length")

    def __init__(self, base, n: int):
        self.base = base
        self.n = n
        L = len(base)
        k = 0
        while pair_encode(n, k) < L:
            k += 1
        self.length = k

    def __len__(self):
        return self.length

    def __getitem__(self, k):
        if k < 0 or k >= self.length:
            raise IndexError(k)
        return self.base[pair_encode(self.n, k)]


def first_half(w):
    return StrideView(w, 2, 0)


def second_half(w):
    return StrideView(w, 2, 1)


def emit_rows(row_of: Callable, bound: Optional[int] = None) -> Word:
    """A row-tupled output: symbol j = <n,k> is symbol k of row_of(n),
    emitted up to the first row too short for its symbol, and below bound
    when one is given.  Each row is computed once."""
    rows: dict = {}
    out = []
    j = 0
    while bound is None or j < bound:
        n, k = pair_decode(j)
        r = rows.get(n)
        if r is None:
            r = rows[n] = row_of(n)
        if k >= len(r):
            break
        out.append(r[k])
        j += 1
    return tuple(out)


def interleave_words(a: Sequence, b: Sequence) -> Word:
    la, lb = len(a), len(b)
    n = min(2 * la, 2 * lb + 1)
    out = []
    for i in range(n):
        out.append(a[i // 2] if i % 2 == 0 else b[i // 2])
    return tuple(out)


# ---------------------------------------------------------------------------
# machines

@dataclass
class Machine:
    name: str
    fn: Callable
    fuel: int = DEFAULT_FUEL
    point: Optional[Callable] = None

    def eval(self, w) -> Word:
        return self.fn(w)

    def __repr__(self):
        return f"Machine({self.name})"


@dataclass
class EvalOutcome:
    output: Word
    productive: bool
    width: int = 0


def run_on_point(m: Machine, p: Point, depth: int, fuel: int = None) -> EvalOutcome:
    """Widen the input prefix geometrically until depth symbols are emitted."""
    budget = m.fuel if fuel is None else fuel
    width = min(16, budget)
    out = ()
    while True:
        out = m.eval(PointView(p, width))
        if len(out) >= depth:
            return EvalOutcome(tuple(out[:depth]), True, width)
        if width >= budget:
            return EvalOutcome(tuple(out), False, width)
        width = min(width * 2, budget)


# primitives ----------------------------------------------------------------

def _lifted(action: Callable, *parts: Machine) -> Optional[Callable]:
    """A combinator's point action, or None when some part has none."""
    return None if any(m.point is None for m in parts) else action


def identity() -> Machine:
    return Machine("id", lambda w: tuple(w), point=lambda p: p)


def const_machine(q: Point, name: str = None) -> Machine:
    return Machine(name or "const", lambda w: point_prefix(q, len(w)),
                   point=lambda p: q)


def shift_l() -> Machine:
    return Machine("L", lambda w: tuple(w[i] for i in range(1, len(w))),
                   point=point_drop)


def inject(sym: int) -> Machine:
    return Machine(f"inject{sym}", lambda w: (sym,) + tuple(w),
                   point=lambda p: point_prepend(sym, p))


def proj1() -> Machine:
    return Machine("pi1", lambda w: tuple(first_half(w)),
                   point=lambda p: depair(p)[0])


def proj2() -> Machine:
    return Machine("pi2", lambda w: tuple(second_half(w)),
                   point=lambda p: depair(p)[1])


def diag() -> Machine:
    def fn(w):
        out = []
        for i in range(len(w)):
            out.append(w[i])
            out.append(w[i])
        return tuple(out)
    return Machine("D", fn, point=lambda p: Interleave(p, p))


def pair_machine(f: Machine, g: Machine) -> Machine:
    return Machine(f"<{f.name},{g.name}>",
                   lambda w: interleave_words(f.eval(w), g.eval(w)),
                   point=_lifted(lambda p: Interleave(f.point(p), g.point(p)),
                                 f, g))


def tensor(f: Machine, g: Machine) -> Machine:
    def point(p):
        a, b = depair(p)
        return Interleave(f.point(a), g.point(b))
    return Machine(f"({f.name}x{g.name})",
                   lambda w: interleave_words(f.eval(first_half(w)),
                                              g.eval(second_half(w))),
                   point=_lifted(point, f, g))


def compose(outer: Machine, inner: Machine) -> Machine:
    return Machine(f"{outer.name}.{inner.name}",
                   lambda w: outer.eval(inner.eval(w)),
                   point=_lifted(lambda p: outer.point(inner.point(p)),
                                 outer, inner))


def compose_all(*ms: Machine) -> Machine:
    m = ms[0]
    for nxt in ms[1:]:
        m = compose(m, nxt)
    return m


def countable_tuple(ms: Sequence, uniform: Machine) -> Machine:
    """Row n of the output is (ms[n] or uniform) applied to row n of the input."""
    ms = list(ms)

    def machine_at(n):
        return ms[n] if n < len(ms) else uniform

    def fn(w):
        return emit_rows(lambda n: machine_at(n).eval(RowView(w, n)))

    def point(p):
        p = rows_of(p)
        if isinstance(p, RowTuple):
            rows = {n: machine_at(n).point(r) for n, r in p.rows.items()}
            rows.update({n: ms[n].point(p.default)
                         for n in range(len(ms)) if n not in rows})
            return RowTuple(rows, uniform.point(p.default))
        if isinstance(p, Interleave):
            # refuse now: a pair that does not normalize has no rows to read
            raise UnsupportedShape("rowwise action on a pair without row form")
        return LawPoint(row_fn=lambda n: machine_at(n).point(row(p, n)),
                        label="rowwise")

    return Machine(f"tuple({uniform.name})", fn,
                   point=_lifted(point, uniform, *ms))


def _emit_budget(length: int) -> int:
    """Output budget per evaluation: enough to cover the pairing diagonal
    of the visible input, so tupled outputs are not starved by tupled
    inputs, while keeping every evaluation finite."""
    return max(64, (length + 2) * (length + 3))


def index_machine(name: str, src: Callable, rows: Callable = None,
                  point: Callable = None) -> Machine:
    """Output symbol j is input symbol src(j); emits the longest closed
    prefix within the evaluation budget.

    The point action reads the input at src(i); rows, given the input
    point, returns the row law of the output when it has row structure.
    An explicit point replaces the derived action."""
    def fn(w):
        L = len(w)
        cap = _emit_budget(L)
        out = []
        j = 0
        while j < cap:
            i = src(j)
            if i >= L:
                break
            out.append(w[i])
            j += 1
        return tuple(out)

    def law(p):
        return LawPoint(fn=lambda i: p.value_at(src(i)),
                        row_fn=rows(p) if rows else None, label=name)

    return Machine(name, fn, point=point or law)


def symbol_machine(name: str, sym: Callable, needs: Callable,
                   point: Callable = None) -> Machine:
    """Output symbol j is sym(w, j), emitted once len(w) >= needs(j),
    within the evaluation budget.  Its point action, if any, is given."""
    def fn(w):
        L = len(w)
        cap = _emit_budget(L)
        out = []
        j = 0
        while j < cap and needs(j) <= L:
            out.append(sym(w, j))
            j += 1
        return tuple(out)
    return Machine(name, fn, point=point)


# diagnostics ---------------------------------------------------------------

def audit_monotone(m: Machine, point: Point, lengths) -> bool:
    """Check eval(v) is a prefix of eval(w) along a chain of prefixes of point."""
    prev = None
    for n in sorted(lengths):
        cur = m.eval(PointView(point, n))
        if prev is not None:
            if tuple(cur[: len(prev)]) != tuple(prev):
                return False
        prev = cur
    return True
