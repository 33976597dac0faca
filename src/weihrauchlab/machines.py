"""Monotone word machines: the effective layer.

A Machine is a pure function from a finite input prefix to a finite output
prefix, monotone under the prefix order.  The stream function it induces
reads its input on demand: run_on_point reads depth symbols of a
machine's output over an unbounded view of the point, and its fuel counts
the input symbols that read.  Evaluation receives prefix *views* (length
plus indexing), which lets machines with sparse access patterns run on
very long prefixes of lazily evaluated points without materializing them.

Evaluation is demand-driven.  Each primitive defines its output once, as
a view: a length known from the input's length alone, and an indexer.
identity's view is its input and the projections' are stride views (a
word's are its slices); the others (diag, and the index and symbol
machines, const_machine, inject and shift_l among them) are LazyWords,
whose symbols are computed on first read and memoized with the view.
eval is that view materialized, but for an index machine, whose eval
maps its law over the input.  The combinators pass views along:
compose hands the outer machine the inner stage's view, pair_machine
and tensor interleave the views of their parts, and tag_case, the
copairing of a tagged union, hands the branch its tag selects the rest
of the input as a view.  So a composite
computes only the inner symbols its outer stages read.  A symbol no
stage reads is never computed, and an exception computing it would raise
does not surface; this is the composed stream function's own semantics.
A row machine (row_machine) says its output by rows: row j is the point
row_of(read, j), read reading the input by index.  Its eval builds each
row it emits once and gathers the rows in pairing order, its view keeps
the rows it built, and its point action is the same row law over the
point, so machine and mirror share one expression.
emit_rows is the one emitter of a word given by its row words.
The schedules of index, symbol and row machines, src(j) and needs(j), do
not depend on the input, so each such machine caches its emitted length
(an index machine, the sources it emits) per input length, and a caller
that needs a length or a single symbol reads the view instead of eval
(the swap search does).  A row machine's length is found row by row
(row_emit_length), a symbol machine's code by code.
identity, the index machines and composes of them carry their index law
as src, which lets the checker decide a copying H without running it on
every oracle behavior.  A shuffle is said once: an index machine given
its row law or its point action instead of src reads src off that
action's image of the index stream i -> i.
A RowView computes its length in closed form and, over a prefix of a
point that holds its rows, reads that row point directly instead of
going through the pairing.

A view over an unbounded input has no length (View.length is None), and
neither has any view built on it: index machine j is then one read of
src(j).  Every machine is its view: eval is the view read in full, but
for the index and row machines, whose eval gathers faster.  Searches that
emit their symbols in order (stream_machine) pull them as they are read,
and over a finite word they end at their first read past it.  A rule
machine (row_rule_machine) is a monotone rule over its input's prefixes,
read by index or by rows: eval applies it to the word, and over an
unbounded input its view applies it once to the prefix whose length
need(n) gives the n symbols asked for, reading what the rule reads and
each row it reads in full once, in bulk (ReadView.read_row counts a row
by its extent).  A Machine given by its fn alone is such a rule.  The
ternary and NAND realizers, the swap machines of weakcomp, the condenser
and the blocking machines are rules; the compact encoder and the
constraint tree are streams.  A first-hit search (search_machine) is a
stream said by a hit rule and a law: it emits law(None), paced by its
reads, up to the first hit h, then law(h), and its point action is the
law at the hit found on the point.  The K searches of
llpo_to_llpo_real, llpo_real_to_llpo and lpo_from_discontinuity are
such searches.

A machine may also carry its point action: a function from a finitely
presented point to a finitely presented point whose prefixes the machine
emits.  Every combinator builds it from the point actions of its parts;
a primitive whose action is structural (a guess, a split of rows, the
compact encoder) is given its action by hand, and the checker validates
either kind against eval.  Where machine and action are one expression,
a row machine or an index machine that reads its src off its action,
that validation cannot disagree: a wrong shuffle is refused by the value
sets instead.  A search machine's action shares its law, so validation
tests only where found puts the hit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import count, islice, takewhile
from typing import Callable, Iterator, Optional

from .errors import Stalled
from .points import (
    Interleave,
    LawPoint,
    Point,
    RowTuple,
    Word,
    depair,
    gather_rows,
    pair_decode,
    pair_encode,
    point_drop,
    point_prepend,
    row,
    row_form,
    row_length,
)

# input symbols a run may read before it has emitted its depth
DEFAULT_FUEL = 10 ** 6


# ---------------------------------------------------------------------------
# prefix views

class View:
    """A word read by index.  length is None when the view is unbounded:
    it has no len(), and only a machine that reads on demand takes one."""

    __slots__ = ("length",)

    def __len__(self):
        if self.length is None:
            raise TypeError("an unbounded view has no length")
        return self.length

    def __bool__(self):
        return self.length != 0


def extent(w) -> Optional[int]:
    """len(w), or None when w is an unbounded view."""
    return w.length if isinstance(w, View) else len(w)


class PointView(View):
    """Length-bounded view of a point's prefix; values computed on demand."""

    __slots__ = ("point",)

    def __init__(self, point: Point, length: int):
        self.point = point
        self.length = length

    def __getitem__(self, i):
        if i < 0 or i >= self.length:
            raise IndexError(i)
        return self.point.value_at(i)


class ReadView(View):
    """The whole of a point, unbounded, counting the input symbols read:
    each distinct coordinate once, whether a flat read or a row read
    (read_row) touched it.  A read that would take the count past fuel
    raises Stalled."""

    __slots__ = ("point", "fuel", "rows", "seen", "reads")

    def __init__(self, point: Point, fuel: int = DEFAULT_FUEL):
        self.length = None
        self.point = point
        self.fuel = fuel
        self.rows = {}          # row n -> e: its symbols k < e count as read
        self.seen = set()       # the other coordinates read
        self.reads = 0          # the distinct coordinates counted

    def _stall(self):
        raise Stalled(f"a run reads more than {self.fuel} input symbols")

    def _in_rows(self, i) -> bool:
        n, k = pair_decode(i)
        return k < self.rows.get(n, 0)

    def __getitem__(self, i):
        if i < 0:
            raise IndexError(i)
        if i not in self.seen and not (self.rows and self._in_rows(i)):
            if self.reads >= self.fuel:
                self._stall()
            self.seen.add(i)
            self.reads += 1
        return self.point.value_at(i)

    def read_row(self, n: int, m: int) -> Word:
        """Symbols k < m of row n, read in bulk: from the point's row when
        it holds its rows (points.row_form), else at <n,k>.  The row's
        symbols are counted as read by their extent, not one by one."""
        e = self.rows.get(n, 0)
        if m > e:
            # below e the row's extent has counted them
            seen = self.seen
            dup = (seen.intersection(map(partial(pair_encode, n), range(e, m)))
                   if seen else ())
            new = m - e - len(dup)
            if self.reads + new > self.fuel:
                self._stall()
            seen.difference_update(dup)
            self.rows[n] = m
            self.reads += new
        rp = row_form(self.point, n)
        if rp is not None:
            return tuple(rp.symbols(m))
        at = self.point.value_at
        return tuple(at(pair_encode(n, k)) for k in range(m))


class PrefixView(View):
    """The first length symbols of an unbounded view, read through it."""

    __slots__ = ("base",)

    def __init__(self, base, length: int):
        self.base = base
        self.length = length

    def __getitem__(self, i):
        if i < 0 or i >= self.length:
            raise IndexError(i)
        return self.base[i]


class StrideView(View):
    """Every stride-th symbol starting at offset (component of a pair)."""

    __slots__ = ("base", "stride", "offset")

    def __init__(self, base, stride: int, offset: int):
        self.base = base
        self.stride = stride
        self.offset = offset
        n = extent(base)
        self.length = (None if n is None else
                       0 if n <= offset else (n - offset + stride - 1) // stride)

    def __getitem__(self, i):
        if i < 0 or (self.length is not None and i >= self.length):
            raise IndexError(i)
        return self.base[self.offset + self.stride * i]


class RowView(View):
    """The n-th row of a tupled word under the global pairing.

    Its length, the number of k with <n,k> below the base's length, is
    computed in closed form.  Over a PointView whose point holds its rows
    (points.row_form), symbol k is read from that row point directly;
    every other base is read at <n,k>.  Read in full over a prefix of a
    ReadView, the row is one bulk read (ReadView.read_row)."""

    __slots__ = ("base", "n", "row_point")

    def __init__(self, base, n: int):
        self.base = base
        self.n = n
        L = extent(base)
        self.length = None if L is None else row_length(L, n)
        self.row_point = (row_form(base.point, n) if isinstance(base, PointView)
                          else None)

    def __getitem__(self, k):
        if k < 0 or (self.length is not None and k >= self.length):
            raise IndexError(k)
        if self.row_point is not None:
            return self.row_point.value_at(k)
        return self.base[pair_encode(self.n, k)]

    def __iter__(self):
        if self.row_point is not None:
            return iter(self.row_point.symbols(self.length))
        base, n = self.base, self.n
        if isinstance(base, PrefixView) and isinstance(base.base, ReadView):
            return iter(base.base.read_row(n, self.length))
        return (base[pair_encode(n, k)] for k in range(self.length))


class LazyWord(View):
    """A machine's output as a view: symbol i is at(i), computed on its
    first read and memoized; the memo is freed with the view."""

    __slots__ = ("at", "memo")

    def __init__(self, length: Optional[int], at: Callable):
        self.length = length
        self.at = at
        self.memo = {}

    def __getitem__(self, i):
        v = self.memo.get(i)
        if v is None:
            if i < 0 or (self.length is not None and i >= self.length):
                raise IndexError(i)
            v = self.memo[i] = self.at(i)
        return v

    def __iter__(self):
        # read in full from the start, each symbol is computed once anyway
        return map(self.__getitem__ if self.memo else self.at, range(self.length))


class Stream(View):
    """An unbounded output read in order: the symbols found so far are
    kept in memo, and fill(n) finds them up to n or raises Stalled,
    keeping those it found.  A fill to n that memo already covers reads
    nothing, so a kept stream serves every shorter read from memo."""

    __slots__ = ("memo",)

    def __getitem__(self, i):
        if i < 0:
            raise IndexError(i)
        if i >= len(self.memo):
            self.fill(i + 1)
        return self.memo[i]


class Search(Stream):
    """The symbols an iterator yields, pulled as they are read.  An
    iterator that ends has stalled: its machine waits on its input
    forever."""

    __slots__ = ("symbols",)

    def __init__(self, symbols: Iterator):
        self.length = None
        self.symbols = symbols
        self.memo = []

    def fill(self, n: int):
        memo = self.memo
        if len(memo) >= n:
            return
        memo.extend(islice(self.symbols, n - len(memo)))
        if len(memo) < n:
            raise Stalled(f"no output symbol {len(memo)} on any input read")


class RowRule(Stream):
    """The output of a rule (row_rule_machine) on an unbounded view:
    fill(n) applies the rule once, to the view's prefix of length need(n)
    (n when need is None), reading what the rule reads.  An output still
    short of n doubles the length and the rule runs again, up to the
    view's fuel (DEFAULT_FUEL over a view that is not a ReadView); past it
    the run stalls."""

    __slots__ = ("rule", "w", "need", "bound")

    def __init__(self, rule: Callable, w, need: Optional[Callable]):
        self.length = None
        self.rule = rule
        self.w = w
        self.need = need or (lambda n: n)
        self.bound = w.fuel if isinstance(w, ReadView) else DEFAULT_FUEL
        self.memo = ()

    def fill(self, n: int):
        if len(self.memo) >= n:
            return
        L = self.need(n)
        while True:
            out = self.rule(PrefixView(self.w, L))
            # the rule is monotone: a longer input extends the output
            if len(out) > len(self.memo):
                self.memo = out
            if len(self.memo) >= n:
                return
            if L >= self.bound:
                raise Stalled(f"no output symbol {len(self.memo)} on "
                              f"{L} input symbols")
            L = min(2 * L, self.bound)


def first_half(w):
    return w[0::2] if isinstance(w, tuple) else StrideView(w, 2, 0)


def second_half(w):
    return w[1::2] if isinstance(w, tuple) else StrideView(w, 2, 1)


def interleave(a, b) -> LazyWord:
    """The view alternating a and b, as long as both parts allow: an
    unbounded part allows every symbol."""
    la, lb = extent(a), extent(b)
    ends = ([] if la is None else [2 * la]) + ([] if lb is None else [2 * lb + 1])
    return LazyWord(min(ends, default=None),
                    lambda i: b[i // 2] if i % 2 else a[i // 2])


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


# ---------------------------------------------------------------------------
# machines

@dataclass
class Machine:
    name: str
    fn: Callable
    point: Optional[Callable] = None
    # input view -> output view; eval is the view read in full.  Each
    # constructor defines its own fn, so that profiles and traces attribute
    # each evaluation to it by fn's qualified name, and the index and row
    # machines gather their eval faster than their views.  A machine given
    # by fn alone is the rule fn over its input's prefixes (row_rule_machine).
    view: Optional[Callable] = None
    # the index law: output symbol j is input symbol src(j), on every input
    src: Optional[Callable] = None

    def __post_init__(self):
        if self.view is None:
            self.view = partial(_rule_output, self.fn, None)

    def eval(self, w) -> Word:
        return self.fn(w)

    def __repr__(self):
        return f"Machine({self.name})"


@dataclass
class EvalOutcome:
    output: Word
    productive: bool
    # the input symbols the run read
    width: int = 0
    # the run that gave it, which fill reads on to a greater depth
    run: Optional[Run] = field(default=None, repr=False, compare=False)


def output_stream(m: Machine, v: View) -> Stream:
    """m's output on the view v as a Stream, read in order, so that a
    stall keeps the symbols read before it and a later fill reads on from
    there.  A machine that stalls before it has a view raises Stalled."""
    view = m.view(v)
    return view if isinstance(view, Stream) else Search(map(view.__getitem__, count()))


class Run:
    """m's output on p, read in order over a ReadView of p that counts
    the input symbols read.  fill(depth) reads on from the symbols read
    so far, so a run filled to d and then to d' >= d reads what one run
    to d' reads.  A run that needs more than fuel input symbols before it
    has depth symbols stalls: it is not productive, its output is the
    symbols emitted before, and every deeper fill gives the same, reading
    nothing (a stall is final, and a Search over a view would skip the
    symbol whose read raised).  A fill that raises anything else leaves
    the run unusable."""

    __slots__ = ("view", "out", "stalled")

    def __init__(self, m: Machine, p: Point, fuel: int = None):
        self.view = ReadView(p, DEFAULT_FUEL if fuel is None else fuel)
        self.out = None
        self.stalled = False
        try:
            self.out = output_stream(m, self.view)
        except Stalled:
            self.stalled = True

    @property
    def resumable(self) -> bool:
        """Whether a later fill reads what a fresh run reads, in the same
        order: a Search pulls its symbols in order.  A RowRule applies
        its rule again to a longer prefix, so its reads may come in
        another order than a fresh run's."""
        return isinstance(self.out, Search)

    def symbols(self, depth: int):
        """The output symbols read so far, once read on to depth: fewer
        than depth when the run stalls, maybe more when it was filled
        deeper before."""
        if not self.stalled:
            try:
                self.out.fill(depth)
            except Stalled:
                self.stalled = True
        return () if self.out is None else self.out.memo

    def fill(self, depth: int) -> EvalOutcome:
        memo = self.symbols(depth)
        if self.stalled:
            return EvalOutcome(tuple(memo), False, self.view.reads, self)
        return EvalOutcome(tuple(memo[:depth]), True, self.view.reads, self)


def run_on_point(m: Machine, p: Point, depth: int, fuel: int = None) -> EvalOutcome:
    """Read depth symbols of m's output on p: a Run filled once."""
    return Run(m, p, fuel).fill(depth)


# primitives ----------------------------------------------------------------

def _lifted(action: Callable, *parts: Machine) -> Optional[Callable]:
    """A combinator's point action, or None when some part has none."""
    return None if any(m.point is None for m in parts) else action


def identity() -> Machine:
    def view(w):
        return w

    def fn(w):
        return tuple(view(w))
    return Machine("id", fn, point=lambda p: p, view=view, src=lambda j: j)


def proj1() -> Machine:
    def fn(w):
        return tuple(first_half(w))
    return Machine("pi1", fn, point=lambda p: depair(p)[0], view=first_half)


def proj2() -> Machine:
    def fn(w):
        return tuple(second_half(w))
    return Machine("pi2", fn, point=lambda p: depair(p)[1], view=second_half)


def diag() -> Machine:
    def view(w):
        n = extent(w)
        return LazyWord(None if n is None else 2 * n, lambda i: w[i // 2])

    def fn(w):
        return tuple(view(w))
    return Machine("D", fn, point=lambda p: Interleave(p, p), view=view)


def pair_machine(f: Machine, g: Machine) -> Machine:
    def view(w):
        return interleave(f.view(w), g.view(w))

    def fn(w):
        return tuple(view(w))
    return Machine(f"<{f.name},{g.name}>", fn,
                   point=_lifted(lambda p: Interleave(f.point(p), g.point(p)),
                                 f, g),
                   view=view)


def tensor(f: Machine, g: Machine) -> Machine:
    def point(p):
        a, b = depair(p)
        return Interleave(f.point(a), g.point(b))

    def view(w):
        return interleave(f.view(first_half(w)), g.view(second_half(w)))

    def fn(w):
        return tuple(view(w))
    return Machine(f"({f.name}x{g.name})", fn, point=_lifted(point, f, g),
                   view=view)


def compose(outer: Machine, inner: Machine) -> Machine:
    """outer after inner; outer reads inner's output through its view."""
    def view(w):
        return outer.view(inner.view(w))

    def fn(w):
        return outer.eval(inner.view(w))
    src = (None if outer.src is None or inner.src is None
           else lambda j: inner.src(outer.src(j)))
    return Machine(f"{outer.name}.{inner.name}", fn,
                   point=_lifted(lambda p: outer.point(inner.point(p)),
                                 outer, inner),
                   view=view, src=src)


def compose_all(*ms: Machine) -> Machine:
    m = ms[0]
    for nxt in ms[1:]:
        m = compose(m, nxt)
    return m


def tag_case(zero: Machine, other: Machine) -> Machine:
    """Copairing for a tagged union: read the tag, symbol 0, then run zero
    (tag 0) or other (any other tag) on the rest of the input."""
    def view(w):
        if extent(w) == 0:
            return ()
        branch = zero if w[0] == 0 else other
        return branch.view(StrideView(w, 1, 1))

    def fn(w):
        return tuple(view(w))
    return Machine(f"case({zero.name}|{other.name})", fn, view=view)


def countable_tuple(m: Machine) -> Machine:
    """Row n of the output is m applied to row n of the input."""
    def fn(w):
        return emit_rows(lambda n: m.eval(RowView(w, n)))

    def view(w):
        if extent(w) is not None:
            return fn(w)
        rows: dict = {}

        def at(i):
            n, k = pair_decode(i)
            r = rows.get(n)
            if r is None:
                r = rows[n] = m.view(RowView(w, n))
            return r[k]
        return LazyWord(None, at)

    def point(p):
        if isinstance(p, RowTuple):
            return RowTuple({n: m.point(r) for n, r in p.rows.items()},
                            m.point(p.default))
        if isinstance(p, Interleave):
            row(p, 0)   # a pair that does not normalize has no rows: refuse now
        return LawPoint(row_fn=lambda n: m.point(row(p, n)), label="rowwise")

    return Machine(f"tuple({m.name})", fn, view=view, point=_lifted(point, m))


def _emit_budget(length: int) -> int:
    """Output budget per evaluation: enough to cover the pairing diagonal
    of the visible input, so tupled outputs are not starved by tupled
    inputs, while keeping every evaluation finite."""
    return max(64, (length + 2) * (length + 3))


def _emit_lengths(first_unready: Callable) -> Callable:
    """Input length L -> first_unready(L, cap), the least code below the
    budget cap whose symbol is not ready over L, cap when every one is: the
    closed prefix an input-independent schedule emits.  Cached per input
    length for the machine's lifetime; only lengths are kept.  An unbounded
    input (L None) has every symbol ready: the output is unbounded too."""
    lengths: dict = {}

    def length(L):
        if L is None:
            return None
        n = lengths.get(L)
        if n is None:
            n = lengths[L] = first_unready(L, _emit_budget(L))
        return n
    return length


def row_emit_length(needs: Callable, L: int, cap: int) -> int:
    """The least code below cap whose row r has needs(r) > L, else cap:
    readiness depends only on a code's row, and row r's codes start at
    <r,0> = r(r+1)/2, so it is <r,0> of the least unready row r."""
    r = start = 0
    while start < cap:
        if needs(r) > L:
            return start
        r += 1
        start += r
    return cap


def index_machine(name: str, src: Callable = None, rows: Callable = None,
                  point: Callable = None) -> Machine:
    """Output symbol j is input symbol src(j).  Over a finite input it
    emits the longest closed prefix within the evaluation budget, over an
    unbounded one every symbol, each a single read of src(j).  eval maps
    the law over its input, writing no memo; the view stays lazy, for
    composites and unbounded runs.

    A shuffle is said once: by its index law src, whose point action
    reads the input at src(i); by rows, which given the input point
    returns the row law of the output; or by its point action.  Given no
    src, the machine reads it off its action's image of the index stream
    i -> i: a shuffle only moves symbols, so that image's symbol j is
    src(j).  A src that is given is kept."""
    if point is None:
        if rows is not None:
            def point(p):
                return LawPoint(row_fn=rows(p), label=name)
        else:
            def point(p):
                return LawPoint(fn=lambda i: p.value_at(src(i)), label=name)
    if src is None:
        src = point(LawPoint(fn=lambda i: i, label="indices")).value_at
    sources: dict = {}      # input length L -> src(j) for each j emitted over L

    def gathered(L):
        at = sources.get(L)
        if at is None:
            at = sources[L] = tuple(takewhile(
                lambda s: s < L, map(src, range(_emit_budget(L)))))
        return at

    def view(w):
        L = extent(w)
        return LazyWord(None if L is None else len(gathered(L)),
                        lambda j: w[src(j)])

    def fn(w):
        return tuple(map(w.__getitem__, gathered(len(w))))

    return Machine(name, fn, point=point, view=view, src=src)


def symbol_machine(name: str, sym: Callable, needs: Callable,
                   point: Callable = None) -> Machine:
    """Output symbol j is sym(w, j), emitted once len(w) >= needs(j),
    within the evaluation budget; over an unbounded input every symbol is
    emitted.  Its point action, if any, is given."""
    length = _emit_lengths(
        lambda L, cap: next((j for j in range(cap) if needs(j) > L), cap))

    def view(w):
        return LazyWord(length(extent(w)), partial(sym, w))

    def fn(w):
        return tuple(view(w))
    return Machine(name, fn, point=point, view=view)


def row_machine(name: str, row_of: Callable, needs: Callable) -> Machine:
    """Output row j is the point row_of(read, j), where read reads the
    input by index; its symbols are emitted once len(w) >= needs(j),
    within the evaluation budget, and over an unbounded input every row
    is.  eval builds each row it emits once and gathers the rows in
    pairing order; a view builds a row on its first read and keeps it with
    the view.  The point action is the same row law over the point."""
    length = _emit_lengths(partial(row_emit_length, needs))

    def view(w):
        rows: dict = {}

        def at(i):
            j, k = pair_decode(i)
            r = rows.get(j)
            if r is None:
                r = rows[j] = row_of(w.__getitem__, j)
            return r.value_at(k)
        return LazyWord(length(extent(w)), at)

    def fn(w):
        return tuple(gather_rows(partial(row_of, w.__getitem__),
                                 length(extent(w))))

    def point(p):
        return LawPoint(row_fn=partial(row_of, p.value_at), label=name)

    return Machine(name, fn, point=point, view=view)


def _rule_output(rule: Callable, need: Optional[Callable], w):
    """The output of a rule over its input's prefixes on w: rule(w) on a
    word, a RowRule over an unbounded view."""
    return rule(w) if extent(w) is not None else RowRule(rule, w, need)


def row_rule_machine(name: str, rule: Callable, need: Callable = None,
                     point: Callable = None) -> Machine:
    """A machine given by a rule over its input's prefixes: on a word w its
    output is rule(w), and the rule is monotone under the prefix order.
    The rule reads w by index, or by rows through RowView.  eval applies
    it to the word; over an unbounded input the view is a RowRule, which
    applies it to the prefix of length need(n) (n by default) that gives n
    output symbols, and reads each row the rule reads in full once.  Its
    point action, if any, is given."""
    return Machine(name, rule, point=point,
                   view=partial(_rule_output, rule, need))


def stream_machine(name: str, symbols: Callable,
                   point: Callable = None) -> Machine:
    """A search that emits in order what the iterator symbols(w) yields,
    reading w as it goes: over a finite view it ends at its first read
    past the word, and eval is what it yielded before; over an unbounded
    one it is a Search, whose symbols are pulled as they are read.  Its
    point action, if any, is given."""
    def fn(w):
        out = []
        try:
            out.extend(symbols(w))
        except IndexError:      # a read past the word: the rest waits on input
            pass
        return tuple(out)

    def view(w):
        return fn(w) if extent(w) is not None else Search(symbols(w))
    return Machine(name, fn, point=point, view=view)


def search_machine(name: str, hit: Callable, law: Callable, paced: Callable,
                   found: Callable) -> Machine:
    """A first-hit search: it reads its input in order up to the first i
    with hit(i, w[i]) not None, emitting the first paced(n) symbols of
    law(None) once n symbols are read (paced is nondecreasing); after a
    hit h it emits law(h), each symbol t > i waiting for input t.  Its
    point action is law(found(p)): machine and mirror share one hit rule
    and one law."""
    def symbols(w):
        miss = law(None)
        emitted = 0
        for i in count():
            h = hit(i, w[i])
            if h is not None:
                break
            n = paced(i + 1)
            yield from map(miss.value_at, range(emitted, n))
            emitted = n
        out = law(h)
        for t in count(emitted):
            if t > i:
                w[t]
            yield out.value_at(t)
    return stream_machine(name, symbols, point=lambda p: law(found(p)))


def const_machine(q: Point, name: str = None) -> Machine:
    """The constant q, as long as the input read so far."""
    return symbol_machine(name or "const", lambda w, j: q.value_at(j),
                          lambda j: j + 1, point=lambda p: q)


def shift_l() -> Machine:
    return index_machine("L", point=point_drop)


def inject(sym: int) -> Machine:
    """Prepend sym: the tag of a tagged-union answer."""
    return symbol_machine(f"inject{sym}", lambda w, j: w[j - 1] if j else sym,
                          lambda j: j, point=lambda p: point_prepend(sym, p))
