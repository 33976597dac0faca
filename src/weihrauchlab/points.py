"""Finitely presented points of Baire space.

A Point is a total map from naturals to naturals given by one of a few
closed constructors: eventually periodic streams, interleaved pairs,
row tuples over the global pairing, characteristic streams of decidable
trees (see spaces), and law-backed streams used internally for oracle
names.  Structural predicates (zero search, progression tests, row
extraction, normalization) are decided from the presentation, never by
unbounded scanning.  Where a name's zeros or nonzeros stand is one walk,
the census ("zero", None) | ("one", pos) | ("many", first_pos) of either
kind, composed from its parts' censuses: zero_census answers min_zero
and exists_zero (LPO), nonzero_census answers LLPO's domain and value,
and all_zero_on_progression reads the nonzero census of a subsample.
Rows are read through one layer: row_length(s), gather_rows, and the
period walk row_period / period_row.  row, row_period and depair (or
half) take any point: a pair is read through its normal form, and one
that does not normalize has no rows; pairing_row reads such a pair's
rows through the pairing instead, as row reads a value law's.
A row-tupled word of length n is gathered by the plan for n: its row
lengths and one C-level pick (picker) from the rows laid end to end to
pairing order, kept per process up to DECODE_BOUND (gather_words).
A point's first n symbols, symbols(n), are read in bulk wherever the
constructor allows: an eventually periodic stream from its head and cycle,
a row tuple or a row law through gather_rows, and a pair by filling its
even slots from its first part's symbols and its odd slots from its
second's, so a pair of rows, or of pairs, rides its parts' bulk reads.

Points are immutable, and a check asks the same few structural questions
of the same names many times over: the domain test of every oracle
branch, the value set, and each row of a tupled name.  So the facts of
an EvPeriodic, Interleave or RowTuple are computed once per point and
kept in its declared facts slot, which stays None until a fact is first
asked for: the census of each kind, row_period, subsample(p, a, b), a
pair's normal form (normalize; a pair without one asks again), and the
compact or dyadic that spaces decodes from a name (through fact).  The slot
is a declared attribute: a census kept through the instance's __dict__
instead made the suite's lpo-only checks about a fifth slower.  A
computation that raises stores nothing, so it raises again when asked
again.  LawPoint keeps its own memo of values and rows.  pulse hands out
one shared point per position, so a pulse's facts are computed once per
process, however many rows or images hold it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, partial
from itertools import (accumulate, chain, compress, count, cycle, islice,
                       takewhile)
from operator import itemgetter
from typing import Callable, Iterator, Optional

from .errors import UnsupportedShape

Word = tuple  # finite sequence of naturals


# ---------------------------------------------------------------------------
# pairing

def pair_encode(n: int, k: int) -> int:
    """Cantor pairing: the single bijection shared by points, machines and problems."""
    s = n + k
    return s * (s + 1) // 2 + k


# pair_decode's table: the first diagonals s < 94, 4,465 entries, cover the
# 4,422-symbol emit budget of a machine evaluated on 64 input symbols.  Two
# tuples of small ints, not one of pairs: 4,465 long-lived pair objects
# raised the resident memory of a checking process by about 1 MB.
DECODE_DIAGONALS = 94
_ROW = tuple(s - k for s in range(DECODE_DIAGONALS) for k in range(s + 1))
_COL = tuple(k for s in range(DECODE_DIAGONALS) for k in range(s + 1))
DECODE_BOUND = len(_ROW)


def pair_decode(j: int) -> tuple:
    if 0 <= j < DECODE_BOUND:
        return _ROW[j], _COL[j]
    s = (math.isqrt(8 * j + 1) - 1) // 2
    k = j - s * (s + 1) // 2
    return s - k, k


def row_length(L: int, n: int) -> int:
    """The number of k with pair_encode(n, k) < L.  <n,k> = s(s+1)/2 + k
    with s = n + k grows with k, and <n,k> < L iff s(s+3) < 2(L + n)."""
    s = (math.isqrt(8 * (L + n) + 1) - 3) // 2
    return max(0, s - n + 1)


def row_lengths(L: int) -> list:
    """The lengths of the nonempty rows of a word of length L, by row."""
    return list(takewhile(bool, map(partial(row_length, L), count())))


def picker(indices: tuple) -> Callable:
    """w -> tuple(w[i] for i in indices), as one C-level itemgetter: one
    index still picks a 1-tuple, and no index the empty word."""
    if len(indices) > 1:
        return itemgetter(*indices)
    return lambda w: tuple(w[i] for i in indices)


_PLANS: dict = {}   # n -> _plan(n), for n <= DECODE_BOUND


def _plan(n: int) -> tuple:
    """(row_lengths(n), pick): pick takes the n symbols of a word laid out
    by rows, row r's first row_length(n, r) after row r - 1's, to the same
    symbols in pairing order, code <r,k> sitting at row r's offset plus k.
    A pure function of n, so kept per process up to DECODE_BOUND, like the
    decode table, and built per call above it."""
    plan = _PLANS.get(n)
    if plan is None:
        lengths = row_lengths(n)
        offsets = tuple(accumulate(lengths, initial=0))
        codes = zip(_ROW, _COL)
        if n > DECODE_BOUND:
            codes = chain(codes, map(pair_decode, range(DECODE_BOUND, n)))
        plan = lengths, picker(tuple(offsets[r] + k
                                     for r, k in islice(codes, n)))
        if n <= DECODE_BOUND:
            _PLANS[n] = plan
    return plan


def gather_words(rows, n: int) -> tuple:
    """The first n symbols, in pairing order, of the word whose row r
    starts with the r-th tuple or list of the iterable rows: each holds
    at least its row_length(n, r) symbols, and rows is read no further
    than the last row holding one of the n."""
    lengths, pick = _plan(n)
    flat = []
    for m, w in zip(lengths, rows):
        flat += w[:m]
    return pick(flat)


def gather_rows(row_at: Callable, n: int) -> list:
    """The first n symbols of the row-tupled word whose row r is the point
    row_at(r): each distinct row point holding one of them is read once,
    through its own symbols, and the rows are gathered in pairing order
    by gather_words.  Row lengths do not increase, so a row point's first
    read is its longest, and a later row that is the same object is read
    from it."""
    read: dict = {}     # id -> (row point, its symbols); the point kept alive

    def symbols(r):
        pt = row_at(r)
        got = read.get(id(pt))
        if got is None:
            got = read[id(pt)] = pt, tuple(pt.symbols(row_length(n, r)))
        return got[1]
    return list(gather_words(map(symbols, count()), n))


def first_nonzero(w) -> Optional[int]:
    """The index of the first nonzero symbol of the word w, None when all
    its symbols are zero (symbols are naturals: nonzero is truthy)."""
    return next(compress(count(), w), None)


# ---------------------------------------------------------------------------
# the pulse encoding: a lone 1 at an even position names 1, at an odd
# position names 0, and no 1 leaves the bit open (LLPO and ternary names)

def pulse_bit(pos: int) -> int:
    """The bit a lone 1 at pos names."""
    return 1 - pos % 2


def pulse_position(start: int, bit: int) -> int:
    """The first position at or after start whose pulse names bit."""
    return start if pulse_bit(start) == bit else start + 1


@cache
def pulse(pos: int) -> EvPeriodic:
    """The name with a single 1, at pos: one shared point per position."""
    return EvPeriodic((0,) * pos + (1,), (0,))


# ---------------------------------------------------------------------------
# point constructors

class Point:
    """Base class; subclasses implement value_at."""

    def value_at(self, i: int) -> int:
        raise NotImplementedError

    def symbols(self, n: int) -> Iterator:
        """The first n symbols, in order."""
        return map(self.value_at, range(n))

    def prefix(self, n: int) -> Word:
        return tuple(self.symbols(n))


@dataclass(frozen=True)
class EvPeriodic(Point):
    head: Word
    period: Word
    _facts: Optional[dict] = field(default=None, init=False, compare=False,
                                   repr=False)

    def __post_init__(self):
        if len(self.period) == 0:
            raise ValueError("period must be nonempty")
        object.__setattr__(self, "head", tuple(self.head))
        object.__setattr__(self, "period", tuple(self.period))

    def value_at(self, i: int) -> int:
        if i < len(self.head):
            return self.head[i]
        return self.period[(i - len(self.head)) % len(self.period)]

    def symbols(self, n: int) -> Iterator:
        return islice(chain(self.head, cycle(self.period)), n)


@dataclass(frozen=True)
class Interleave(Point):
    first: Point
    second: Point
    _facts: Optional[dict] = field(default=None, init=False, compare=False,
                                   repr=False)

    def value_at(self, i: int) -> int:
        if i % 2 == 0:
            return self.first.value_at(i // 2)
        return self.second.value_at(i // 2)

    def symbols(self, n: int) -> list:
        """Each part read in bulk, through its own symbols, into its slots."""
        out = [0] * n
        out[0::2] = self.first.symbols((n + 1) // 2)
        out[1::2] = self.second.symbols(n // 2)
        return out


class RowTuple(Point):
    """Finite exception rows over a default row, addressed via the pairing."""

    def __init__(self, rows: dict, default: Point):
        self.rows = dict(rows)
        self.default = default
        self._facts: Optional[dict] = None

    def row(self, n: int) -> Point:
        return self.rows.get(n, self.default)

    def value_at(self, i: int) -> int:
        n, k = pair_decode(i)
        return self.row(n).value_at(k)

    def symbols(self, n: int) -> list:
        return gather_rows(self.row, n)

    def __eq__(self, other):
        return (
            isinstance(other, RowTuple)
            and self.rows == other.rows
            and self.default == other.default
        )

    def __repr__(self):
        return f"RowTuple(rows={self.rows!r}, default={self.default!r})"


class LawPoint(Point):
    """Internal: a total stream given by a law, with values memoized.

    Only named constructions with a provable tail discipline build these
    (oracle behaviors, blocking streams, characteristic points).  They
    answer value_at/prefix, and row extraction when given by a row law;
    every other structural query is refused.  A LawPoint is given by
    exactly one law: a value law fn or a row law row_fn.
    """

    def __init__(self, fn: Optional[Callable] = None,
                 row_fn: Optional[Callable] = None, label: str = "law"):
        if (fn is None) == (row_fn is None):
            raise ValueError("LawPoint takes a value law or a row law")
        self._fn = fn
        self._row_fn = row_fn
        self._row_cache: dict = {}
        self._cache: dict = {}
        self.label = label

    def law_row(self, n: int) -> Point:
        if self._row_fn is None:
            raise UnsupportedShape(f"{self.label}: no row law")
        if n not in self._row_cache:
            self._row_cache[n] = self._row_fn(n)
        return self._row_cache[n]

    def value_at(self, i: int) -> int:
        v = self._cache.get(i)
        if v is None:
            if self._fn is not None:
                v = self._fn(i)
            else:
                n, k = pair_decode(i)
                v = self.law_row(n).value_at(k)
            self._cache[i] = v
        return v

    def symbols(self, n: int) -> Iterator:
        """A row law is read by rows."""
        if self._row_fn is None:
            return super().symbols(n)
        return gather_rows(self.law_row, n)

    def __repr__(self):
        return f"LawPoint({self.label})"


# ---------------------------------------------------------------------------
# core operations

def value_at(p: Point, i: int) -> int:
    return p.value_at(i)


def prefix(p: Point, n: int) -> Word:
    return p.prefix(n)


def const_point(c: int) -> EvPeriodic:
    return EvPeriodic((), (c,))


ZEROS = const_point(0)
ONES = const_point(1)


_FACTFUL = (EvPeriodic, Interleave, RowTuple)   # the points with a facts slot


def fact(p: Point, key, compute: Callable):
    """The fact key of p: compute(p), computed once and kept in p's facts
    slot when p has one.  A computation that raises stores nothing."""
    if not isinstance(p, _FACTFUL):
        return compute(p)
    facts = p._facts
    if facts is None:
        facts = {}
        object.__setattr__(p, "_facts", facts)   # the dataclasses are frozen
    got = facts.get(key)
    if got is None:
        got = facts[key] = compute(p)
    return got


def subsample(p: Point, a: int, b: int) -> EvPeriodic:
    """The stream n -> p(a*n + b) of a normalizable point, as EvPeriodic;
    computed once per point and progression."""
    return fact(p, (a, b), partial(_subsample, a=a, b=b))


def _subsample(p: Point, a: int, b: int) -> EvPeriodic:
    """Indices beyond the head cycle mod the period with cycle length at most
    the period length, so head + one cycle determines the result."""
    q = normalize(p)
    if q is None:
        raise UnsupportedShape("subsample needs a normalizable point")
    h, m = len(q.head), len(q.period)
    lead = 0
    while a * lead + b < h:
        lead += 1
    cycle = m // math.gcd(a, m)
    head = tuple(q.value_at(a * n + b) for n in range(lead))
    period = tuple(q.value_at(a * (lead + t) + b) for t in range(cycle))
    return EvPeriodic(head, period)


def row(p: Point, n: int) -> Point:
    """The n-th row of p under the global pairing; a pair's is read off
    its normal form."""
    if isinstance(p, RowTuple):
        return p.row(n)
    if isinstance(p, Interleave):
        p = _pair_normal_form(p)
    if isinstance(p, EvPeriodic):
        # k -> encode(n,k) is quadratic; mod the period length it cycles with
        # period 2*|period|, so the row is EvPeriodic with that period.
        h, m = len(p.head), len(p.period)
        lead = row_length(h, n)
        head = tuple(p.value_at(pair_encode(n, k)) for k in range(lead))
        period = tuple(p.value_at(pair_encode(n, lead + t)) for t in range(2 * m))
        return EvPeriodic(head, period)
    if isinstance(p, LawPoint):
        if p._row_fn is not None:
            return p.law_row(n)
        return _pairing_law_row(p, n, p.label)
    raise UnsupportedShape(f"row extraction on {type(p).__name__}")


def pairing_row(p: Point, n: int) -> Point:
    """Row n of p; a pair that does not normalize, which has no rows,
    has its row read through the pairing."""
    if isinstance(p, Interleave) and normalize(p) is None:
        return _pairing_law_row(p, n, "pair")
    return row(p, n)


def _pairing_law_row(p: Point, n: int, label: str) -> LawPoint:
    return LawPoint(fn=lambda k: p.value_at(pair_encode(n, k)),
                    label=f"{label}[row {n}]")


def _pair_normal_form(p: Interleave) -> EvPeriodic:
    """The normal form through which a pair's rows are read."""
    q = normalize(p)
    if q is None:
        raise UnsupportedShape("row read of a pair that does not normalize")
    return q


def row_form(p: Point, n: int) -> Optional[Point]:
    """Row n of p when p's presentation holds its rows, a row tuple's
    row or a law's row law; None otherwise.  Normalizing a pair or
    re-presenting a periodic stream's row costs more than reading a
    short row through the pairing, so those are not row forms here."""
    if isinstance(p, RowTuple):
        return p.row(n)
    if isinstance(p, LawPoint) and p._row_fn is not None:
        return p.law_row(n)
    return None


def row_period(p: Point) -> tuple:
    """(head, tail), two tuples: p's rows as its first n_star = len(head)
    rows, by index, and the cycle of rows that every row n >= n_star
    repeats, row n being tail[(n - n_star) % len(tail)].  A row tuple's
    head runs to its last exception row and its tail is its default; a
    periodic stream's head runs to the last row starting inside its head,
    and its rows repeat with period twice its period's length (see row).
    Computed once per point."""
    return fact(p, "row_period", _row_period)


def _row_period(p: Point) -> tuple:
    if isinstance(p, RowTuple):
        return tuple(map(p.row, range(max(p.rows, default=-1) + 1))), (p.default,)
    if isinstance(p, Interleave):
        return row_period(_pair_normal_form(p))
    if isinstance(p, EvPeriodic):
        n_star = len(row_lengths(len(p.head)))   # the rows starting in the head
        rows = tuple(row(p, n) for n in range(n_star + 2 * len(p.period)))
        return rows[:n_star], rows[n_star:]
    raise UnsupportedShape(f"row period of {type(p).__name__}")


def period_row(period: tuple, n: int) -> Point:
    """Row n of a point, read from its row_period (head, tail)."""
    head, tail = period
    return head[n] if n < len(head) else tail[(n - len(head)) % len(tail)]


def half(p: Point, par: int) -> Point:
    """Component par (0 or 1) of a pair name: a part of an Interleave, an
    exact half of a normalizable point, and a law otherwise."""
    if isinstance(p, Interleave):
        return p.second if par else p.first
    if normalize(p) is not None:
        return subsample(p, 2, par)
    label = getattr(p, "label", type(p).__name__)
    return LawPoint(fn=lambda i: p.value_at(2 * i + par),
                    label=f"{label}.{('fst', 'snd')[par]}")


def depair(p: Point) -> tuple:
    """Split a pair name into its two components."""
    return half(p, 0), half(p, 1)


def point_map(p: Point, f: Callable) -> Point:
    """Apply a symbol map pointwise; exact on EvPeriodic, law-backed otherwise."""
    if isinstance(p, EvPeriodic):
        return EvPeriodic(tuple(f(x) for x in p.head), tuple(f(x) for x in p.period))
    return LawPoint(fn=lambda i: f(p.value_at(i)), label="mapped")


def point_prepend(sym: int, p: Point) -> Point:
    if isinstance(p, EvPeriodic):
        return EvPeriodic((sym,) + p.head, p.period)
    return LawPoint(fn=lambda i: sym if i == 0 else p.value_at(i - 1),
                    label="prepended")


def point_drop(p: Point) -> Point:
    """p without its first symbol; exact on normalizable points."""
    if normalize(p) is not None:
        return subsample(p, 1, 1)
    return LawPoint(fn=lambda i: p.value_at(i + 1), label="dropped")


def normalize(p: Point):
    """Eventually periodic normal form, or None; a pair keeps its own."""
    if isinstance(p, EvPeriodic):
        return p
    if isinstance(p, Interleave):
        return fact(p, "normal", _normalize_pair)
    if isinstance(p, RowTuple):
        return _normalize_rowtuple(p)
    return None


def _normalize_pair(p: Interleave):
    a = normalize(p.first)
    b = normalize(p.second)
    if a is None or b is None:
        return None
    h = max(len(a.head), len(b.head))
    la, lb = len(a.period), len(b.period)
    lcm = la * lb // math.gcd(la, lb)
    w = p.prefix(2 * (h + lcm))
    return EvPeriodic(w[:2 * h], w[2 * h:])


def _eventually_constant(q: EvPeriodic):
    vals = set(q.period)
    if len(vals) != 1:
        return None
    c = q.period[0]
    # length of the true pre-period against the constant c
    k = len(q.head)
    while k > 0 and q.head[k - 1] == c:
        k -= 1
    return c, k


def _normalize_rowtuple(p: RowTuple):
    nd = normalize(p.default)
    if nd is None:
        return None
    ec = _eventually_constant(nd)
    if ec is None or ec[1] != 0:
        # a non-constant default hits every residue class infinitely often,
        # in conflict with the exception rows' residues: not periodic
        return None
    c = ec[0]
    bound = 0
    for n, r in p.rows.items():
        nr = normalize(r)
        if nr is None:
            return None
        ecr = _eventually_constant(nr)
        if ecr is None or ecr[0] != c:
            return None
        if ecr[1] > 0:
            bound = max(bound, pair_encode(n, ecr[1] - 1) + 1)
    return EvPeriodic(p.prefix(bound), (c,))


# ---------------------------------------------------------------------------
# structural predicates

def _default_row(p: RowTuple) -> int:
    """The least row index at which p's default stands."""
    return next(n for n in count() if n not in p.rows)


def scan_bound(p: Point) -> int:
    """A prefix length provably containing the least zero / least nonzero, if any."""
    if isinstance(p, EvPeriodic):
        return len(p.head) + len(p.period)
    if isinstance(p, Interleave):
        return 2 * max(scan_bound(p.first), scan_bound(p.second)) + 2
    if isinstance(p, RowTuple):
        bound = pair_encode(_default_row(p), scan_bound(p.default)) + 1
        for n, r in p.rows.items():
            bound = max(bound, pair_encode(n, scan_bound(r)) + 1)
        return bound
    raise UnsupportedShape(f"no structural bound for {type(p).__name__}")


def zero_census(p: Point) -> tuple:
    """The census of p's zeros (see nonzero_census), once per point."""
    return fact(p, "zeros", _zero_census)


def nonzero_census(p: Point) -> tuple:
    """("zero", None) | ("one", pos) | ("many", first_pos): how many
    nonzeros p has and where the first stands; decided structurally,
    once per point."""
    return fact(p, "nonzeros", _nonzero_census)


def _census(p: Point, zeros: bool) -> tuple:
    """The census of p's zeros (zeros) or nonzeros, composed from its
    parts' censuses of the same kind."""
    if isinstance(p, EvPeriodic):
        # the head and one period: a hit in the period recurs forever
        hits = [i for i, v in enumerate(chain(p.head, p.period))
                if (v == 0) == zeros]
        if not hits:
            return "zero", None
        one = len(hits) == 1 and hits[0] < len(p.head)
        return ("one" if one else "many"), hits[0]
    of = zero_census if zeros else nonzero_census
    if isinstance(p, Interleave):
        hits = []
        for par, part in enumerate((p.first, p.second)):
            kind, pos = of(part)
            if pos is not None:
                hits.append((kind, 2 * pos + par))
        return _merged(hits)
    if isinstance(p, RowTuple):
        pos = of(p.default)[1]
        # the default stands in infinitely many rows
        hits = [] if pos is None else [("many", pair_encode(_default_row(p), pos))]
        for n, r in p.rows.items():
            kind, pos = of(r)
            if pos is not None:
                hits.append((kind, pair_encode(n, pos)))
        return _merged(hits)
    raise UnsupportedShape(
        f"{'zero' if zeros else 'nonzero'} census on {type(p).__name__}")


_zero_census = partial(_census, zeros=True)
_nonzero_census = partial(_census, zeros=False)


def _merged(hits: list) -> tuple:
    """The census of a point whose hits are those of disjoint parts, given
    as one (kind, first position) per part with a hit."""
    if not hits:
        return "zero", None
    if len(hits) == 1:
        return hits[0]
    return "many", min(pos for _, pos in hits)


def min_zero(p: Point) -> Optional[int]:
    return zero_census(p)[1]


def exists_zero(p: Point) -> bool:
    return zero_census(p)[0] != "zero"


def all_zero_on_progression(p: Point, a: int, b: int) -> bool:
    """True iff p(a*k + b) = 0 for every k >= 0: p's subsample has no
    nonzero."""
    if a < 1 or b < 0:
        raise ValueError("a progression needs step a >= 1 and offset b >= 0")
    return nonzero_census(subsample(p, a, b))[0] == "zero"
