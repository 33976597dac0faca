"""Multi-valued problems as semantic objects: a decidable domain test on
names plus a computable value-set description.  The discontinuous maps
(the omniscience principles, tree choice, compact choice) have no
computable realizer; they are evaluated structurally on finitely
presented names, and the value sets drive the witness checker's oracle
exploration.  Rows are read through RowView and points.row_period; the
row reads of points take any name.  The double hat is built from hat_problem.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Optional

from .errors import (
    CapacityExceeded,
    NonRepresentable,
    NotAName,
    OutOfDomain,
    UnsupportedShape,
)
from .machines import RowView
from .points import (
    EvPeriodic,
    Interleave,
    LawPoint,
    Point,
    depair,
    exists_zero,
    nonzero_census,
    pair_decode,
    pair_encode,
    pairing_row,
    point_prepend,
    pulse_bit,
    row,
    period_row,
    row_lengths,
    row_period,
    zero_census,
)
from .spaces import (
    ClopenCompact,
    Dyadic,
    decode_clopen,
    decode_dyadic,
    encode_nat,
)

BEHAVIOR_CAP = 2 ** 12


# ---------------------------------------------------------------------------
# value sets

class ValueSet:
    """A described set of output names, checkable against finite prefixes."""

    def check_prefix(self, w):
        """None if the prefix is consistent with some member, else the first
        coordinate at which it definitively leaves the set."""
        raise NotImplementedError

    def behaviors(self, depth: int, cap: int = BEHAVIOR_CAP) -> list:
        """Canonical representatives of every output distinguishable below depth."""
        raise NotImplementedError

    def explore(self, depth: int, cap: int, run: Callable,
                frontier: Optional[Frontier] = None) -> list:
        """(behavior index, use, run(r)) for each canonical behavior r below
        depth, in the order of behaviors(), where run(r) is an EvalOutcome
        (machines.run_on_point).  The use, the free coordinates a run read,
        is None: enumerated behaviors do not record reads.  No run is kept,
        in the frontier or in the outcomes, so each is freed as it ends."""
        out = []
        for bi, r in enumerate(self.behaviors(depth, cap)):
            result = run(r)
            result.run = None
            out.append((bi, None, result))
        return out

    def canonical(self) -> Point:
        """A member: the first behavior below depth 1.  A set that can
        have more than two there overrides this, which would exceed its
        cap of two.  An empty set has none: IndexError."""
        return self.behaviors(1, 2)[0]

    def members(self, cap: int = BEHAVIOR_CAP) -> list:
        """Exact finite member list, when one is finitely presentable."""
        raise NonRepresentable(f"{type(self).__name__} has no finite member list")

    def boxes(self) -> Optional[tuple]:
        """The coordinate boxes (CoordProductSets) whose union this set is,
        when it is a finite union of them; else None."""
        return None


@dataclass(frozen=True)
class FiniteNatsSet(ValueSet):
    values: frozenset

    def __init__(self, values: Iterable):
        object.__setattr__(self, "values", frozenset(values))

    def check_prefix(self, w):
        if len(w) >= 1 and w[0] not in self.values:
            return 0
        return None

    def behaviors(self, depth, cap=BEHAVIOR_CAP):
        return [encode_nat(v) for v in sorted(self.values)]

    def members(self, cap=BEHAVIOR_CAP):
        return self.behaviors(1, cap)


@dataclass
class SinglePointSet(ValueSet):
    point: Point

    def check_prefix(self, w):
        for i in range(len(w)):
            if w[i] != self.point.value_at(i):
                return i
        return None

    def behaviors(self, depth, cap=BEHAVIOR_CAP):
        return [self.point]

    def members(self, cap=BEHAVIOR_CAP):
        return [self.point]


class Branch:
    """One explored behavior of a coordinate product: it answers 1 at
    the free coordinates in ones and the canonical bit elsewhere (0 at
    the other free ones), so its answers take no depth.  log holds the
    free coordinates its run read, at any index, in first-read order (the
    branch point memoizes its answers, so each is read once); the run's
    use at a depth is the log below it.  A read that takes the count of
    logged coordinates below depth past most raises CapacityExceeded."""

    __slots__ = ("box", "ones", "depth", "most", "cap", "log", "below")

    def __init__(self, box: CoordProductSet, ones: frozenset, depth: int,
                 most: int, cap: int):
        self.box = box
        self.ones = ones
        self.depth = depth
        self.most = most
        self.cap = cap
        self.log = []
        self.below = 0          # logged coordinates below depth

    def _over(self) -> CapacityExceeded:
        return CapacityExceeded(
            f"a run reads {self.most + 1} free coordinates below depth "
            f"{self.depth}, beyond the behavior bound {self.cap}")

    def answer(self, i: int) -> int:
        bits = self.box.bits(i)
        if len(bits) != 2:
            return _least_bit(bits)
        if i < self.depth:
            if self.below >= self.most:
                raise self._over()
            self.below += 1
        self.log.append(i)
        return 1 if i in self.ones else 0

    def deepen(self, depth: int):
        """Count the log below a greater depth: a run already past the
        bound there raises now, as a fresh run would have at that read."""
        self.depth = depth
        self.below = sum(c < depth for c in self.log)
        if self.below > self.most:
            raise self._over()

    def use(self) -> tuple:
        if self.below == len(self.log):
            return tuple(self.log)
        depth = self.depth
        return tuple(c for c in self.log if c < depth)


class Frontier:
    """The explored branches of one name that a deeper check resumes:
    branches maps the set of free coordinates a branch sets to 1 to the
    Branch and its run (machines.Run), filled to depth.  resumed counts
    the runs the last explore given this frontier filled from it."""

    __slots__ = ("depth", "branches", "resumed")

    def __init__(self):
        self.depth = 0
        self.branches = {}
        self.resumed = 0


class CoordProductSet(ValueSet):
    """Product of per-coordinate allowed bit sets.

    bits_fn gives the allowed subset of {0,1} per coordinate.  When the
    sets are eventually periodic, period = (head, cycle) gives them as two
    tuples of bit sets, coordinate i allowing period_row(period, i); with
    singleton cycle sets the exact member list is enumerable.
    """

    def __init__(self, bits_fn: Callable, period: Optional[tuple] = None):
        self._bits_fn = bits_fn
        self._memo: dict = {}
        self.period = period

    def bits(self, i: int) -> frozenset:
        if i not in self._memo:
            self._memo[i] = frozenset(self._bits_fn(i))
        return self._memo[i]

    def check_prefix(self, w):
        for i in range(len(w)):
            if w[i] not in self.bits(i):
                return i
        return None

    def canonical_bit(self, i: int) -> int:
        return _least_bit(self.bits(i))

    def boxes(self):
        return (self,)

    def canonical(self) -> Point:
        return LawPoint(fn=self.canonical_bit, label="product-canonical")

    def _assignment_point(self, chosen: dict) -> Point:
        def fn(i, _c=dict(chosen)):
            return _c[i] if i in _c else self.canonical_bit(i)
        return LawPoint(fn=fn, label="product-branch")

    def behaviors(self, depth, cap=BEHAVIOR_CAP):
        free = [i for i in range(depth) if len(self.bits(i)) == 2]
        if 2 ** len(free) > cap:
            raise CapacityExceeded(
                f"{len(free)} free coordinates below depth {depth} exceed the "
                f"behavior bound {cap}")
        out = []
        for combo in itertools.product((0, 1), repeat=len(free)):
            chosen = dict(zip(free, combo))
            out.append(self._assignment_point(chosen))
        return out

    def explore(self, depth, cap, run, frontier=None):
        """Run on the behaviors below depth, forking a free coordinate only
        where a run reads it.

        Each run answers 1 at the free coordinates its branch sets and the
        canonical bit elsewhere (Branch); every free coordinate below depth
        that it reads undecided becomes a child run that keeps the earlier
        reads decided and sets that coordinate.  A run stands for every
        behavior that agrees with it on its reads, and its index is the
        least of them in the order of behaviors().  This needs a run whose
        reads depend only on the answers it got, so that a child repeats
        its parent's reads up to the flipped one.  A run that reads more
        than log2(cap) free coordinates below depth raises
        CapacityExceeded, so no read tree has more than cap leaves.

        run(r) is an EvalOutcome (machines.run_on_point), whose run
        (a machines.Run) reads on.  A branch's answers take no depth, so
        with a frontier (Frontier) kept at a smaller depth, a branch kept
        there is not run again: its run is filled on to depth, and only
        the branches that fork at coordinates this depth makes free run
        afresh.  The frontier then keeps this depth's branches whose runs
        resume.  A frontier kept at this depth or a greater one is left as
        it is, and every branch runs afresh.  The outcomes returned hold
        no run, so a run no frontier keeps is freed as it ends.
        """
        free = [i for i in range(depth) if len(self.bits(i)) == 2]
        # a free coordinate's bit in a behavior index; the first is the
        # most significant, as in behaviors()
        weight = {c: 1 << (len(free) - 1 - k) for k, c in enumerate(free)}
        most = cap.bit_length() - 1      # the largest n with 2^n <= cap
        keep = frontier is not None and depth > frontier.depth
        kept = frontier.branches if keep else {}
        branches = {}
        resumed = 0
        out = []
        # (index, the free coordinates set to 1, those decided)
        pending = [(0, frozenset(), frozenset())]
        while pending:
            index, ones, decided = pending.pop()
            branch, kept_run = kept.pop(ones, (None, None))
            if branch is None:
                branch = Branch(self, ones, depth, most, cap)
                result = run(LawPoint(fn=branch.answer, label="product-branch"))
            else:
                branch.deepen(depth)
                result = kept_run.fill(depth)
                resumed += 1
            use = branch.use()
            if keep and result.run.resumable:
                branches[ones] = branch, result.run
            result.run = None
            out.append((index, use, result))
            seen = set(decided)
            for c in use:
                if c not in seen:
                    seen.add(c)
                    pending.append((index + weight[c], ones | {c}, frozenset(seen)))
        if frontier is not None:
            frontier.resumed = resumed
            if keep:
                frontier.depth, frontier.branches = depth, branches
        out.sort(key=lambda entry: entry[0])
        return out

    def truncations(self, n: int, cap: int = BEHAVIOR_CAP) -> list:
        """All length-n words consistent with the product."""
        sets = [sorted(self.bits(i)) for i in range(n)]
        total = 1
        for s in sets:
            total *= len(s)
            if total > cap:
                raise CapacityExceeded(f"truncation count exceeds {cap}")
        return [tuple(c) for c in itertools.product(*sets)]

    def members(self, cap=BEHAVIOR_CAP):
        if self.period is None:
            raise NonRepresentable("product without a stabilized tail")
        head, cycle = self.period
        if any(len(bits) != 1 for bits in cycle):
            raise NonRepresentable("free tail: infinitely many members")
        tail = tuple(min(bits) for bits in cycle)
        return [EvPeriodic(word, tail) for word in self.truncations(len(head), cap)]


@dataclass
class ClopenSet(ValueSet):
    """Members of a clopen compact; consistency means avoiding every
    excluded cylinder."""

    compact: ClopenCompact

    def check_prefix(self, w):
        for i in range(len(w)):
            if w[i] not in (0, 1):
                return i
        # first index closing an excluded cylinder
        for e in sorted(self.compact.excluded, key=len):
            L = len(e)
            if L <= len(w) and tuple(w[:L]) == e:
                return L - 1
        return None

    def behaviors(self, depth, cap=BEHAVIOR_CAP):
        # below the depth every coordinate is free past the excluded depth d
        d = self.compact.depth()
        words = self.compact.admitted_words(d)
        free = max(depth - d, 0)
        if len(words) << free > cap:
            raise CapacityExceeded(f"{len(words) << free} surviving cylinders "
                                   f"exceed {cap}")
        return [EvPeriodic(w + tail, (0,)) for w in words
                for tail in itertools.product((0, 1), repeat=free)]

    def members(self, cap=BEHAVIOR_CAP):
        raise NonRepresentable("clopen compacts have infinitely many members")


@dataclass
class PairSet(ValueSet):
    first: ValueSet
    second: ValueSet

    def check_prefix(self, w):
        u = tuple(w[i] for i in range(0, len(w), 2))
        v = tuple(w[i] for i in range(1, len(w), 2))
        fails = []
        c = self.first.check_prefix(u)
        if c is not None:
            fails.append(2 * c)
        c = self.second.check_prefix(v)
        if c is not None:
            fails.append(2 * c + 1)
        return min(fails) if fails else None

    def behaviors(self, depth, cap=BEHAVIOR_CAP):
        half = (depth + 1) // 2
        lefts = self.first.behaviors(half, cap)
        rights = self.second.behaviors(half, cap)
        if len(lefts) * len(rights) > cap:
            raise CapacityExceeded("pair behavior product exceeds the bound")
        return [Interleave(a, b) for a in lefts for b in rights]

    def canonical(self) -> Point:
        return Interleave(self.first.canonical(), self.second.canonical())

    def members(self, cap=BEHAVIOR_CAP):
        ls = self.first.members(cap)
        rs = self.second.members(cap)
        if len(ls) * len(rs) > cap:
            raise CapacityExceeded("pair member product exceeds the bound")
        return [Interleave(a, b) for a in ls for b in rs]


@dataclass
class TaggedUnionSet(ValueSet):
    """Names n·p: tag 0 selects the first branch, any other tag the second."""

    zero: ValueSet
    other: ValueSet

    def check_prefix(self, w):
        if len(w) == 0:
            return None
        branch = self.zero if w[0] == 0 else self.other
        c = branch.check_prefix(tuple(w[1:]))
        return None if c is None else c + 1

    def behaviors(self, depth, cap=BEHAVIOR_CAP):
        out = [point_prepend(0, b) for b in self.zero.behaviors(max(depth - 1, 0), cap)]
        out += [point_prepend(1, b) for b in self.other.behaviors(max(depth - 1, 0), cap)]
        if len(out) > cap:
            raise CapacityExceeded("tagged union behaviors exceed the bound")
        return out

    def canonical(self) -> Point:
        """The first member: tag 0 before the zero branch's canonical, or,
        when that branch is empty, tag 1 before the other's."""
        try:
            return point_prepend(0, self.zero.canonical())
        except IndexError:      # an empty set has no canonical member
            return point_prepend(1, self.other.canonical())

    def members(self, cap=BEHAVIOR_CAP):
        out = [point_prepend(0, m) for m in self.zero.members(cap)]
        out += [point_prepend(1, m) for m in self.other.members(cap)]
        return out


class RowProductSet(ValueSet):
    """Row-tupled product: row n of a member is a name from row_vs(n)."""

    def __init__(self, row_vs: Callable):
        self._row_vs = row_vs
        self._memo: dict = {}

    def row_set(self, n: int) -> ValueSet:
        if n not in self._memo:
            self._memo[n] = self._row_vs(n)
        return self._memo[n]

    def check_prefix(self, w):
        fails = []
        for n in range(len(row_lengths(len(w)))):
            c = self.row_set(n).check_prefix(tuple(RowView(w, n)))
            if c is not None:
                fails.append(pair_encode(n, c))
        return min(fails) if fails else None

    def behaviors(self, depth, cap=BEHAVIOR_CAP):
        per_row = []
        total = 1
        for n, k in enumerate(row_lengths(depth)):
            bs = self.row_set(n).behaviors(k, cap)
            total *= len(bs)
            if total > cap:
                raise CapacityExceeded("row product behaviors exceed the bound")
            per_row.append(bs)

        out = []
        for combo in itertools.product(*per_row):
            chosen = dict(enumerate(combo))

            def row_fn(n, _c=chosen):
                if n in _c:
                    return _c[n]
                return self.row_set(n).canonical()

            out.append(LawPoint(row_fn=row_fn, label="rowprod-branch"))
        return out

    def canonical(self) -> Point:
        return LawPoint(row_fn=lambda n: self.row_set(n).canonical(),
                        label="rowprod-canonical")


@dataclass
class UnionSet(ValueSet):
    parts: tuple

    def __init__(self, parts: Iterable):
        self.parts = tuple(parts)

    def check_prefix(self, w):
        worst = -1
        for part in self.parts:
            c = part.check_prefix(w)
            if c is None:
                return None
            worst = max(worst, c)
        return worst if worst >= 0 else 0

    def behaviors(self, depth, cap=BEHAVIOR_CAP):
        out = []
        for part in self.parts:
            out.extend(part.behaviors(depth, cap))
            if len(out) > cap:
                raise CapacityExceeded("union behaviors exceed the bound")
        return out

    def canonical(self) -> Point:
        """The canonical member of the first nonempty part."""
        for part in self.parts:
            try:
                return part.canonical()
            except IndexError:  # an empty part has no canonical member
                pass
        raise IndexError("an empty union has no member")

    def members(self, cap=BEHAVIOR_CAP):
        out = []
        for part in self.parts:
            out.extend(part.members(cap))
            if len(out) > cap:
                raise CapacityExceeded(f"{len(out)} union members exceed {cap}")
        return out

    def boxes(self):
        parts = [part.boxes() for part in self.parts]
        if any(b is None for b in parts):
            return None
        return tuple(itertools.chain.from_iterable(parts))


@lru_cache(maxsize=None)
def _least_bit(bits: frozenset) -> int:
    """min(bits), kept per allowed set: the sets are few and shared
    (BIT_ANSWERS, BOTH_ANSWERS), so no value set holds a memo of its own."""
    return min(bits)


@lru_cache(maxsize=4096)
def _masks_of(allowed: tuple) -> dict:
    """Symbol -> the bit mask of the k whose allowed[k] holds it.  Shared
    between positions and names with the same allowed sets; never
    written to."""
    masks: dict = {}
    for k, bits in enumerate(allowed):
        for x in bits:
            masks[x] = masks.get(x, 0) | 1 << k
    return masks


class BoxMasks:
    """Which of a tuple of boxes allow each symbol at each output
    position: at(i) maps a symbol x to the bit mask of the boxes (bit k
    for boxes[k]) whose coordinate i allows x; a symbol it omits no box
    allows.  A position's masks are computed on first need, in order, and
    kept: they depend on the boxes alone, not on a depth or a source."""

    __slots__ = ("boxes", "full", "rows")

    def __init__(self, boxes: tuple):
        self.boxes = boxes
        self.full = (1 << len(boxes)) - 1
        self.rows = []

    def at(self, i: int) -> dict:
        rows = self.rows
        while len(rows) <= i:
            rows.append(_masks_of(tuple(box.bits(len(rows)) for box in self.boxes)))
        return rows[i]


def image_in_boxes(source: CoordProductSet, coords, masks: BoxMasks,
                   depth: int, cap: int) -> bool:
    """Whether the word (r(coords[0]), ..., r(coords[depth - 1])) lies in
    some box of masks for every behavior r of source below depth, a box
    holding a word when it allows each of its symbols: an H that copies
    by the index law src, coords[i] = src(i), maps every oracle answer
    into the union of boxes.

    r ranges over the behaviors explore runs on: free coordinates below
    depth take either bit, every other coordinate its canonical bit.  With
    src injective below depth the output positions choose independently,
    so one pass over them decides, its state the set of boxes that still
    hold the word read so far (a bit mask).  False means not proven: some
    behavior leaves every box, src repeats a coordinate below depth, or
    the states outgrow cap.  coords holds at least depth coordinates;
    the masks of a position are read from the kept BoxMasks, so a check
    at a new depth computes only the positions no earlier one reached.
    """
    if not masks.boxes or len(set(coords[:depth])) < depth:
        return False
    states = {masks.full}
    for i in range(depth):
        c = coords[i]
        if c < depth and len(source.bits(c)) == 2:
            bits = (0, 1)
        else:
            bits = (source.canonical_bit(c),)
        at = masks.at(i)
        states = {s & at.get(x, 0) for s in states for x in bits}
        if 0 in states or len(states) > cap:
            return False
    return True


# ---------------------------------------------------------------------------
# problems

def problem_name(key) -> str:
    """The display name of a problem key.  A key is a primitive's string,
    ("hat" | "hat^hat", k), ("product" | "sum", k1, k2), ("compose",
    outer, inner) over its parts' keys, or ("const", label, members)."""
    if isinstance(key, str):
        return key
    op, *parts = key
    if op == "const":
        return f"c_{parts[0]}"
    names = [problem_name(k) for k in parts]
    if op in ("hat", "hat^hat"):
        return f"{names[0]}_{op}"
    return "(" + {"product": "*", "sum": "+", "compose": "o"}[op].join(names) + ")"


@dataclass
class Problem:
    """A problem identified by its structural key: two problems are the
    same exactly when their keys are equal."""

    key: object
    in_domain: Callable
    value_set: Callable
    # a nat-valued problem's answer law: name -> frozenset of naturals
    answers: Optional[Callable] = None

    @property
    def name(self) -> str:
        return problem_name(self.key)

    def require(self, p: Point) -> ValueSet:
        if not self.in_domain(p):
            raise OutOfDomain(f"{self.name}: name outside the domain")
        return self.value_set(p)

    def __repr__(self):
        return f"Problem({self.name})"


def nat_problem(key, in_domain: Callable, answers: Callable) -> Problem:
    """A nat-valued problem given by its answer law.  An answer set of
    the bit problems has one value set, handed out for every name."""
    def value(p):
        a = answers(p)
        shared = BIT_VALUE_SETS.get(a)
        return FiniteNatsSet(a) if shared is None else shared

    return Problem(key, in_domain, value, answers)


def _lpo_dom(p: Point) -> bool:
    try:
        zero_census(p)      # the census lpo_value reads
        return True
    except UnsupportedShape:
        return False


# the answer sets of the bit problems (lpo, llpo, llpo_real and compact
# choice's coordinates), one object each for every name
BIT_ANSWERS = frozenset({0}), frozenset({1})
BOTH_ANSWERS = frozenset({0, 1})
# their value sets, one object each: a value set keeps no per-name state
BIT_VALUE_SETS = {a: FiniteNatsSet(a) for a in (*BIT_ANSWERS, BOTH_ANSWERS)}


def lpo_value(p: Point) -> frozenset:
    return BIT_ANSWERS[0 if exists_zero(p) else 1]


def lpo_problem() -> Problem:
    return nat_problem("lpo", _lpo_dom, lpo_value)


def llpo_value(p: Point) -> frozenset:
    kind, pos = nonzero_census(p)
    if kind == "many":
        raise OutOfDomain(f"two nonzero entries (first at {pos})")
    if kind == "zero":
        return BOTH_ANSWERS
    return BIT_ANSWERS[pulse_bit(pos)]


def _llpo_dom(p: Point) -> bool:
    try:
        return nonzero_census(p)[0] != "many"
    except UnsupportedShape:
        return False


def llpo_problem() -> Problem:
    return nat_problem("llpo", _llpo_dom, llpo_value)


# parallelization --------------------------------------------------------

LAW_DOMAIN_WINDOW = 32


def hat_problem(f: Problem) -> Problem:
    """The parallelization of f: row n of a name is an f-instance.

    A nat-valued f answers in one flat stream whose coordinate n answers
    row n; any other f answers row-tupled, row n a name from f's values.
    """
    def dom(p):
        try:
            if isinstance(p, LawPoint):
                # bounded validation on law-backed names; construction carries the tail
                rows = (row(p, n) for n in range(LAW_DOMAIN_WINDOW))
            else:
                # a row tuple's head repeats its default row: test each
                # row object once (the dict keeps each one alive)
                rows = {id(r): r for r in itertools.chain(*row_period(p))}.values()
            return all(f.in_domain(r) for r in rows)
        except UnsupportedShape:
            return False

    def value(p):
        if f.answers is None:
            return RowProductSet(lambda n: f.value_set(row(p, n)))

        try:
            head, tail = row_period(p)
        except UnsupportedShape:
            return CoordProductSet(lambda n: f.answers(row(p, n)))
        period = (tuple(map(f.answers, head)),
                  _shortest_cycle(tuple(map(f.answers, tail))))
        return CoordProductSet(lambda n: period_row(period, n), period)

    return Problem(("hat", f.key), dom, value)


def _shortest_cycle(cycle: tuple) -> tuple:
    """The shortest prefix of cycle whose repetition is cycle."""
    n = len(cycle)
    return next(cycle[:d] for d in range(1, n + 1)
                if n % d == 0 and cycle == cycle[:d] * (n // d))


def c_problem() -> Problem:
    """Parallelized LPO: bit n says whether row n contains a zero."""
    return hat_problem(lpo_problem())


def llpo_hat_problem() -> Problem:
    return hat_problem(llpo_problem())


def llpo_hat_value(p: Point) -> CoordProductSet:
    return llpo_hat_problem().value_set(p)


# compact choice ------------------------------------------------------------

COMPACT_DEPTH_CAP = 12


def _product_shape(k: ClopenCompact):
    """Forced coordinates when the compact is a coordinate-wise product."""
    by_len: dict = {}
    for w in k.excluded:
        by_len.setdefault(len(w), set()).add(w)
    forced = {}
    for L, words in by_len.items():
        bits = {w[-1] for w in words}
        if len(bits) != 1:
            return None
        bad = bits.pop()
        expect = {p + (bad,) for p in itertools.product((0, 1), repeat=L - 1)}
        if words != expect:
            return None
        forced[L - 1] = 1 - bad
    return forced


def compact_choice_value(k: ClopenCompact) -> ValueSet:
    forced = _product_shape(k)
    if forced is not None:
        head = tuple(BIT_ANSWERS[forced[i]] if i in forced else BOTH_ANSWERS
                     for i in range(max(forced, default=-1) + 1))
        period = (head, (BOTH_ANSWERS,))
        return CoordProductSet(lambda i: period_row(period, i), period)
    if k.depth() > COMPACT_DEPTH_CAP:
        raise CapacityExceeded(
            f"mixed compact beyond excluded-depth {COMPACT_DEPTH_CAP}")
    return ClopenSet(k)


def compact_choice_problem() -> Problem:
    def dom(p):
        try:
            return not decode_clopen(p).is_empty()
        except NotAName:
            return False

    def value(p):
        return compact_choice_value(decode_clopen(p))

    return Problem("compact_choice", dom, value)


# real-number LLPO on dyadics ------------------------------------------------

def llpo_real_value(x: Dyadic) -> frozenset:
    s = x.sign()
    if s < 0:
        return BIT_ANSWERS[0]
    if s > 0:
        return BIT_ANSWERS[1]
    return BOTH_ANSWERS


def llpo_real_problem() -> Problem:
    def dom(p):
        try:
            decode_dyadic(p)
            return True
        except NotAName:
            return False

    return nat_problem("llpo_real", dom,
                       lambda p: llpo_real_value(decode_dyadic(p)))


# constant problems and the bottom object -----------------------------------

def const_problem(points: Iterable, label: str = "A") -> Problem:
    """The constant problem of a finite point set: every name's answers
    are the points, a union of single points."""
    pts = tuple(points)
    if not pts:
        return bottom_problem()
    return Problem(("const", label, pts), lambda p: True,
                   lambda p: UnionSet(map(SinglePointSet, pts)))


def bottom_problem() -> Problem:
    """The distinguished object with an empty realizer set: the empty union."""
    return Problem("bottom", lambda p: True, lambda p: UnionSet(()))


def id_problem() -> Problem:
    return Problem("id", lambda p: True, lambda p: SinglePointSet(p))


# problem algebra ------------------------------------------------------------

def product_problem(f: Problem, g: Problem) -> Problem:
    def dom(p):
        a, b = depair(p)
        return f.in_domain(a) and g.in_domain(b)

    def value(p):
        a, b = depair(p)
        return PairSet(f.value_set(a), g.value_set(b))

    return Problem(("product", f.key, g.key), dom, value)


def sum_problem(f: Problem, g: Problem) -> Problem:
    def dom(p):
        a, b = depair(p)
        return f.in_domain(a) and g.in_domain(b)

    def value(p):
        a, b = depair(p)
        return TaggedUnionSet(f.value_set(a), g.value_set(b))

    return Problem(("sum", f.key, g.key), dom, value)


def flatten(p: Point) -> LawPoint:
    """The name whose row <j,k> is row k of row j of p: a hat^hat
    instance read as a hat instance.  A pair without rows, at either
    level, is read through the pairing, so the name is total on pairs."""
    def row_of(jk):
        j, k = pair_decode(jk)
        return pairing_row(pairing_row(p, j), k)
    return LawPoint(row_fn=row_of, label="flatten")


def double_hat_problem(f: Problem) -> Problem:
    """The hat of the hat of f, answered flat: a name's domain is that of
    hat(hat(f)), and its answers are hat(f)'s on the flattened name,
    instance (j, k) answered at coordinate <j,k>."""
    fh = hat_problem(f)
    return Problem(("hat^hat", f.key), hat_problem(fh).in_domain,
                   lambda p: fh.value_set(flatten(p)))


def compose_problems(outer: Problem, inner: Problem) -> Problem:
    """Multi-valued composition on the finitely enumerable fragment."""
    def member_names(p):
        return inner.value_set(p).members()

    def dom(p):
        if not inner.in_domain(p):
            return False
        try:
            ms = member_names(p)
        except (NonRepresentable, CapacityExceeded):
            return False
        return all(outer.in_domain(m) for m in ms)

    def value(p):
        return UnionSet([outer.value_set(m) for m in member_names(p)])

    return Problem(("compose", outer.key, inner.key), dom, value)

