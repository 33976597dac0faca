"""The row layer: row-tupled words are emitted by machines.emit_rows, read
through row_length and RowView, and a row point's distinct rows are listed
by points.row_period.  The machines below emitted their rows by hand
before; their hand-written word functions are kept here as references."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from references import comparable

from weihrauchlab.corpus import any_point, ev_periodic, rng_for
from weihrauchlab.machines import PointView, RowView, countable_tuple, identity
from weihrauchlab.points import (
    ONES,
    ZEROS,
    EvPeriodic,
    RowTuple,
    pair_decode,
    pair_encode,
    period_row,
    pulse_position,
    row,
    row_period,
)
from weihrauchlab.registry import named_witnesses
from weihrauchlab.spaces import (
    ClopenCompact,
    clopen_code_word,
    clopen_word_code,
    extensions,
    word_at,
    word_index,
)
from weihrauchlab.weakcomp import (
    CylinderBlocking,
    compact_blocking_machine,
    condenser_machine,
)
from weihrauchlab.wkl import (
    _covered_level,
    blocking_rows_machine,
    constraint_tree_machine,
)


# ---------------------------------------------------------------------------
# reference word functions: each decodes every output index itself

def reference_blocking_rows(w):
    L = len(w)
    ell = _covered_level(L)
    if ell < 0:
        return ()

    def member(v):
        return w[word_index(v)] == 1

    levels = [extensions((), n, member) if member(()) else []
              for n in range(ell + 1)]

    def blocked(wi, n):
        return all(not comparable(v, wi) for v in levels[n])

    q_cache: dict = {}

    def q_sym(r, j):
        if r not in q_cache:
            v = word_at(r)
            found = None
            for n in range(ell + 1):
                c0 = blocked(v + (0,), n)
                c1 = blocked(v + (1,), n)
                if c0 or c1:
                    found = (n, c0, c1)
                    break
            q_cache[r] = found
        found = q_cache[r]
        if found is None:
            return 0 if j <= 2 * ell + 1 else None
        n, c0, c1 = found
        if c0 and not c1:
            pos = 2 * n
        elif c1 and not c0:
            pos = 2 * n + 1
        else:
            pos = None
        return 1 if j == pos else 0

    out = []
    i = 0
    while i < L:
        r, j = pair_decode(i)
        s = q_sym(r, j)
        if s is None:
            break
        out.append(s)
        i += 1
    return tuple(out)


def reference_constraint_tree(w):
    L = len(w)

    def chi(v):
        n = len(v)
        for m in range(n):
            for k in range(n):
                idx = pair_encode(m, 2 * k + v[m])
                if idx >= L:
                    return None
                if w[idx] != 0:
                    return 0
        return 1

    out = []
    j = 0
    while j < L:
        s = chi(word_at(j))
        if s is None:
            break
        out.append(s)
        j += 1
    return tuple(out)


class Snapshots:
    """The snapshots of one code stream: one ClopenCompact per code
    arrival, as (ell, compact) with ell the codes read.  They are built
    as far as a length asks and kept for every longer one, so the words
    of one name at many lengths share each compact and its liveness
    memo.  A code that raises is read again, and raises again."""

    def __init__(self, code_stream):
        self.code_stream = code_stream
        self.read = 0
        self.excluded: set = set()
        self.taken: list = []

    def upto(self, length) -> list:
        while self.read < length:
            c = self.code_stream(self.read)
            if c != 0:
                self.excluded.add(clopen_code_word(c))
                self.taken.append((self.read + 1, ClopenCompact(self.excluded)))
            self.read += 1
        return [s for s in self.taken if s[0] <= length]


_LAST_NAME: dict = {}   # the point last read through a view, with its snapshots


def snapshots_of(w) -> Snapshots:
    """The snapshots of the word w's code stream: views of one point
    share those of the point last asked about; any other word has its own."""
    p = getattr(w, "point", None)
    if p is None:
        return Snapshots(w.__getitem__)
    if _LAST_NAME.get("point") is not p:
        _LAST_NAME.update(point=p, snapshots=Snapshots(p.value_at))
    return _LAST_NAME["snapshots"]


def snapshot_commits(snapshots: Snapshots, length):
    """The per-snapshot scan over the first length codes: row r commits at
    the first snapshot where a child of its word is not alive."""
    taken = snapshots.upto(length)
    commits: dict = {}

    def commit(r):
        if r not in commits:
            v = word_at(r)
            commits[r] = None
            for ell, compact in taken:
                b0 = not compact.alive(v + (0,))
                b1 = not compact.alive(v + (1,))
                if b0 or b1:
                    commits[r] = pulse_position(ell, 1 if b0 else 0)
                    break
        return commits[r]
    return commit


def reference_compact_blocking(w):
    L = len(w)
    commit = snapshot_commits(snapshots_of(w), L)

    def sym(r, j):
        pos = commit(r)
        if pos is None:
            return 0
        return 1 if j == pos else 0

    out = []
    i = 0
    while i < L:
        r, j = pair_decode(i)
        out.append(sym(r, j))
        i += 1
    return tuple(out)


def reference_condenser(w):
    L = len(w)
    firsts: dict = {}

    def first_nz(k, upto):
        best = firsts.get(k)
        if best is not None:
            return best
        t = 0
        while True:
            idx = pair_encode(k, t)
            if idx >= L or t > upto:
                return None
            if w[idx] != 0:
                firsts[k] = t
                return t
            t += 1

    out = []
    i = 0
    while i < L:
        k, j = pair_decode(i)
        t0 = first_nz(k, j)
        out.append(1 if t0 == j else 0)
        i += 1
    return tuple(out)


PAIRS = [
    (blocking_rows_machine, reference_blocking_rows),
    (constraint_tree_machine, reference_constraint_tree),
    (compact_blocking_machine, reference_compact_blocking),
    (condenser_machine, reference_condenser),
]


def outcome(fn, w):
    """fn(w), or the type of the exception it raises."""
    try:
        return tuple(fn(w))
    except Exception as exc:   # the same failure on both sides is agreement
        return type(exc)


@pytest.mark.parametrize("build,reference", PAIRS,
                         ids=[b.__name__ for b, _ in PAIRS])
def test_row_machines_as_their_references_on_small_words(build, reference):
    m = build()
    for n in range(9):
        for w in product((0, 1, 2), repeat=n):
            assert outcome(m.eval, w) == outcome(reference, w), w


WIDTHS = (*range(70), 100, 150)


@pytest.mark.parametrize("build,reference", PAIRS,
                         ids=[b.__name__ for b, _ in PAIRS])
def test_row_machines_as_their_references_on_registry_names(build, reference):
    m = build()
    for name, entry in sorted(named_witnesses().items()):
        for p in entry.corpus(rng_for(f"row-layer:{name}"), 4):
            for width in WIDTHS:
                w = PointView(p, width)
                assert outcome(m.eval, w) == outcome(reference, w), (name, p, width)


CODES = st.one_of(st.just(0), st.sampled_from(
    [clopen_word_code(w) for n in range(5) for w in product((0, 1), repeat=n)]))


@settings(max_examples=300, deadline=None)
@given(st.lists(CODES, max_size=24))
def test_cylinder_blocking_commits_as_the_snapshot_scan(codes):
    """Stage map and death against one ClopenCompact per code arrival, on
    streams of words up to length 4 with zeros and repeated codes."""
    blocking = CylinderBlocking(codes.__getitem__, len(codes))
    commit = snapshot_commits(Snapshots(codes.__getitem__), len(codes))
    for r in range(64):
        assert blocking.commit(r) == commit(r), r


# ---------------------------------------------------------------------------
# the row reader and the row-period walk

def test_row_view_iterates_a_row_tuple_row():
    """A row tuple's row read through a RowView over a PointView: the row
    point's symbols are a list, which __iter__ hands on as an iterator."""
    p = RowTuple({0: RowTuple({}, ZEROS)}, RowTuple({}, ONES))
    out = countable_tuple(identity()).eval(PointView(p, 10))
    assert out == tuple(p.value_at(i) for i in range(10))
    assert list(RowView(PointView(p, 10), 0)) == [0] * 4


def row_points():
    def periodic(seed):
        return ev_periodic(rng_for(f"period:{seed}"), max_head=30,
                           max_period=6)

    def rowtuple(seed):
        rng = rng_for(f"rows:{seed}")
        return RowTuple({rng.randrange(8): any_point(rng, 1)
                         for _ in range(rng.randrange(4))}, ev_periodic(rng))
    return st.integers(0, 10 ** 6).flatmap(
        lambda s: st.sampled_from([periodic(s), rowtuple(s)]))


@settings(max_examples=200, deadline=None)
@given(row_points())
def test_row_period_reproduces_every_row(p):
    period = row_period(p)
    head, tail = period
    n_star, cycle = len(head), len(tail)
    assert cycle >= 1
    for n in range(n_star + 3 * cycle):
        got = head[n] if n < n_star else tail[(n - n_star) % cycle]
        assert got.prefix(40) == row(p, n).prefix(40), n
        assert period_row(period, n) is got


def test_row_period_of_a_periodic_name():
    p = EvPeriodic((0, 1, 0, 0, 2), (0, 3))
    head, tail = row_period(p)
    assert len(head) == 3 and len(tail) == 4
    assert all(pair_encode(n, 0) < 5 for n in range(len(head)))
