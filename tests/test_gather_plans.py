"""Row-tupled words are gathered by a kept plan per length: gather_rows
and emit_rows lay their rows end to end and pick the word in pairing
order in one call, and an index machine's eval picks its sources the
same way.  The per-symbol gathers of references are the oracles."""

from hypothesis import example, given, settings
from hypothesis import strategies as st
from references import emit_rows_per_symbol, gather_rows_per_symbol

from weihrauchlab.machines import LazyWord, PointView, emit_rows, index_machine
from weihrauchlab.points import (
    DECODE_BOUND,
    ONES,
    EvPeriodic,
    _plan,
    gather_rows,
    pulse,
)

LENGTHS = (0, 1, 2, DECODE_BOUND - 1, DECODE_BOUND, DECODE_BOUND + 1, 5000)
POOL = (EvPeriodic((5,), (1, 2)), pulse(3), ONES, EvPeriodic((), (4, 0, 7)))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, len(POOL) - 1), min_size=1, max_size=40),
       st.booleans(), st.sampled_from(LENGTHS) | st.integers(0, 5000))
@example([0, 1, 2, 3], False, 0)
@example([0, 1, 2, 3], False, 1)
@example([2], True, DECODE_BOUND + 1)
def test_gather_rows_is_the_per_symbol_gather(pattern, distinct, n):
    """Rows chosen from a pool by pattern, shared by object or each its
    own object: the planned gather is the per-symbol word, a list."""
    fresh = {}

    def row_at(r):
        q = POOL[pattern[r % len(pattern)]]
        if not distinct:
            return q
        return fresh.setdefault(r, EvPeriodic(q.head, q.period))

    got = gather_rows(row_at, n)
    assert type(got) is list and got == gather_rows_per_symbol(row_at, n)


WORDS = st.lists(st.integers(0, 5), max_size=110).map(tuple)


@settings(max_examples=80, deadline=None)
@given(st.lists(WORDS, min_size=1, max_size=6),
       st.lists(st.integers(0, 5), min_size=1, max_size=40),
       st.booleans(),
       st.none() | st.sampled_from(LENGTHS) | st.integers(0, 5000))
@example([tuple(range(100))], [0], False, 5000)
@example([tuple(range(100))], [0], True, DECODE_BOUND + 1)
@example([()], [0], False, None)
@example([(3,)], [0], False, 2)
@example([(1, 2), ()], [0, 0, 1], True, None)
def test_emit_rows_is_the_per_symbol_emitter(words, pattern, distinct, bound):
    """Row words chosen by pattern, shared or each its own object, some
    shorter than their slot: the planned emitter gives the per-symbol
    word, a tuple, and computes the same rows in the same order."""
    def row_of(asked):
        def at(n):
            asked.append(n)
            w = words[pattern[n % len(pattern)] % len(words)]
            return list(w) if distinct else w
        return at

    planned, per_symbol = [], []
    got = emit_rows(row_of(planned), bound)
    assert type(got) is tuple
    assert got == emit_rows_per_symbol(row_of(per_symbol), bound)
    assert planned == per_symbol


def test_plans_are_kept_up_to_the_decode_bound():
    """A plan is one object per length while the decode table covers it,
    and built afresh above it."""
    assert _plan(DECODE_BOUND) is _plan(DECODE_BOUND)
    assert _plan(DECODE_BOUND + 1) is not _plan(DECODE_BOUND + 1)


def test_index_machine_eval_at_zero_one_and_two_symbols():
    """Zero, one and two emitted symbols are words, on a tuple and on
    views: one symbol is a 1-tuple, not the bare symbol."""
    m = index_machine("shift-2", lambda j: j + 2)
    p = EvPeriodic((7, 8, 9, 10), (0,))
    for L, emitted in ((2, 0), (3, 1), (4, 2)):
        word = p.prefix(L)
        want = tuple(word[m.src(j)] for j in range(emitted))
        for w in (word, PointView(p, L), LazyWord(L, word.__getitem__)):
            got = m.eval(w)
            assert type(got) is tuple and got == want, (L, w)
