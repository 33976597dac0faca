"""K is validated on the name's word, read once.

check evaluates each K on p.prefix(width) instead of on a PointView of p;
an index machine's eval picks its law's sources from the word, beside
its lazy view; and gather_rows reads a row point once however many rows
it stands for.
The PointView path and value_at, symbol by symbol, are the references.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from weihrauchlab.corpus import any_points, rng_for
from weihrauchlab.machines import LazyWord, PointView, index_machine, shift_l
from weihrauchlab.points import (
    DECODE_BOUND,
    ONES,
    EvPeriodic,
    RowTuple,
    gather_rows,
    pair_decode,
    prefix,
    pulse,
)
from weihrauchlab.problems import id_problem, llpo_problem, lpo_problem
from weihrauchlab.registry import corrupted_witnesses, named_witnesses
from weihrauchlab.witnesses import (
    VALIDATE_WIDTH,
    Witness,
    check,
    id_to_c,
    id_to_llpo_hat,
    parallel_absorb,
    parallel_extensive,
    parallel_idem,
    parallel_product,
    parallel_sum,
    reflexivity,
)

WIDTHS = (0, 1, 5, 16, 24, 64, 100)


def _registered():
    """(name, witness, four corpus names) for every registered witness and
    negative control, the names drawn as `suite` draws them at seed cli."""
    for name, entry in sorted(named_witnesses().items()):
        yield name, entry.build(), entry.corpus(rng_for(f"cli:{name}"), 4)
    for name, (w, corpus_fn) in sorted(corrupted_witnesses().items()):
        yield name, w, corpus_fn(rng_for(f"cli:{name}"), 4)


def test_registered_Ks_evaluate_a_word_as_its_point_view():
    for name, w, names in _registered():
        for p in names:
            for n in WIDTHS:
                assert w.K.eval(p.prefix(n)) == w.K.eval(PointView(p, n)), (
                    name, p, n)


def _index_machines():
    """Registered index machines: the hat witnesses' Ks and Hs, shift_l,
    and a law reading far back."""
    f = llpo_problem()
    down, up = parallel_idem(f)
    split, join = parallel_product(lpo_problem(), f)
    return [down.K, up.K, up.H, parallel_absorb(f)[0].K, split.K, join.K,
            join.H, parallel_extensive(f).K, parallel_sum(f, f).K, shift_l(),
            index_machine("rev-diag", lambda j: pair_decode(j)[1] * 3)]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_index_machines()),
       st.sampled_from(any_points(rng_for("index-eval"), 8)),
       st.integers(0, 120))
def test_index_machine_eval_is_its_view(m, p, n):
    """eval maps the law over the input; its view, read in full, emits
    the same word, on words and on views."""
    word = p.prefix(n)
    for w in (word, PointView(p, n), LazyWord(n, word.__getitem__)):
        assert m.eval(w) == tuple(m.view(w)) == tuple(
            word[m.src(j)] for j in range(len(m.view(w))))


def _repeating_row_points():
    """Row laws that hand back one row object for many rows: rediag's
    p for every row, RowTuple({}, p)'s default, and the cell guesses'
    constant and pulse rows."""
    f = llpo_problem()
    rediag = parallel_idem(f)[1].K
    guesses = (id_to_c().K, id_to_llpo_hat().K)
    return st.one_of(
        ROWS.map(rediag.point),
        ROWS.map(lambda q: RowTuple({}, q)),
        st.tuples(st.sampled_from(guesses), ROWS).map(
            lambda mq: mq[0].point(mq[1])),
    )


ROWS = st.builds(EvPeriodic, st.lists(st.integers(0, 3), max_size=6),
                 st.lists(st.integers(0, 3), min_size=1, max_size=3))
BOUNDARY = (0, 1, DECODE_BOUND - 1, DECODE_BOUND, DECODE_BOUND + 1, 5000)


@settings(max_examples=60, deadline=None)
@given(_repeating_row_points(), st.integers(0, 5000))
@example(RowTuple({}, EvPeriodic((1, 2), (3,))), DECODE_BOUND + 1)
@example(id_to_c().K.point(EvPeriodic((2,), (0, 1))), DECODE_BOUND)
def test_rows_shared_by_object_read_as_their_symbols(p, n):
    assert prefix(p, n) == tuple(map(p.value_at, range(n)))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=1, max_size=40),
       st.sampled_from(BOUNDARY) | st.integers(0, 5000))
def test_gather_rows_reads_each_row_object_once(pattern, n):
    """Row r is one of three row objects, chosen by pattern, in any order:
    the gathered word is the one read through value_at, and each object's
    symbols are listed once."""
    listed = []

    class Counted(EvPeriodic):
        def symbols(self, m):
            listed.append(self)
            return super().symbols(m)

    pool = tuple(Counted(q.head, q.period)
                 for q in (EvPeriodic((5,), (1, 2)), pulse(3), ONES))

    def row_at(r):
        return pool[pattern[r % len(pattern)]]

    want = [row_at(r).value_at(k) for r, k in map(pair_decode, range(n))]
    assert gather_rows(row_at, n) == want
    assert len(listed) == len(set(map(id, listed)))


def test_check_validates_K_on_exactly_the_window():
    """The mirror is compared with K's whole output on the first
    validate_width symbols of each name: a mirror wrong at the last of
    them is refused, one wrong only beyond them is not seen."""
    def wrong_at(i):
        def point(p):
            return EvPeriodic(tuple(p.prefix(i)) + (p.value_at(i) + 1,),
                              (0,))
        return point

    names = [EvPeriodic((), (0,)), EvPeriodic((3, 1), (2,))]
    base = reflexivity(id_problem())
    for i, status in ((VALIDATE_WIDTH - 1, "error"), (VALIDATE_WIDTH, "pass")):
        k = index_machine("id", lambda j: j, point=wrong_at(i))
        w = Witness(base.f, base.g, k, base.H, True)
        report = check(w, names, depth=4)
        assert {e.status for e in report.entries} == {status}, i
