import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from references import is_prefix

from weihrauchlab.errors import UnsupportedShape
from weihrauchlab.points import (
    DECODE_BOUND,
    EvPeriodic,
    Interleave,
    LawPoint,
    Point,
    RowTuple,
    _nonzero_census,
    _row_period,
    _subsample,
    _zero_census,
    all_zero_on_progression,
    depair,
    exists_zero,
    min_zero,
    nonzero_census,
    normalize,
    pair_decode,
    pair_encode,
    pairing_row,
    prefix,
    pulse,
    pulse_bit,
    pulse_position,
    row,
    row_period,
    scan_bound,
    subsample,
    value_at,
    zero_census,
)
from weihrauchlab.spaces import FinTree, TreeChar


def brute_points(seed, n):
    from weihrauchlab.corpus import any_points, rng_for
    return any_points(rng_for(seed), n)


def test_evperiodic_value_law():
    p = EvPeriodic((1,), (0,))
    assert p.value_at(0) == 1
    q = EvPeriodic((), (0, 1))
    assert q.value_at(5) == 1
    r = Interleave(EvPeriodic((), (0,)), EvPeriodic((), (1,)))
    assert r.value_at(7) == 1


def test_prefix_trivia():
    assert prefix(EvPeriodic((3,), (2,)), 0) == ()
    assert prefix(EvPeriodic((), (0,)), 3) == (0, 0, 0)
    p = RowTuple({}, EvPeriodic((), (7,)))
    assert prefix(p, 4) == (7, 7, 7, 7)


def test_prefix_coherence():
    for p in brute_points("prefix-coherence", 20):
        w = prefix(p, 64)
        for n in range(63):
            assert is_prefix(w[:n], w[: n + 1])
        for i in range(64):
            assert w[i] == value_at(p, i)


@given(st.integers(0, 1000), st.integers(0, 1000))
def test_pairing_bijection(n, k):
    assert pair_decode(pair_encode(n, k)) == (n, k)


def test_pairing_monotone():
    for n in range(30):
        for k in range(30):
            assert pair_encode(n + 1, k) > pair_encode(n, k)
            assert pair_encode(n, k + 1) > pair_encode(n, k)


@given(st.integers(0, 10 ** 6))
def test_pairing_surjective(j):
    n, k = pair_decode(j)
    assert pair_encode(n, k) == j


def test_decode_table_agrees_with_the_formula_across_its_bound():
    """Below DECODE_BOUND pair_decode reads its table, above it computes;
    both sides of the switch invert pair_encode and match the formula."""
    for j in range(2 * DECODE_BOUND + 1):
        s = (math.isqrt(8 * j + 1) - 1) // 2
        k = j - s * (s + 1) // 2
        assert pair_decode(j) == (s - k, k)
        assert pair_encode(*pair_decode(j)) == j


def test_row_stored_and_default():
    q = EvPeriodic((9,), (3,))
    d = EvPeriodic((), (1,))
    p = RowTuple({2: q}, d)
    assert row(p, 2) is q
    assert row(p, 9) is d


def test_row_evperiodic_bruteforce():
    p = EvPeriodic((), (0, 1))
    r = row(p, 0)
    assert isinstance(r, EvPeriodic)
    assert len(r.period) <= 2 * len(p.period)
    for k in range(1000):
        assert r.value_at(k) == p.value_at(pair_encode(0, k))


def test_row_correctness_grid():
    p = EvPeriodic((2, 0, 1), (1, 0, 3))
    for n in range(64):
        rn = row(p, n)
        for k in range(64):
            assert rn.value_at(k) == value_at(p, pair_encode(n, k))


PERIODIC = st.builds(EvPeriodic, st.lists(st.integers(0, 2), max_size=4),
                     st.lists(st.integers(0, 2), min_size=1, max_size=3))
PAIR_PARTS = st.one_of(PERIODIC, st.builds(Interleave, PERIODIC, PERIODIC))


@given(PAIR_PARTS, PAIR_PARTS, st.integers(0, 12))
def test_a_normalizable_pair_is_read_as_its_normal_form(a, b, n):
    """row, row_period and depair read a pair that normalizes as its
    normal form, which the pair keeps."""
    p = Interleave(a, b)
    q = normalize(Interleave(a, b))
    assert row(p, n) == row(q, n)
    assert row_period(p) == row_period(q)
    for got, want in zip(depair(p), depair(q)):
        assert prefix(got, 64) == prefix(want, 64)
    assert normalize(p) is normalize(p)


def test_a_pair_with_a_law_part_has_no_rows():
    p = Interleave(LawPoint(fn=lambda i: i % 2), EvPeriodic((), (1,)))
    with pytest.raises(UnsupportedShape):
        row(p, 0)
    with pytest.raises(UnsupportedShape):
        row_period(p)


def test_pairing_row_reads_a_pair_without_rows_through_the_pairing():
    law = Interleave(LawPoint(fn=lambda i: i % 2), EvPeriodic((), (1,)))
    normal = Interleave(EvPeriodic((2,), (0,)), EvPeriodic((), (1, 3)))
    for p in (law, normal):
        for n in range(5):
            want = tuple(p.value_at(pair_encode(n, k)) for k in range(12))
            assert prefix(pairing_row(p, n), 12) == want
    assert pairing_row(normal, 3) == row(normal, 3)


def test_normalize_alternation():
    p = Interleave(EvPeriodic((), (0,)), EvPeriodic((), (1,)))
    q = normalize(p)
    assert q == EvPeriodic((), (0, 1))


def test_normalize_identity():
    p = EvPeriodic((5,), (3,))
    assert normalize(p) is p


def test_normalize_lcm_bruteforce():
    p = Interleave(EvPeriodic((), (0, 1)), EvPeriodic((), (0, 1, 1)))
    q = normalize(p)
    assert len(q.period) == 12
    for i in range(200):
        assert q.value_at(i) == p.value_at(i)


def test_normalize_rowtuple_constant():
    p = RowTuple({1: EvPeriodic((3, 7), (7,))}, EvPeriodic((), (7,)))
    q = normalize(p)
    assert q is not None
    for i in range(1000):
        assert q.value_at(i) == p.value_at(i)


def test_normalize_rowtuple_refused():
    p = RowTuple({}, EvPeriodic((5,), (0,)))   # non-constant default
    assert normalize(p) is None


def test_normalize_preserves_extension():
    for p in brute_points("normalize-ext", 40):
        q = normalize(p)
        if q is None:
            continue
        for i in range(200):
            assert q.value_at(i) == p.value_at(i)


def test_exists_zero_examples():
    assert exists_zero(EvPeriodic((), (0,)))
    assert min_zero(EvPeriodic((), (0,))) == 0
    assert not exists_zero(EvPeriodic((), (1,)))
    assert min_zero(EvPeriodic((), (1,))) is None
    assert min_zero(EvPeriodic((1, 1, 0), (1,))) == 2


def test_min_zero_of_pairs_and_row_tuples():
    """The first zero and the zero count of a pair are merged from its
    halves at 2i and 2i + 1, and a row tuple's from its rows; a default
    with a zero stands in infinitely many rows."""
    ones = EvPeriodic((), (1,))
    pair = Interleave(EvPeriodic((1, 1, 0), (1,)), EvPeriodic((1, 0), (1,)))
    assert min_zero(pair) == 3 and zero_census(pair) == ("many", 3)
    lone = Interleave(ones, EvPeriodic((1, 0), (1,)))
    assert min_zero(lone) == 3 and zero_census(lone) == ("one", 3)
    assert min_zero(Interleave(ones, ones)) is None
    rows = RowTuple({2: EvPeriodic((1, 0), (1,))}, ones)
    assert min_zero(rows) == pair_encode(2, 1)
    assert zero_census(rows) == ("one", pair_encode(2, 1))
    defaulted = RowTuple({0: ones, 1: EvPeriodic((1, 1, 1, 0), (1,))},
                         EvPeriodic((1, 0), (1,)))
    assert min_zero(defaulted) == pair_encode(2, 1)
    assert zero_census(defaulted) == ("many", pair_encode(2, 1))
    assert not exists_zero(RowTuple({3: ones}, ones))


def test_exists_zero_agrees_with_scan():
    rng = random.Random("scan")
    for p in brute_points("zero-scan", 60):
        bound = scan_bound(p)
        w = prefix(p, bound)
        assert exists_zero(p) == (0 in w)
        if 0 in w:
            assert min_zero(p) == w.index(0)


def test_census_examples():
    assert nonzero_census(EvPeriodic((), (0,))) == ("zero", None)
    assert nonzero_census(EvPeriodic((0, 5), (0,))) == ("one", 1)
    assert nonzero_census(EvPeriodic((1, 1), (0,))) == ("many", 0)
    assert nonzero_census(EvPeriodic((), (0, 2)))[0] == "many"
    p = RowTuple({3: EvPeriodic((4,), (0,))}, EvPeriodic((), (0,)))
    assert nonzero_census(p) == ("one", pair_encode(3, 0))


def test_census_agrees_with_scan():
    for p in brute_points("census-scan", 60):
        kind, pos = nonzero_census(p)
        w = prefix(p, scan_bound(p) + 8)
        nz = [i for i, v in enumerate(w) if v != 0]
        if kind == "zero":
            assert not nz
        else:
            assert nz and nz[0] == pos


def test_census_of_a_row_tuple_finds_its_first_nonzero():
    """A row with many nonzeros may come after a row with an earlier one,
    in insertion order: the census's first position is still the least."""
    p = RowTuple({3: EvPeriodic((1, 1), (0,)), 0: EvPeriodic((0, 1, 1), (0,))},
                 EvPeriodic((), (0,)))
    assert nonzero_census(p) == ("many", 2)
    from weihrauchlab.problems import llpo_problem
    assert not llpo_problem().in_domain(p)


CENSUS_ROWS = st.builds(EvPeriodic, st.lists(st.integers(0, 1), max_size=5),
                        st.lists(st.integers(0, 1), min_size=1, max_size=2))
CENSUSES = pytest.mark.parametrize("census,zeros", [
    (nonzero_census, False), (zero_census, True)], ids=["nonzeros", "zeros"])


def _hits(p, zeros, n):
    """The positions below n where p's symbol is a zero (zeros) or not."""
    return [i for i in range(n) if (p.value_at(i) == 0) == zeros]


@CENSUSES
@given(st.dictionaries(st.integers(0, 6), CENSUS_ROWS, max_size=4),
       st.sampled_from([EvPeriodic((), (0,)), EvPeriodic((0, 0), (0,)),
                        EvPeriodic((0, 1), (0,)), EvPeriodic((), (0, 1)),
                        EvPeriodic((), (1,)), EvPeriodic((1, 0), (1,))]))
def test_census_of_row_tuples_agrees_with_a_scan(census, zeros, rows, default):
    """On row tuples the census's kind and first position are those of a
    scan of value_at: below scan_bound for the first hit, and below a
    bound that holds two periods of every row and two default rows for
    the count."""
    p = RowTuple(rows, default)
    kind, pos = census(p)
    reach = max(scan_bound(r) for r in [default, *rows.values()])
    wide = pair_encode(max(rows, default=0) + 2, 2 * reach) + 1
    hits = _hits(p, zeros, max(wide, scan_bound(p)))
    assert (kind == "zero") == (not hits)
    if hits:
        assert pos == hits[0] and hits[0] < scan_bound(p)
        assert kind == ("one" if len(hits) == 1 else "many")


@CENSUSES
@given(CENSUS_ROWS, CENSUS_ROWS)
def test_census_of_pairs_agrees_with_a_scan(census, zeros, first, second):
    """A pair's census is that of a scan over two periods of both halves."""
    p = Interleave(first, second)
    kind, pos = census(p)
    hits = _hits(p, zeros, 2 * scan_bound(p))
    assert (kind, pos) == (("zero", None) if not hits else
                           ("one" if len(hits) == 1 else "many", hits[0]))


def test_progression_examples():
    assert all_zero_on_progression(EvPeriodic((), (0,)), 2, 0)
    assert not all_zero_on_progression(EvPeriodic((0, 1), (0,)), 2, 1)
    assert all_zero_on_progression(EvPeriodic((), (0, 1)), 2, 0)


def test_progression_agrees_with_scan():
    from weihrauchlab.corpus import ev_periodic, rng_for
    rng = rng_for("progression")
    for _ in range(60):
        p = ev_periodic(rng)
        a = rng.randrange(1, 4)
        b = rng.randrange(4)
        got = all_zero_on_progression(p, a, b)
        want = all(p.value_at(a * k + b) == 0 for k in range(600))
        assert got == want


def test_progression_refuses_a_negative_offset_or_a_step_below_one():
    """p(-1) is no symbol of p: a negative offset is refused, not read as
    the head's last symbol."""
    p = EvPeriodic((1,), (0,))
    for a, b in [(1, -1), (2, -3), (0, 0)]:
        with pytest.raises(ValueError):
            all_zero_on_progression(p, a, b)


def test_progression_refused_on_rowtuple():
    p = RowTuple({1: EvPeriodic((1,), (0,))}, EvPeriodic((5,), (0,)))
    with pytest.raises(UnsupportedShape):
        all_zero_on_progression(p, 2, 0)


def test_depair_roundtrip():
    a, b = EvPeriodic((1,), (2,)), EvPeriodic((), (0, 3))
    p = Interleave(a, b)
    x, y = depair(p)
    assert x is a and y is b
    q = normalize(p)
    x2, y2 = depair(q)
    for i in range(100):
        assert x2.value_at(i) == a.value_at(i)
        assert y2.value_at(i) == b.value_at(i)


def test_depair_splits_row_tuples_and_tree_names():
    """Any point splits into its even and its odd symbols."""
    tree = FinTree(2, {(), (0,), (1,), (0, 1)}, (EvPeriodic((0, 1), (0,)),))
    names = [
        RowTuple({1: EvPeriodic((2,), (1,))}, EvPeriodic((0, 3), (1,))),
        RowTuple({2: EvPeriodic((0, 5), (0,))}, EvPeriodic((), (0,))),
        TreeChar(tree),
    ]
    for p in names:
        a, b = depair(p)
        for i in range(256):
            assert a.value_at(i) == p.value_at(2 * i)
            assert b.value_at(i) == p.value_at(2 * i + 1)


def test_subsample_law():
    p = EvPeriodic((4, 2), (0, 1, 1))
    for a, b in [(1, 0), (2, 0), (2, 1), (3, 2)]:
        q = subsample(p, a, b)
        for n in range(120):
            assert q.value_at(n) == p.value_at(a * n + b)


def _rebuilt(p):
    """A fresh point equal to p, sharing no facts slot with it; law points
    and tree names keep no facts and are shared."""
    if isinstance(p, EvPeriodic):
        return EvPeriodic(p.head, p.period)
    if isinstance(p, Interleave):
        return Interleave(_rebuilt(p.first), _rebuilt(p.second))
    if isinstance(p, RowTuple):
        return RowTuple({n: _rebuilt(r) for n, r in p.rows.items()},
                        _rebuilt(p.default))
    return p


def _answer(fn, p):
    try:
        return fn(p)
    except UnsupportedShape as e:
        return UnsupportedShape, str(e)


FACTS = [
    ("nonzeros", nonzero_census, _nonzero_census),
    ("zeros", zero_census, _zero_census),
    ("row_period", row_period, _row_period),
    *[(f"subsample{a, b}", lambda p, a=a, b=b: subsample(p, a, b),
       lambda p, a=a, b=b: _subsample(p, a, b))
      for a, b in [(2, 0), (2, 1), (1, 1), (3, 2)]],
]


def _fact_inputs():
    """Four names per registry entry, as the CLI seeds them, with their
    rows 0-7 and both halves; plus an Interleave holding a law point."""
    from weihrauchlab.corpus import rng_for
    from weihrauchlab.registry import named_witnesses

    law = LawPoint(fn=lambda i: i % 2, label="law")
    out = [Interleave(law, EvPeriodic((), (0,))), Interleave(EvPeriodic((1,), (0,)), law)]
    for name, entry in sorted(named_witnesses().items()):
        for p in entry.corpus(rng_for(f"cli:{name}"), 4):
            out.append(p)
            out.extend(depair(p))
            try:
                out.extend(row(p, n) for n in range(8))
            except UnsupportedShape:
                pass
    return out


def test_memoized_facts_are_the_plain_functions_answers():
    """Each fact asked twice answers as the plain function on a freshly
    built equal point, the second time from the facts slot; a fact that
    raises stores nothing and raises again."""
    raised = set()
    for p in _fact_inputs():
        for name, memo, plain in FACTS:
            want = _answer(plain, _rebuilt(p))
            first = _answer(memo, p)
            second = _answer(memo, p)
            assert first == want and second == want, (name, p)
            if isinstance(want, tuple) and want[:1] == (UnsupportedShape,):
                raised.add(name)
            else:
                assert second is first, (name, p)
            if name == "row_period" and second is first:
                assert len(first) == 2 and all(type(x) is tuple for x in first)
    assert {"nonzeros", "zeros", "row_period"} <= raised


def test_a_pulse_is_one_shared_point_per_position():
    assert all(pulse(k) is pulse(k) for k in range(48))
    assert pulse(3) == EvPeriodic((0, 0, 0, 1), (0,))


def _is_pulse(p):
    return (type(p) is EvPeriodic and p.period == (0,)
            and p.head[-1:] == (1,) and sum(p.head) == 1)


def test_a_pulse_census_is_computed_once_however_many_rows_hold_it(
        monkeypatch):
    """Rows and K images built apart from each other hold one shared
    pulse per position, so each pulse's census is computed once."""
    from weihrauchlab import points
    from weihrauchlab.corpus import rng_for, tree_names
    from weihrauchlab.witnesses import check
    from weihrauchlab.wkl import wkl_to_llpo_hat

    pulse.cache_clear()
    computed = []

    def census(p):
        computed.append(p)
        return _nonzero_census(p)

    monkeypatch.setattr(points, "_nonzero_census", census)
    for _ in range(3):
        image = RowTuple({n: pulse(5) for n in range(10)}, EvPeriodic((), (0,)))
        assert nonzero_census(image)[0] == "many"
    assert [p for p in computed if _is_pulse(p)] == [pulse(5)]

    computed.clear()
    names = tree_names(rng_for("pulse-census"), 4)
    for _ in range(2):      # a fresh witness builds fresh images
        assert check(wkl_to_llpo_hat(), names, depth=8).passed
    pulses = [p for p in computed if _is_pulse(p)]
    assert pulses and len(pulses) == len(set(pulses))


def test_pulse_encoding_is_one_rule():
    """A pulse placed for a bit names that bit, to the encoder, the ternary
    decoder and LLPO alike, at the first position that can."""
    from weihrauchlab.problems import llpo_value
    from weihrauchlab.spaces import TernaryValue, decode_ternary, encode_ternary

    for start in range(12):
        for bit in (0, 1):
            pos = pulse_position(start, bit)
            assert pos in (start, start + 1) and pulse_bit(pos) == bit
            assert pos == start or pulse_bit(start) != bit
            name = pulse(pos)
            assert prefix(name, pos + 3) == (0,) * pos + (1, 0, 0)
            assert decode_ternary(name) is TernaryValue(bit)
            assert llpo_value(name) == frozenset({bit})
    for bit in (0, 1):
        assert encode_ternary(TernaryValue(bit)) == pulse(pulse_position(0, bit))


def _bulk_read_points() -> list:
    """Fresh points of every constructor, the pairs of any two of them, and
    nested pairs: pairs of pairs, a pair inside a row tuple's rows and inside
    a row law's rows."""
    from weihrauchlab.corpus import rng_for, thin_tree

    evp = EvPeriodic((3, 0), (1, 2, 0))
    rows = RowTuple({0: EvPeriodic((3,), (1, 2)), 2: pulse(5)},
                    EvPeriodic((0, 1), (2,)))
    value_law = LawPoint(fn=lambda i: i * i % 7, label="squares")
    row_law = LawPoint(row_fn=lambda n: EvPeriodic((n,), (n % 3, 1)),
                       label="row-law")
    tree = TreeChar(thin_tree(rng_for("bulk-read")))
    parts = [evp, rows, value_law, row_law, tree]
    pairs = [Interleave(a, b) for a in parts for b in parts]
    nested = [
        Interleave(pairs[1], pairs[13]),
        Interleave(evp, Interleave(tree, Interleave(row_law, value_law))),
        RowTuple({1: pairs[7], 3: pairs[21]}, Interleave(value_law, evp)),
        LawPoint(row_fn=lambda n: pairs[n % len(pairs)], label="pair-rows"),
        Interleave(RowTuple({0: pairs[4]}, pairs[9]), pairs[16]),
    ]
    return parts + pairs + nested


def test_bulk_reads_agree_with_value_at():
    """A point's symbols(n), read in bulk, is its first n values one by one,
    for n up to 130 (past the row tuples' first diagonals): each read on
    fresh points, so that no memo answers for the other."""
    for n in range(131):
        for p, q in zip(_bulk_read_points(), _bulk_read_points()):
            got = tuple(p.symbols(n))
            assert got == tuple(map(q.value_at, range(n))), (p, n)
            assert prefix(p, n) == got


def _point_classes(cls=None):
    cls = cls or Point
    for sub in cls.__subclasses__():
        yield sub
        yield from _point_classes(sub)


def test_every_bulk_read_is_checked_against_value_at():
    """Every Point subclass that overrides symbols is a constructor of the
    agreement test above, so no bulk read goes unchecked."""
    import importlib
    import pkgutil

    import weihrauchlab

    for mod in pkgutil.iter_modules(weihrauchlab.__path__):
        if not mod.name.startswith("_"):
            importlib.import_module(f"weihrauchlab.{mod.name}")
    covered = {type(p) for p in _bulk_read_points()}
    overriding = {c for c in _point_classes() if "symbols" in vars(c)}
    assert Interleave in overriding
    assert overriding <= covered, overriding - covered
