import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from references import image_in_boxes_per_call

from weihrauchlab import spaces
from weihrauchlab.corpus import (
    any_points,
    ev_periodic,
    llpo_hat_input,
    llpo_points,
    rng_for,
    squared_inputs,
)
from weihrauchlab.errors import CapacityExceeded, NonRepresentable, OutOfDomain
from weihrauchlab.machines import EvalOutcome
from weihrauchlab.points import (
    EvPeriodic,
    Interleave,
    LawPoint,
    RowTuple,
    period_row,
    prefix,
    row,
    row_period,
)
from weihrauchlab.problems import (
    BIT_ANSWERS,
    BIT_VALUE_SETS,
    BOTH_ANSWERS,
    BoxMasks,
    CoordProductSet,
    FiniteNatsSet,
    PairSet,
    RowProductSet,
    SinglePointSet,
    TaggedUnionSet,
    UnionSet,
    ValueSet,
    bottom_problem,
    c_problem,
    compact_choice_problem,
    compact_choice_value,
    compose_problems,
    const_problem,
    double_hat_problem,
    hat_problem,
    id_problem,
    image_in_boxes,
    llpo_hat_problem,
    llpo_hat_value,
    llpo_problem,
    llpo_real_value,
    llpo_value,
    lpo_problem,
    lpo_value,
    nat_problem,
    product_problem,
    sum_problem,
)
from weihrauchlab.registry import named_witnesses
from weihrauchlab.spaces import ClopenCompact, Dyadic, encode_clopen
from weihrauchlab.witnesses import check


def _listed(*pts):
    """A finite point set as const_problem answers it."""
    return const_problem(pts).value_set(EvPeriodic((), (0,)))


def test_lpo_and_llpo_answer_with_shared_sets():
    names = [EvPeriodic((), (0,)), EvPeriodic((0, 0, 3), (0,)),
             EvPeriodic((), (1,)), EvPeriodic((7,), (0,)),
             EvPeriodic((0, 2), (0,))]
    assert [lpo_value(p) for p in names] == [{0}, {0}, {1}, {0}, {0}]
    assert all(any(lpo_value(p) is s for s in BIT_ANSWERS) for p in names)
    got = [llpo_value(p) for p in names if p != names[2]]
    assert got == [{0, 1}, {1}, {1}, {0}]
    assert got[0] is BOTH_ANSWERS
    assert all(s is BIT_ANSWERS[min(s)] for s in got[1:])


def test_llpo_real_and_compact_choice_answer_with_shared_sets():
    signs = [llpo_real_value(Dyadic(m, 1)) for m in (-1, 0, 1)]
    assert signs == [{0}, {0, 1}, {1}]
    assert signs[0] is BIT_ANSWERS[0] and signs[2] is BIT_ANSWERS[1]
    assert signs[1] is BOTH_ANSWERS
    head, tail = compact_choice_value(ClopenCompact({(0, 1), (1, 1)})).period
    assert head == ({0, 1}, {0}) and tail == ({0, 1},)
    assert head[0] is BOTH_ANSWERS and head[1] is BIT_ANSWERS[0]
    assert tail[0] is BOTH_ANSWERS


def test_nat_problems_hand_out_one_value_set_per_answer_set():
    names = [EvPeriodic((), (0,)), EvPeriodic((0, 0, 3), (0,)),
             EvPeriodic((), (1,)), EvPeriodic((7,), (0,)),
             EvPeriodic((0, 2), (0,)), EvPeriodic((0, 5), (0,))]
    sets = [make().value_set(p)
            for make in (lpo_problem, lpo_problem, llpo_problem, llpo_problem)
            for p in names if make is lpo_problem or p != names[2]]
    assert len(sets) == 22 and len({id(vs) for vs in sets}) == 3
    assert all(vs is BIT_VALUE_SETS[vs.values] for vs in sets)
    assert {vs.values for vs in sets} == {*BIT_ANSWERS, BOTH_ANSWERS}
    odd = nat_problem("odd", lambda p: True, lambda p: frozenset({2, 3}))
    assert odd.value_set(names[0]) == FiniteNatsSet({2, 3})


def _random_box(rng, kinds) -> CoordProductSet:
    law = [rng.choice(kinds) for _ in range(40)]
    return CoordProductSet(lambda i: law[i])


@pytest.mark.parametrize("seed", range(12))
def test_kept_box_masks_decide_as_masks_computed_per_call(seed):
    """One BoxMasks and one list of law coordinates serve every depth of
    a sequence, rising or falling; each call decides as the reference
    that reads the law and computes every mask afresh."""
    rng = random.Random(seed)
    both, zero, one = BOTH_ANSWERS, *BIT_ANSWERS
    perm = rng.sample(range(40), 40)
    laws = {
        "identity": lambda i: i,
        "injective": perm.__getitem__,
        "shifted": lambda i: i + 3,
        "repeating": lambda i: perm[i] // 2,
        "late repeat": lambda i: 5 if i == 17 else i,
    }
    sequences = [(2, 5, 9, 14, 20), (20, 14, 9, 5, 2), (8, 20, 4, 16, 12, 20)]
    decided = set()
    for _ in range(20):
        source = _random_box(rng, (both, both, zero, one))
        boxes = tuple(_random_box(rng, (both, both, both, zero, one, frozenset()))
                      for _ in range(rng.randrange(4)))
        cap = rng.choice((1, 2, 4, 4096))
        for law_name, src in laws.items():
            coords = [src(i) for i in range(20)]
            for depths in sequences:
                masks = BoxMasks(boxes)
                for depth in depths:
                    got = image_in_boxes(source, coords, masks, depth, cap)
                    want = image_in_boxes_per_call(source, src, boxes, depth, cap)
                    assert got == want, (seed, law_name, depths, depth)
                    decided.add((law_name, got))
    assert ("injective", True) in decided and ("injective", False) in decided
    assert ("repeating", False) in decided


def test_lpo_examples():
    assert lpo_value(EvPeriodic((), (0,))) == {0}
    assert lpo_value(EvPeriodic((), (1,))) == {1}
    assert lpo_value(EvPeriodic((1, 1, 1), (2,))) == {1}


def test_lpo_two_valued_everywhere():
    for p in any_points(rng_for("lpo-total"), 50):
        assert lpo_value(p) in ({0}, {1})


def test_llpo_examples():
    assert llpo_value(EvPeriodic((), (0,))) == {0, 1}
    assert llpo_value(EvPeriodic((0, 5), (0,))) == {0}
    assert llpo_value(EvPeriodic((5,), (0,))) == {1}


def test_llpo_domain_and_free_point():
    with pytest.raises(OutOfDomain):
        llpo_value(EvPeriodic((1, 2), (0,)))
    for p in llpo_points(rng_for("llpo-dom"), 50):
        v = llpo_value(p)
        assert v
        assert (v == {0, 1}) == (prefix(p, 32) == (0,) * 32)


def test_lpo_hat_rowtuples():
    ones = EvPeriodic((), (1,))
    zeros = EvPeriodic((), (0,))
    vs = c_problem().value_set(RowTuple({}, ones))
    assert all(vs.bits(n) == {1} for n in range(8))
    vs2 = c_problem().value_set(RowTuple({3: zeros}, ones))
    assert vs2.bits(3) == {0}
    assert all(vs2.bits(n) == {1} for n in (0, 1, 2, 4, 5))
    vs3 = c_problem().value_set(EvPeriodic((), (0,)))
    assert all(vs3.bits(n) == {0} for n in range(16))


def test_hat_tail_on_eventually_periodic_names():
    """Rows of an eventually periodic name repeat from n_star on, so its
    answers do: the period's head answers the first n_star rows and its
    cycle, at its shortest, every later row.  With one answer per row the
    one member is that eventually periodic point, constant tail or not."""
    rng = rng_for("hat-tail")
    cycles = []
    for _ in range(40):
        p = ev_periodic(rng)
        head, tail = row_period(p)
        n_star = len(head)
        vs = c_problem().value_set(p)
        answer_head, cycle = vs.period
        assert len(answer_head) == n_star and len(tail) % len(cycle) == 0
        assert not any(cycle == cycle[:d] * (len(cycle) // d)
                       for d in range(1, len(cycle)) if len(cycle) % d == 0)
        cycles.append(len(cycle))
        through = n_star + 4 * len(tail)    # four cycles of rows
        want = [lpo_value(row(p, i)) for i in range(through)]
        assert [vs.bits(i) for i in range(through)] == want
        assert [period_row(vs.period, i) for i in range(through)] == want
        (member,) = vs.members()
        assert prefix(member, through) == tuple(min(a) for a in want)
    assert cycles.count(1) >= 10 and len(cycles) - cycles.count(1) >= 3
    free_tail = llpo_hat_value(EvPeriodic((0, 0, 5), (0,)))
    assert free_tail.period[1] == (frozenset({0, 1}),)
    with pytest.raises(NonRepresentable):
        free_tail.members()


def test_llpo_hat_examples():
    vs = llpo_hat_value(RowTuple({}, EvPeriodic((), (0,))))
    assert vs.bits(0) == {0, 1} and vs.bits(7) == {0, 1}
    vs2 = llpo_hat_value(RowTuple({0: EvPeriodic((5,), (0,))},
                                  EvPeriodic((), (0,))))
    assert vs2.bits(0) == {1}
    assert vs2.bits(1) == {0, 1}
    vs3 = llpo_hat_value(RowTuple({}, EvPeriodic((0, 5), (0,))))
    assert all(vs3.bits(n) == {0} for n in range(8))


def test_llpo_hat_domain_error_names_row():
    bad = RowTuple({2: EvPeriodic((1, 1), (0,))}, EvPeriodic((), (0,)))
    assert not llpo_hat_problem().in_domain(bad)


def test_double_hat_domain_refuses_an_instance_past_row_or_column_eight():
    """Negative control of the double hat's domain: instance (9, 0) or
    (0, 9) with two nonzeros puts the name outside it."""
    two = EvPeriodic((1, 1), (0,))
    zeros = RowTuple({}, EvPeriodic((), (0,)))
    dom = double_hat_problem(llpo_problem()).in_domain
    assert dom(RowTuple({}, zeros))
    assert not dom(RowTuple({9: RowTuple({}, two)}, zeros))
    assert not dom(RowTuple({}, RowTuple({9: two}, EvPeriodic((), (0,)))))


def test_hat_domain_tests_each_row_object_once():
    """A row tuple's head repeats its default row: the hat's domain test
    asks f about each distinct row object once, in row order, and its
    verdict is that of asking about every row."""
    asked = []

    def stub_dom(r):
        asked.append(r)
        return r.value_at(0) != 9

    hat = hat_problem(nat_problem("stub", stub_dom, lambda r: frozenset({0})))
    a, b, d = EvPeriodic((1,), (0,)), EvPeriodic((2,), (0,)), EvPeriodic((), (0,))
    assert hat.in_domain(RowTuple({0: a, 3: b, 5: a}, d))
    assert list(map(id, asked)) == [id(a), id(d), id(b)]
    asked.clear()
    assert not hat.in_domain(RowTuple({4: EvPeriodic((9,), (0,))}, d))
    assert list(map(id, asked))[:1] == [id(d)] and len(asked) == 2
    asked.clear()
    # the rows of a periodic name are distinct objects: each is asked
    name = EvPeriodic((1, 2, 3), (0, 4))
    assert hat.in_domain(name)
    head, tail = row_period(name)
    assert len(asked) == len(head) + len(tail)



def test_hat_domain_tests_a_law_points_row_object_once():
    """A law point whose window rows are all one object has f asked about
    that object once."""
    asked = []

    def stub_dom(r):
        asked.append(r)
        return True

    hat = hat_problem(nat_problem("stub", stub_dom, lambda r: frozenset({0})))
    one = EvPeriodic((1,), (0,))
    assert hat.in_domain(LawPoint(row_fn=lambda n: one))
    assert asked == [one]


def test_hat_domain_of_a_law_point_stops_at_its_first_row_outside():
    """Rows are computed in order and the test stops at the first row
    outside f's domain: a row law whose row 3 is outside and whose row 5
    raises is refused without row 5 being computed."""
    computed = []
    outside = EvPeriodic((), (1,))      # nonzero everywhere: not an LLPO name

    def row_law(n):
        computed.append(n)
        if n == 5:
            raise NonRepresentable("row 5 has no presentation")
        return outside if n == 3 else EvPeriodic((), (0,))

    assert not llpo_hat_problem().in_domain(LawPoint(row_fn=row_law))
    assert computed == [0, 1, 2, 3]

def test_c_map_agrees_with_rowwise_lpo():
    """Coordinate n of the lpo hat's value is lpo on row n."""
    rng = rng_for("c-rowwise")
    for _ in range(12):
        p = RowTuple({n: ev_periodic(rng) for n in range(rng.randrange(4))},
                     ev_periodic(rng))
        vs = c_problem().value_set(p)
        for n in range(32):
            assert vs.bits(n) == lpo_value(row(p, n))


def test_llpo_hat_coordinates_agree_with_rows():
    rng = rng_for("hat-coords")
    for _ in range(10):
        p = llpo_hat_input(rng)
        vs = llpo_hat_value(p)
        for k in range(32):
            assert vs.bits(k) == llpo_value(row(p, k))


def test_hat_reads_a_nat_law_without_value_sets():
    """A nat-valued f's hat answers each row from f's answer law; it
    builds no value set of f per coordinate."""
    def unused(p):
        raise AssertionError("a value set was built for one row")

    f = dataclasses.replace(llpo_problem(), value_set=unused)
    rng = rng_for("hat-law")
    for _ in range(10):
        p = llpo_hat_input(rng)
        vs = hat_problem(f).value_set(p)
        for k in range(32):
            assert vs.bits(k) == llpo_value(row(p, k))


def test_wkl_problem_examples():
    from weihrauchlab.spaces import FinTree, TreeChar
    from weihrauchlab.wkl import wkl_problem
    zeros = EvPeriodic((), (0,))
    alt = EvPeriodic((), (0, 1))
    t = FinTree(1, {(), (0,)}, (zeros,))
    prob = wkl_problem()
    name = TreeChar(t)
    assert prob.in_domain(name)
    assert prob.value_set(name).members() == [zeros]
    t2 = FinTree(2, {(), (0,), (0, 0), (0, 1)}, (zeros, alt))
    vs = prob.value_set(TreeChar(t2))
    assert set(vs.members()) == {zeros, alt}
    finite = TreeChar(FinTree(1, {(), (0,)}, ()))
    assert not prob.in_domain(finite)
    with pytest.raises(OutOfDomain):
        prob.require(finite)


def test_wkl_paths_stay_in_tree():
    from weihrauchlab.corpus import tree_names
    from weihrauchlab.wkl import wkl_problem
    prob = wkl_problem()
    for name in tree_names(rng_for("wkl-paths"), 6):
        for q in prob.value_set(name).members():
            for n in range(65):
                assert name.tree.chi(prefix(q, n)) == 1


def test_compact_choice_examples():
    prob = compact_choice_problem()
    full = encode_clopen(ClopenCompact(set()))
    vs = prob.require(full)
    assert vs.check_prefix((0, 1, 1, 0)) is None

    no_ones = encode_clopen(ClopenCompact({(1,)}))
    vs2 = prob.require(no_ones)
    assert vs2.check_prefix((0, 1, 1)) is None
    assert vs2.check_prefix((1, 0)) == 0

    diag = encode_clopen(ClopenCompact({(0, 0), (1, 1)}))
    vs3 = prob.require(diag)
    assert vs3.check_prefix((0, 1)) is None
    assert vs3.check_prefix((1, 0)) is None
    assert vs3.check_prefix((1, 1)) == 1

    empty = encode_clopen(ClopenCompact({(0,), (1,)}))
    assert not prob.in_domain(empty)


@pytest.mark.parametrize("name, side", [
    ("compact_to_llpo_hat", "f"), ("llpo_hat_to_compact", "g"),
    ("llpo_real_to_llpo", "f"), ("llpo_to_llpo_real", "g")])
def test_each_compact_and_dyadic_name_is_decoded_once(monkeypatch, name,
                                                      side):
    """The domain test, the value set, K's search and a second check all
    read the one compact or dyadic that is a fact of the name object."""
    decoded = []
    normalize = spaces.normalize

    def counting(p):
        decoded.append(p)
        return normalize(p)

    monkeypatch.setattr(spaces, "normalize", counting)
    entry = named_witnesses()[name]
    corpus = entry.corpus(rng_for(f"cli:{name}"), entry.count)
    w = entry.build()
    names = corpus if side == "f" else [w.k_point(p) for p in corpus]
    problem = getattr(w, side)
    for _ in range(2):
        for q in names:
            assert problem.in_domain(q)
            problem.value_set(q)
    for depth in (8, 12):
        assert check(w, corpus, depth=depth).passed
    assert len(decoded) == len({id(q) for q in decoded})
    assert {id(q) for q in names} <= {id(q) for q in decoded}


def test_llpo_real_values():
    assert llpo_real_value(Dyadic(-1, 1)) == {0}
    assert llpo_real_value(Dyadic(0, 0)) == {0, 1}
    assert llpo_real_value(Dyadic(3, 2)) == {1}


def test_const_and_bottom():
    zeros = EvPeriodic((), (0,))
    ones = EvPeriodic((), (1,))
    ca = const_problem([zeros])
    assert ca.value_set(ones).members() == [zeros]
    cab = const_problem([zeros, ones])
    assert set(cab.value_set(zeros).members()) == {zeros, ones}
    bot = bottom_problem()
    assert bot.key == const_problem([]).key == "bottom"
    vs = bot.value_set(zeros)
    assert vs.members() == []
    assert vs.behaviors(8) == []
    assert vs.check_prefix(()) == 0
    with pytest.raises(IndexError):
        vs.canonical()


def test_value_set_check_prefix_semantics():
    assert FiniteNatsSet({1}).check_prefix((1, 9, 9)) is None
    assert FiniteNatsSet({1}).check_prefix((0,)) == 0
    sp = SinglePointSet(EvPeriodic((2,), (0,)))
    assert sp.check_prefix((2, 0)) is None
    assert sp.check_prefix((2, 5)) == 1
    pl = _listed(EvPeriodic((), (0,)), EvPeriodic((), (1,)))
    assert pl.check_prefix((1, 1)) is None
    assert pl.check_prefix((1, 0)) == 1
    pr = PairSet(FiniteNatsSet({0}), FiniteNatsSet({1}))
    assert pr.check_prefix((0, 1)) is None
    assert pr.check_prefix((1, 1)) == 0
    tu = TaggedUnionSet(FiniteNatsSet({0}), FiniteNatsSet({1}))
    assert tu.check_prefix((0, 0)) is None
    assert tu.check_prefix((0, 1)) == 1
    assert tu.check_prefix((7, 1)) is None


def test_coord_product_members_and_truncations():
    zero, free = frozenset({0}), frozenset({0, 1})
    vs = CoordProductSet(lambda i: free if i == 1 else zero,
                         ((zero, free), (zero,)))
    ms = vs.members()
    assert len(ms) == 2
    assert {prefix(m, 3) for m in ms} == {(0, 0, 0), (0, 1, 0)}
    assert set(vs.truncations(2)) == {(0, 0), (0, 1)}
    one = frozenset({1})
    cycled = CoordProductSet(lambda i: free if i == 0 else (one, zero)[(i - 1) % 2],
                             ((free,), (one, zero)))
    assert {prefix(m, 6) for m in cycled.members()} == {(0, 1, 0, 1, 0, 1),
                                                        (1, 1, 0, 1, 0, 1)}
    with pytest.raises(CapacityExceeded):
        cycled.members(1)
    free_tail = CoordProductSet(lambda i: free, ((), (free,)))
    with pytest.raises(NonRepresentable, match="free tail"):
        free_tail.members()
    with pytest.raises(NonRepresentable, match="without a stabilized tail"):
        CoordProductSet(lambda i: zero).members()


def test_problems_are_identified_by_key_and_named_from_it():
    assert hat_problem(lpo_problem()).key == c_problem().key == ("hat", "lpo")
    assert llpo_hat_problem().key != c_problem().key
    nested = compose_problems(
        double_hat_problem(llpo_problem()),
        product_problem(llpo_hat_problem(), sum_problem(lpo_problem(), id_problem())))
    assert nested.name == "(llpo_hat^hato(llpo_hat*(lpo+id)))"
    zeros, ones = EvPeriodic((), (0,)), EvPeriodic((), (1,))
    assert const_problem([zeros]).name == const_problem([ones]).name == "c_A"
    assert const_problem([zeros]).key != const_problem([ones]).key
    assert const_problem([zeros], "Z").key == const_problem([zeros], "Z").key


def test_product_and_sum_problems():
    f = product_problem(lpo_problem(), llpo_problem())
    p = Interleave(EvPeriodic((), (1,)), EvPeriodic((5,), (0,)))
    assert f.in_domain(p)
    assert f.value_set(p).check_prefix((1, 1)) is None
    assert f.value_set(p).check_prefix((0, 1)) == 0
    s = sum_problem(lpo_problem(), llpo_problem())
    assert s.value_set(p).check_prefix((0, 1)) is None
    assert s.value_set(p).check_prefix((1, 1)) is None
    assert s.value_set(p).check_prefix((1, 0)) == 1


def test_composite_problem_squared():
    comp = compose_problems(llpo_hat_problem(), llpo_hat_problem())
    p = squared_inputs(rng_for("composite"), 1)[0]
    assert comp.in_domain(p)
    vs = comp.value_set(p)
    member = llpo_hat_value(p).members()[0]
    bits = llpo_hat_value(member)
    want = tuple(min(bits.bits(k)) for k in range(6))
    assert vs.check_prefix(want) is None
    # free default makes the member set non-enumerable
    free = RowTuple({}, EvPeriodic((), (0,)))
    assert not comp.in_domain(free)



def test_composition_lists_a_names_members_once():
    """dom and value read the inner value set's members through the
    name's facts: a name that has a facts slot has them listed once, and
    a listing that raises keeps nothing, so it raises again."""
    listed = []

    def inner_value(p):
        listed.append(p)
        if p.value_at(0) == 7:
            raise CapacityExceeded("too many members")
        return _listed(EvPeriodic((), (0,)), EvPeriodic((), (1,)))

    inner = dataclasses.replace(id_problem(), key="listing",
                                value_set=inner_value)
    comp = compose_problems(lpo_problem(), inner)
    p = EvPeriodic((0,), (1,))
    assert comp.in_domain(p)
    assert comp.value_set(p).check_prefix((0,)) is None
    assert listed == [p]
    bad = EvPeriodic((7,), (0,))
    assert not comp.in_domain(bad)
    with pytest.raises(CapacityExceeded):
        comp.value_set(bad)
    assert listed == [p, bad, bad]

def test_behavior_capacity_is_first_class():
    from weihrauchlab.errors import CapacityExceeded
    free_everywhere = llpo_hat_value(RowTuple({}, EvPeriodic((), (0,))))
    with pytest.raises(CapacityExceeded):
        free_everywhere.behaviors(16, 4096)
    # and within budget the count is exact
    assert len(free_everywhere.behaviors(3, 4096)) == 8


def test_canonical_member_is_structural():
    """canonical() names a member of a set with more than two behaviors
    below depth 1 instead of raising CapacityExceeded: a list of three
    points, a pair of such lists, and row products whose rows are pairs."""
    pts = [EvPeriodic((), (c,)) for c in (0, 1, 2)]
    listed = _listed(*pts)
    pair = PairSet(listed, listed)
    rows = RowProductSet(lambda n: PairSet(listed, _listed(*pts[n % 3:]))
                         if n else SinglePointSet(pts[1]))
    assert listed.canonical() == pts[0]
    assert prefix(pair.canonical(), 6) == (0,) * 6
    assert pair.check_prefix(prefix(pair.canonical(), 32)) is None
    q = rows.canonical()
    assert rows.check_prefix(prefix(q, 200)) is None
    assert prefix(row(q, 1), 6) == (0, 1) * 3
    for vs in (listed, pair):
        with pytest.raises(CapacityExceeded):
            vs.behaviors(1, 2)
    # the branches of a row product read the structural canonical rows
    [branch] = rows.behaviors(1, 2)
    assert prefix(row(branch, 2), 6) == (0, 2) * 3


def test_union_canonicals_are_structural():
    """A tagged union and a union name their first member without
    enumerating behaviors, which raised CapacityExceeded on these; where
    the enumerating base method answers, they answer the same member."""
    zeros, ones, twos = (EvPeriodic((), (c,)) for c in (0, 1, 2))
    three = _listed(zeros, ones, twos)
    tagged = TaggedUnionSet(three, _listed(zeros))
    union = UnionSet([SinglePointSet(p) for p in (zeros, ones, twos)])
    for vs in (tagged, union):
        with pytest.raises(CapacityExceeded):
            ValueSet.canonical(vs)
    assert prefix(tagged.canonical(), 8) == (0,) * 8
    assert union.canonical() == zeros
    small = [SinglePointSet(ones), _listed(twos), _listed(),
             PairSet(SinglePointSet(twos), SinglePointSet(ones)),
             CoordProductSet(lambda i: {i % 2, 1}), three]
    cases = [TaggedUnionSet(a, b) for a in small for b in small]
    cases += [UnionSet(parts) for parts in
              ([], [_listed()], [_listed(), small[3]], small[:2], [small[4]])]
    cases.append(TaggedUnionSet(cases[-1], _listed()))
    answered = 0
    for vs in cases:
        try:
            want = ValueSet.canonical(vs)
        except (CapacityExceeded, IndexError):
            continue
        answered += 1
        assert prefix(vs.canonical(), 24) == prefix(want, 24), vs
    assert answered >= 20
    with pytest.raises(IndexError):
        TaggedUnionSet(_listed(), _listed()).canonical()


# a free coordinate {0, 1} is drawn three times as often as each forced one
BIT_SETS = (frozenset({0}), frozenset({1})) + (frozenset({0, 1}),) * 3


@st.composite
def decision_trees(draw, width, levels=5):
    """An output (a leaf) or a node (coordinate, if 0, if 1) that reads
    the oracle; a quarter of the draws above the last level are leaves."""
    if levels == 0 or draw(st.integers(0, 3)) == 3:
        return draw(st.integers(0, 9))
    return (draw(st.integers(0, width - 1)),
            draw(decision_trees(width, levels - 1)),
            draw(decision_trees(width, levels - 1)))


@st.composite
def products_and_readers(draw):
    """Per-coordinate bit sets, a depth, a decision-tree reader and a cap."""
    depth = draw(st.integers(0, 7))
    width = depth + 2
    sets = draw(st.lists(st.sampled_from(BIT_SETS), min_size=width, max_size=width))
    tree = (draw(st.integers(0, width - 1)),
            draw(decision_trees(width)), draw(decision_trees(width)))
    cap = draw(st.sampled_from((1, 2, 3, 4, 8, 12, 64, 4096)))
    return sets, depth, tree, cap


def read_tree(tree, r, seen=None):
    while isinstance(tree, tuple):
        c, if0, if1 = tree
        if seen is not None:
            seen.add(c)
        tree = if1 if r.value_at(c) else if0
    return tree


@settings(max_examples=200, deadline=None)
@given(products_and_readers())
def test_explore_stands_for_every_behavior_once(case):
    sets, depth, tree, cap = case
    vs = CoordProductSet(lambda i: sets[i] if i < len(sets) else frozenset({0}))
    free = [i for i in range(depth) if len(sets[i]) == 2]
    behaviors = vs.behaviors(depth, 2 ** len(free))

    def run(r):
        return EvalOutcome(read_tree(tree, r), True)

    widest = 0
    for b in behaviors:
        seen = set()
        read_tree(tree, b, seen)
        widest = max(widest, len(seen & set(free)))
    if 2 ** widest > cap:
        with pytest.raises(CapacityExceeded):
            vs.explore(depth, cap, run)
        return

    leaves = vs.explore(depth, cap, run)
    indices = [index for index, _, _ in leaves]
    assert indices == sorted(set(indices))
    assert sum(2 ** (len(free) - len(use)) for _, use, _ in leaves) == 2 ** len(free)

    def bit(index, c):
        return index >> (len(free) - 1 - free.index(c)) & 1

    stands_for = {}
    for bi, b in enumerate(behaviors):
        (leaf,) = [(index, out) for index, use, out in leaves
                   if all(b.value_at(c) == bit(index, c) for c in use)]
        assert leaf[1] == run(b)
        stands_for.setdefault(leaf[0], []).append(bi)
    assert all(min(bis) == index for index, bis in stands_for.items())


def test_compact_choice_depth_cap():
    from weihrauchlab.errors import CapacityExceeded
    deep = ClopenCompact({tuple([0] * 13)})
    with pytest.raises(CapacityExceeded):
        compact_choice_value(deep)


SYMBOLS = st.integers(0, 2)
EVP = st.builds(EvPeriodic, st.lists(SYMBOLS, max_size=3).map(tuple),
                st.lists(SYMBOLS, min_size=1, max_size=3).map(tuple))
LISTED_POINTS = st.one_of(
    EVP,
    st.builds(Interleave, EVP, EVP),
    st.builds(RowTuple, st.dictionaries(st.integers(0, 4), EVP, max_size=2), EVP))


@settings(max_examples=200, deadline=None)
@given(st.lists(LISTED_POINTS, max_size=4),
       st.lists(SYMBOLS, max_size=10).map(tuple), st.integers(0, 5))
def test_const_value_sets_answer_as_point_lists(pts, w, cap):
    """A constant problem's union of single points answers as the finite
    point list it replaced: a prefix is consistent when it agrees with
    some point, else it leaves at the latest first mismatch (0 with no
    points); behaviors and members are the points in order, past cap a
    capacity error; the canonical member is the first point."""
    vs = const_problem(pts).value_set(EvPeriodic((), (0,)))
    mismatches = [next((i for i in range(len(w)) if w[i] != q.value_at(i)), None)
                  for q in pts]
    want = None if None in mismatches else max(mismatches, default=0)
    assert vs.check_prefix(w) == want
    for listed in (lambda: vs.behaviors(len(w), cap), lambda: vs.members(cap)):
        if len(pts) > cap:
            with pytest.raises(CapacityExceeded):
                listed()
        else:
            assert listed() == pts
    if pts:
        assert vs.canonical() == pts[0]
    else:
        with pytest.raises(IndexError):
            vs.canonical()
