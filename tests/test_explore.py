"""The checker explores oracle behaviors along H's reads; the enumerating
checker it replaced is kept here as the reference it must agree with, and
the explorer that runs every branch afresh (references.explore_fresh) is
the reference of one that resumes its branches across depths."""

from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from references import explore_fresh

from weihrauchlab.corpus import rng_for
from weihrauchlab.errors import CapacityExceeded, OutOfDomain
from weihrauchlab.machines import (
    Machine,
    PointView,
    identity,
    index_machine,
    run_on_point,
    shift_l,
    stream_machine,
)
from weihrauchlab.points import EvPeriodic, Interleave, RowTuple, prefix
from weihrauchlab.problems import (
    BEHAVIOR_CAP,
    CoordProductSet,
    Frontier,
    Problem,
    UnionSet,
    llpo_hat_problem,
)
from weihrauchlab.registry import corrupted_witnesses, named_witnesses
from weihrauchlab.witnesses import (
    VALIDATE_WIDTH,
    CheckEntry,
    Report,
    Witness,
    check,
)

LADDER = (
    "wkl_to_llpo_hat",
    "wkl_round_trip",
    "llpo_hat_to_wkl",
    "llpo_hat_to_compact",
    "compact_to_llpo_hat",
    "llpo_hat_squared",
    "parallel_idem_up(llpo)",
)


def reference_check(w, corpus, depth, cap=BEHAVIOR_CAP):
    """H replayed on every canonical behavior of the oracle, one by one."""
    report = Report(w.name, depth)
    for p in corpus:
        label = repr(p)
        if not w.f.in_domain(p):
            raise OutOfDomain(f"{w.name}: corpus name outside dom({w.f.name})")
        fv = w.f.value_set(p)
        q = w.k_point(p)
        kout = tuple(w.K.eval(PointView(p, VALIDATE_WIDTH)))
        if kout != prefix(q, len(kout)):
            report.entries.append(CheckEntry(label, -1, "error",
                                             note="K mirror mismatch"))
            continue
        if not w.g.in_domain(q):
            report.entries.append(CheckEntry(label, -1, "fail",
                                             note=f"K image outside dom({w.g.name})"))
            continue
        for bi, r in enumerate(w.g.value_set(q).behaviors(depth, cap)):
            feed = r if w.strong else Interleave(p, r)
            outcome = run_on_point(w.H, feed, depth)
            coord = fv.check_prefix(outcome.output)
            if coord is not None:
                report.entries.append(CheckEntry(label, bi, "fail", coord))
            elif not outcome.productive:
                report.entries.append(CheckEntry(label, bi, "stall"))
            else:
                report.entries.append(CheckEntry(label, bi, "pass"))
    return report


def covered(w, p, report, depth):
    """Behaviors each status stands for on one name: an explored entry
    stands for 2^(free - read) of them, an enumerated one for one."""
    gv = w.g.value_set(w.k_point(p))
    out = {}
    for e in report.entries:
        n = 1
        if e.use is not None:
            free = sum(1 for i in range(depth) if len(gv.bits(i)) == 2)
            n = 2 ** (free - len(e.use))
        out[e.status] = out.get(e.status, 0) + n
    return out


def first_failure(report):
    bad = report.failures()
    return (bad[0].status, bad[0].coordinate, bad[0].behavior) if bad else None


def assert_agrees(w, corpus, depth):
    """check agrees with the reference name by name, and on the corpus as
    a whole (check is a loop over the names)."""
    want, got = Report(w.name, depth), Report(w.name, depth)
    for p in corpus:
        one_want = reference_check(w, [p], depth)
        one_got = check(w, [p], depth=depth)
        assert covered(w, p, one_got, depth) == covered(w, p, one_want, depth)
        want.entries += one_want.entries
        got.entries += one_got.entries
    assert got.passed == want.passed
    assert first_failure(got) == first_failure(want)
    assert len(got.entries) <= len(want.entries)


@pytest.mark.parametrize("name", LADDER)
def test_ladder_witness_agrees_with_enumeration(name):
    entry = named_witnesses()[name]
    corpus = entry.corpus(rng_for(f"cli:{name}"), entry.count)
    assert_agrees(entry.build(), corpus, entry.depth)


@pytest.mark.parametrize("name", sorted(corrupted_witnesses()))
def test_negative_control_agrees_with_enumeration(name):
    w, corpus_fn = corrupted_witnesses()[name]
    corpus = corpus_fn(rng_for(f"cli:{name}"), 5)
    assert_agrees(w, corpus, 8)
    assert not check(w, corpus, depth=8).passed


def _late_read_witness():
    """H copies the forced rows; it reads oracle coordinate 5 only when
    coordinate 0 is 1, and flips forced coordinate 3 when both are 1."""
    def fn(w):
        out = []
        for j in range(len(w)):
            if j == 5:
                out.append(w[5] if w[0] == 1 else 0)
            elif j == 3:
                out.append(1 - w[3] if w[0] == 1 and w[5] == 1 else w[3])
            else:
                out.append(w[j])
        return tuple(out)

    hat = llpo_hat_problem()
    return Witness(hat, hat, identity(), Machine("late-read", fn), True,
                   name="late-read")


# rows 0 and 5 are free (all zeros); rows 1-4, 6 and 7 force the answer 1
LATE_READ_NAME = RowTuple({n: EvPeriodic((1,), (0,)) for n in (1, 2, 3, 4, 6, 7)},
                          EvPeriodic((), (0,)))


def test_exploration_rejects_a_failure_behind_a_late_read():
    w = _late_read_witness()
    want = reference_check(w, [LATE_READ_NAME], 8)
    got = check(w, [LATE_READ_NAME], depth=8)
    assert first_failure(want) == ("fail", 3, 3)
    assert first_failure(got) == first_failure(want)
    assert [(e.behavior, e.use, e.status) for e in got.entries] == [
        (0, (0,), "pass"), (2, (0, 5), "pass"), (3, (0, 5), "fail")]


def test_capacity_refuses_a_wide_read_during_the_first_run():
    evals = []
    copy = identity()

    def counted(w):
        evals.append(len(w))
        return copy.eval(w)

    hat = llpo_hat_problem()
    w = Witness(hat, hat, identity(), Machine("counted-copy", counted), True)
    all_free = RowTuple({}, EvPeriodic((), (0,)))
    with pytest.raises(CapacityExceeded):
        check(w, [all_free], depth=13)
    assert len(evals) == 1


def test_capacity_counts_one_run_not_every_free_coordinate():
    entry = named_witnesses()["wkl_round_trip"]
    w = entry.build()
    corpus = entry.corpus(rng_for("cli:wkl_round_trip"), entry.count)
    with pytest.raises(CapacityExceeded):
        reference_check(w, corpus, 20)
    report = check(w, corpus, depth=20)
    assert report.passed
    assert max(len(e.use) for e in report.entries) <= 12


# deciding a copying H by box inclusion ---------------------------------------

WIDTH = 16      # the coordinates a random box or index law names
BITS = st.sampled_from([frozenset({0}), frozenset({1}), frozenset({0, 1})])


def _box(bits):
    return CoordProductSet(lambda i: bits[i] if i < len(bits) else frozenset({0}))


SOURCES = st.lists(BITS, min_size=WIDTH, max_size=WIDTH).map(_box)
# a target box allows both bits at most coordinates, so that inclusion
# holds often at every depth; it may be empty at a coordinate
BOXES = st.lists(st.sampled_from([frozenset({0, 1})] * 8 + [
    frozenset({0}), frozenset({1}), frozenset()]),
    min_size=WIDTH, max_size=WIDTH).map(_box)
TARGETS = st.one_of(BOXES, st.lists(BOXES, min_size=1, max_size=3).map(UnionSet))


@st.composite
def index_laws(draw):
    """A depth and the coordinates an index law copies below it, injective
    or not; past the depth the law reads WIDTH + j."""
    depth = draw(st.integers(0, 12))
    coords = st.integers(0, WIDTH - 1)
    srcs = draw(st.lists(coords, min_size=depth, max_size=depth, unique=True)
                | st.lists(coords, min_size=depth, max_size=depth))
    return depth, srcs


def _copying_witness(source, target, depth, srcs):
    g = Problem("source", lambda p: True, lambda p: source)
    f = Problem("target", lambda p: True, lambda p: target)
    h = index_machine("law", lambda j: srcs[j] if j < depth else WIDTH + j)
    return Witness(f, g, identity(), h, True, name="copying")


@settings(max_examples=150, deadline=None)
@given(SOURCES, TARGETS, index_laws())
def test_inclusion_decides_as_the_reference(source, target, law):
    """check decides by inclusion exactly when the law is injective and the
    reference passes; decided or explored, it agrees with the reference."""
    depth, srcs = law
    w = _copying_witness(source, target, depth, srcs)
    name = EvPeriodic((), (0,))
    got = check(w, [name], depth=depth)
    decided = [e for e in got.entries if e.note == "inclusion"]
    want = reference_check(w, [name], depth)
    assert bool(decided) == (want.passed and len(set(srcs)) == depth)
    if decided:
        assert [(e.behavior, e.use, e.status) for e in got.entries] == [
            (0, (), "pass")]
    assert_agrees(w, [name], depth)


def test_a_repeating_index_law_is_explored():
    hat = llpo_hat_problem()
    twice = index_machine("twice", lambda j: j // 2)
    w = Witness(hat, hat, identity(), twice, True, name="twice")
    all_free = RowTuple({}, EvPeriodic((), (0,)))
    got = check(w, [all_free], depth=8)
    assert got.passed
    assert all(e.note != "inclusion" and e.use for e in got.entries)
    # outputs below 8 read coordinates 0-3 only: a run forks on nothing else
    assert len(got.entries) == 16
    assert {c for e in got.entries for c in e.use} == set(range(4))
    assert_agrees(w, [all_free], 8)


def test_an_ordinary_witness_is_explored():
    """An ordinary H reads the instance interleaved with the answer; this
    one copies the instance, whose symbol 5 no answer allows."""
    hat = llpo_hat_problem()
    instance = index_machine("instance", lambda j: 2 * j)
    w = Witness(hat, hat, identity(), instance, False, name="instance")
    name = RowTuple({0: EvPeriodic((5,), (0,))}, EvPeriodic((), (0,)))
    got = check(w, [name], depth=8)
    assert first_failure(got) == ("fail", 0, 0)
    assert_agrees(w, [name], 8)


def test_inclusion_rejects_a_shift_out_of_the_box():
    """The shift copies free row 4 into coordinate 3, which row 3 forces
    to 0: the box is left there on every behavior with row 4 at 1."""
    hat = llpo_hat_problem()
    w = Witness(hat, hat, identity(), shift_l(), True, name="shifted")
    zero = EvPeriodic((0, 1), (0,))     # a pulse at 1: the answer 0
    name = RowTuple({1: zero, 2: zero, 3: zero}, EvPeriodic((), (0,)))
    got = check(w, [name], depth=8)
    assert not got.passed
    assert first_failure(got) == first_failure(reference_check(w, [name], 8))
    assert first_failure(got) == ("fail", 3, 8)


# resuming explored branches across depths -------------------------------------

@st.composite
def resumable_machines(draw):
    """An index law over the first WIDTH coordinates, or a search that
    reads adaptively: symbol j reads coordinate reads[j][b], b the bit it
    read before, and it may stop (stall) after some symbol."""
    coords = st.integers(0, WIDTH - 1)
    if draw(st.booleans()):
        srcs = draw(st.lists(coords, min_size=WIDTH, max_size=WIDTH))
        return index_machine("law", lambda j: srcs[j] if j < WIDTH else j)
    reads = draw(st.lists(st.tuples(coords, coords), min_size=WIDTH,
                          max_size=WIDTH))
    stop = draw(st.none() | st.integers(0, WIDTH))

    def symbols(w):
        bit = 0
        for j, read in enumerate(reads):
            if j == stop:
                return
            bit = w[read[bit]]
            yield bit
        yield from map(w.__getitem__, count(WIDTH))

    return stream_machine("adaptive", symbols)


def _explored(explore):
    try:
        return explore()
    except CapacityExceeded as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(SOURCES, resumable_machines(),
       st.lists(st.integers(0, WIDTH), min_size=1, max_size=6),
       st.sampled_from([2 ** 3, 2 ** 5, BEHAVIOR_CAP]))
def test_resumed_branches_explore_as_fresh_runs(box, h, depths, cap):
    """Over any depth sequence the triples equal explore_fresh's, and a
    deeper explore resumes every branch the frontier kept.  A raising
    explore leaves the frontier unusable, so it is replaced, as check
    drops it."""
    frontier, kept = Frontier(), 0
    for depth in depths:
        def run(r, depth=depth):
            return run_on_point(h, r, depth)

        want = _explored(lambda: explore_fresh(box, depth, cap, run))
        deeper = depth > frontier.depth
        got = _explored(lambda: box.explore(depth, cap, run, frontier))
        assert got == want
        if isinstance(got, str):
            frontier, kept = Frontier(), 0
        elif deeper:
            assert frontier.resumed == kept
            kept = len(got)
        else:
            assert frontier.resumed == 0
