import itertools

import pytest
from references import blocking_index_bruteforce

from weihrauchlab.corpus import llpo_hat_inputs, rng_for, thin_tree, tree_names
from weihrauchlab.machines import PointView
from weihrauchlab.points import EvPeriodic, RowTuple, period_row, prefix
from weihrauchlab.problems import llpo_hat_value, llpo_value
from weihrauchlab.registry import named_witnesses
from weihrauchlab.spaces import FinTree, TreeChar
from weihrauchlab.witnesses import check
from weihrauchlab.wkl import (
    ConstraintTree,
    _covered_level,
    blocking_index,
    llpo_hat_to_wkl,
    parity_chi,
    q_stream,
    wkl_round_trip,
    wkl_to_llpo_hat,
)


def fixture_trees():
    rng = rng_for("wkl-fix")
    out = [thin_tree(rng, lives=1, depth=2), thin_tree(rng, lives=2, depth=3),
           thin_tree(rng, lives=3, depth=3)]
    zeros = EvPeriodic((), (0,))
    ones = EvPeriodic((), (1,))
    out.append(FinTree(2, {(), (0,), (1,), (0, 0), (1, 1)}, (zeros, ones)))
    out.append(FinTree(1, {(), (0,)}, (zeros,)))
    return out


def constraint_names():
    return named_witnesses()["llpo_hat_to_wkl"].corpus(rng_for("wkl-fix:ct"), 6)


def constraint_trees():
    return [ConstraintTree(p) for p in constraint_names()]


def all_trees():
    return fixture_trees() + constraint_trees()


def all_words(max_len):
    for n in range(max_len + 1):
        yield from itertools.product((0, 1), repeat=n)


def test_blocking_index_none_when_both_live():
    zeros = EvPeriodic((), (0,))
    ones = EvPeriodic((), (1,))
    t = FinTree(1, {(), (0,), (1,)}, (zeros, ones))
    assert blocking_index(t, ()) is None


def test_blocking_index_single_live_path():
    zeros = EvPeriodic((), (0,))
    t = FinTree(1, {(), (0,)}, (zeros,))
    m = blocking_index(t, ())
    assert m == blocking_index_bruteforce(t, (), 8)
    assert m is not None


def test_blocking_index_agrees_with_bruteforce():
    for t in all_trees():
        for w in all_words(5):
            got = blocking_index(t, w)
            want = blocking_index_bruteforce(t, w, 10)
            if want is None:
                assert got is None or got > 10
            else:
                assert got == want, (t, w)


def test_tree_presentations_are_prefix_closed():
    """The blocking search starts past a tree word's own length on this."""
    for t in all_trees():
        for w in all_words(7):
            if w and t.member(w):
                assert t.member(w[:-1]), (t, w)


def test_constraint_tree_chi_is_parity_chi():
    for t in constraint_trees():
        for w in all_words(5):
            t.chi(w)
        for w in all_words(6):
            rows = [period_row(t.period, m) for m in range(len(w))]
            fresh = parity_chi(lambda m, j: rows[m].value_at(j), w)
            assert t.chi(w) == fresh, (t, w)


def test_constraint_tree_chi_cold_order():
    """A length-7 word asked first of a fresh tree fills in its prefixes
    through the recursion, also past a prefix that has left the tree."""
    left_early = 0
    for p in constraint_names():
        for w in itertools.product((0, 1), repeat=7):
            t = ConstraintTree(p)
            rows = [period_row(t.period, m) for m in range(7)]
            want = [parity_chi(lambda m, j: rows[m].value_at(j), w[:n])
                    for n in range(8)]
            assert t.chi(w) == want[7], (p, w)
            assert [t.chi(w[:n]) for n in range(8)] == want, (p, w)
            left_early += 0 in want[:7]
    assert left_early


def test_q_stream_trichotomy_and_domain():
    for t in all_trees():
        for w in all_words(5):
            q = q_stream(t, w)
            census = [s for s in q.head if s != 0]
            assert len(census) <= 1
            assert all(s == 0 for s in q.period)
            assert llpo_value(q)   # in the lesser-omniscience domain


def test_q_stream_guides_to_live_children():
    for t in all_trees():
        for w in all_words(4):
            if not t.member(w) or not t.alive(w):
                continue
            bits = llpo_value(q_stream(t, w))
            for i in bits:
                assert t.alive(tuple(w) + (i,)), (w, i)


def test_q_stream_reads_few_memberships_along_a_live_path():
    """On a tree word the search starts past the word's length: one
    membership test for the word and one per child, where a search from
    level 0 made 2 * (len(w) + 1) before it got there."""
    for p in tree_names(rng_for("wkl-fix:guard"), 3):
        t = p.tree
        member = t.member
        calls = []

        def counted(w):
            calls.append(w)
            return member(w)

        t.member = counted
        for path in t.live_paths:
            for n in range(21):
                calls.clear()
                q_stream(t, prefix(path, n))
                assert len(calls) <= 3, (t, n, calls)


def test_forward_witness_path_soundness():
    """Every oracle behavior branch yields a path of the tree."""
    w = wkl_to_llpo_hat()
    for t in fixture_trees():
        name = TreeChar(t)
        depth = 2 * t.explicit_depth
        if depth == 0:
            depth = 4
        kp = w.k_point(name)
        vs = llpo_hat_value(kp)
        for r in vs.behaviors(depth):
            from weihrauchlab.machines import run_on_point
            out = run_on_point(w.H, r, depth)
            assert out.productive
            for n in range(len(out.output) + 1):
                assert t.chi(out.output[:n]) == 1, (t, out.output)


def test_forward_witness_checker():
    w = wkl_to_llpo_hat()
    rep = check(w, tree_names(rng_for("fw"), 6), depth=16)
    assert rep.passed, rep.render()


def test_backward_tree_paths_match_product():
    w = llpo_hat_to_wkl()
    for p in llpo_hat_inputs(rng_for("bw"), 8):
        tree = ConstraintTree(p)
        vs = llpo_hat_value(p)
        live = vs.members()
        got = {prefix(q, 24) for q in tree.path_values().members()}
        want = {prefix(q, 24) for q in live}
        assert got == want


def test_backward_witness_examples():
    w = llpo_hat_to_wkl()
    # a forced first coordinate forces the first path bit
    p = RowTuple({0: EvPeriodic((5,), (0,))}, EvPeriodic((0, 5), (0,)))
    kp = w.k_point(p)
    for q in kp.tree.path_values().members():
        assert q.value_at(0) == 1
    rep = check(w, [p], depth=10)
    assert rep.passed


def test_backward_full_tree_free_rows():
    """All-zero rows denote the full constraint tree; any path is accepted."""
    w = llpo_hat_to_wkl()
    p = RowTuple({}, EvPeriodic((), (0,)))
    kp = w.k_point(p)
    for v in all_words(4):
        assert kp.tree.member(v)
    rep = check(w, [p], depth=4)
    assert rep.passed


def test_constraint_tree_dead_stubs():
    # a forced row still leaves short stubs on the dead side
    p = RowTuple({0: EvPeriodic((0, 0, 5), (0,))}, EvPeriodic((0, 5), (0,)))
    tree = ConstraintTree(p)
    assert tree.member((0,))     # the constraint bites only from level two
    assert not tree.alive((0,))


def test_round_trip_passes():
    w = wkl_round_trip()
    rep = check(w, llpo_hat_inputs(rng_for("rt"), 6), depth=8)
    assert rep.passed, rep.render()


def test_finite_tree_rejected_before_checking():
    from weihrauchlab.errors import OutOfDomain
    w = wkl_to_llpo_hat()
    finite = TreeChar(FinTree(1, {(), (0,)}, ()))
    with pytest.raises(OutOfDomain):
        check(w, [finite], depth=4)


def test_check_labels_tree_names_by_their_literals():
    """Tree names share a repr; their literals tell the 25 corpus names apart."""
    corpus = tree_names(rng_for("cli:wkl_to_llpo_hat"), 25)
    report = check(wkl_to_llpo_hat(), corpus, depth=4)
    labels = {e.point for e in report.entries}
    assert len(labels) == 25
    assert all(label.startswith("tree(depth=") for label in labels)


def test_blocking_rows_is_total_where_a_level_ends():
    """A level is covered only when its last word, of index 2^(n+1) - 2,
    lies below the prefix; at exactly that length the blocking-rows K read
    one symbol past its input."""
    for L in range(5000):
        n = _covered_level(L)
        assert 2 ** (n + 1) - 2 < L <= 2 ** (n + 2) - 2, L
    k = wkl_to_llpo_hat().K
    for p in tree_names(rng_for("covered-level"), 3):
        for L in (0, 2, 6, 14, 30):
            out = k.eval(PointView(p, L))
            assert out == prefix(k.point(p), len(out)), L
