import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weihrauchlab.corpus import mixed_clopen, product_clopen, rng_for
from weihrauchlab.errors import InsufficientPrefix, InvariantViolation, NotAName
from weihrauchlab.points import EvPeriodic, RowTuple, prefix
from weihrauchlab.spaces import (
    T0,
    T1,
    THALF,
    ClopenCompact,
    Dyadic,
    FinTree,
    TreeChar,
    decode_clopen,
    decode_dyadic,
    decode_nat,
    decode_ternary,
    encode_clopen,
    encode_dyadic,
    encode_nat,
    encode_ternary,
    encode_tree,
    extensions,
    word_at,
    word_index,
)
from weihrauchlab.wkl import ConstraintTree


def test_word_enumeration_order():
    words = [word_at(i) for i in range(7)]
    assert words == [(), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]
    words = [word_at(i) for i in range(1 << 14)]
    assert words[: (1 << 14) - 1] == [
        w for n in range(14) for w in itertools.product((0, 1), repeat=n)]
    for i, w in enumerate(words):
        assert word_index(w) == i and all(type(b) is int for b in w)


def test_nat_roundtrip():
    assert encode_nat(3) == EvPeriodic((3,), (0,))
    assert decode_nat((5, 9, 9)) == 5
    for n in range(21):
        assert decode_nat(prefix(encode_nat(n), 1)) == n
    with pytest.raises(InsufficientPrefix):
        decode_nat(())


def test_ternary_cases():
    assert decode_ternary(EvPeriodic((), (0,))) is THALF
    assert decode_ternary(EvPeriodic((0, 7), (0,))) is T0
    assert decode_ternary(EvPeriodic((7,), (0,))) is T1
    for t in (T0, T1, THALF):
        assert decode_ternary(encode_ternary(t)) is t
    with pytest.raises(NotAName):
        decode_ternary(EvPeriodic((1, 1), (0,)))


def test_tree_membership_law():
    live = (EvPeriodic((), (0,)), EvPeriodic((), (1,)))
    nodes = {()}
    for q in live:
        for n in range(1, 3):
            nodes.add(prefix(q, n))
    t = FinTree(2, nodes, live)
    for n in range(6):
        for w in itertools.product((0, 1), repeat=n):
            want = w in t.explicit_nodes or any(
                prefix(q, n) == w for q in live)
            assert t.member(w) == want


def test_tree_prefix_closure_enforced():
    with pytest.raises(InvariantViolation):
        FinTree(2, {(), (1, 1)}, ())


def test_tree_encode_finite_tree():
    t = FinTree(0, {()}, ())
    name = encode_tree(t)
    assert name.value_at(word_index(())) == 1
    assert name.value_at(word_index((0,))) == 0
    assert name.value_at(word_index((1,))) == 0


def test_tree_char_against_membership():
    live = (EvPeriodic((), (0,)),)
    nodes = {(), (0,), (0, 0)}
    t = FinTree(2, nodes, live)
    name = encode_tree(t)
    assert isinstance(name, TreeChar)
    for k in range(9):
        assert name.value_at(word_index(tuple([0] * k))) == 1
    assert name.value_at(word_index((1,))) == 0
    assert name.value_at(word_index((0, 1))) == 0


def test_tree_roundtrip_sampled():
    from weihrauchlab.corpus import thin_tree
    rng = rng_for("tree-roundtrip")
    for _ in range(100):
        t = thin_tree(rng)
        name = encode_tree(t)
        for i in range(40):
            assert name.value_at(i) == t.chi(word_at(i))


def test_a_compact_that_excludes_the_empty_word_is_empty():
    """The empty word's cylinder is all of Cantor space: excluding it leaves
    nothing, at depth 0 too, while admitted_words still lists the words
    below an excluded empty word as it did."""
    for words in ({()}, {(), (0,)}, {(), (1, 0)}):
        k = ClopenCompact(words)
        assert k.is_empty()
        assert not k.alive(())
        assert not any(k.admits(w) for n in range(4)
                       for w in itertools.product((0, 1), repeat=n))
        assert k.admitted_words(0) == [()]
        assert k.admitted_words(1) == k.admitted_words(3) == []
        assert decode_clopen(encode_clopen(k)) == k
    assert not ClopenCompact({(0,), (1, 0)}).is_empty()


def test_clopen_roundtrip_and_emptiness():
    rng = rng_for("clopen")
    cases = [
        ClopenCompact(set()),
        ClopenCompact({(0,)}),
        ClopenCompact({(0, 0), (0, 1), (1, 0), (1, 1)}),
    ]
    assert not cases[0].is_empty()
    assert not cases[1].is_empty()
    assert cases[2].is_empty()
    for k in cases:
        assert decode_clopen(encode_clopen(k)) == k
    for _ in range(100):
        words = set()
        for _ in range(rng.randrange(4)):
            L = rng.randrange(1, 4)
            words.add(tuple(rng.randrange(2) for _ in range(L)))
        k = ClopenCompact(words)
        assert decode_clopen(encode_clopen(k)) == k
        depth = k.depth()
        brute_nonempty = any(
            k.admits(w) for w in itertools.product((0, 1), repeat=depth))
        assert (not k.is_empty()) == brute_nonempty


BITS = st.integers(0, 1)
WORDS = st.lists(BITS, max_size=4).map(tuple)


@st.composite
def fin_trees(draw):
    depth = draw(st.integers(0, 3))
    words = draw(st.lists(st.lists(BITS, max_size=depth).map(tuple), max_size=6))
    nodes = {w[:i] for w in words for i in range(len(w) + 1)}
    lives = draw(st.lists(st.builds(EvPeriodic, st.lists(BITS, max_size=3),
                                    st.lists(BITS, min_size=1, max_size=2)),
                          max_size=2))
    return FinTree(depth, nodes, lives)


# random exclusions, plus both children of a few words: those words are
# admitted but dead, where liveness differs from admission
COMPACTS = st.builds(
    lambda closed, words: ClopenCompact(
        {u + (b,) for u in closed for b in (0, 1)} | words),
    st.lists(st.lists(BITS, min_size=1, max_size=2).map(tuple), max_size=2),
    st.sets(WORDS, max_size=4))
LLPO_ROWS = st.one_of(
    st.just(EvPeriodic((), (0,))),
    st.integers(0, 7).map(lambda k: EvPeriodic((0,) * k + (1,), (0,))))
ROW_POINTS = st.builds(RowTuple, st.dictionaries(st.integers(0, 4), LLPO_ROWS,
                                                 max_size=3), LLPO_ROWS)


def brute_extensions(start, n, member):
    """Every word of length n extending start whose longer prefixes pass."""
    return [v for v in itertools.product((0, 1), repeat=n)
            if v[: len(start)] == start
            and all(member(v[:i]) for i in range(len(start) + 1, n + 1))]


@settings(max_examples=150, deadline=None)
@given(fin_trees(), COMPACTS, ROW_POINTS, WORDS, st.integers(0, 5))
def test_word_search_agrees_with_brute_force(tree, compact, rows, w, n):
    """Tree levels, admitted words, clopen liveness and constraint-tree
    extension, from the shared word search, against filters over all words."""
    assert tree.level(n) == brute_extensions((), n, tree.member)
    assert compact.admitted_words(n) == brute_extensions((), n, compact.admits)
    width = max(compact.depth(), len(w))
    assert compact.alive(w) == any(
        v[: len(w)] == w and compact.admits(v)
        for v in itertools.product((0, 1), repeat=width))
    ct = ConstraintTree(rows)
    m = len(w) + n
    want = ct.alive(w) or (ct.member(w)
                           and bool(brute_extensions(w, m, ct.member)))
    assert ct.extension_exists(w, m) == want


def test_admitted_words_grown_per_width_are_the_filtered_extensions():
    """Each width's admitted words, grown from the width below by a
    lookup per child, are the extensions every prefix of which the
    compact admits, at every width up to 8 and in any order of asking."""
    rng = rng_for("admitted-per-width")
    compacts = [mixed_clopen(rng) for _ in range(12)]
    compacts += [product_clopen(rng) for _ in range(12)]
    for compact in compacts:
        fresh = ClopenCompact(compact.excluded)
        for k in (8, *range(9)):
            assert compact.admitted_words(k) == extensions((), k, compact.admits)
            assert fresh.admitted_words(k) == compact.admitted_words(k)


def test_clopen_full_space_name():
    assert encode_clopen(ClopenCompact(set())) == EvPeriodic((), (0,))


def test_clopen_singleton_exclusion():
    k = ClopenCompact({(0,)})
    assert k.admits((1, 0, 1))
    assert not k.admits((0, 1))


def test_dyadic_canonical_form():
    assert Dyadic(2, 1) == Dyadic(1, 0)
    assert Dyadic(0, 5) == Dyadic(0, 0)
    assert Dyadic(-4, 2) == Dyadic(-1, 0)


def test_dyadic_roundtrip():
    rng = rng_for("dyadic")
    for _ in range(100):
        x = Dyadic(rng.randrange(-9, 10), rng.randrange(5))
        assert decode_dyadic(encode_dyadic(x)) == x


def test_dyadic_convergence_enforced():
    # approximations must close in at rate 2^-i
    bad = EvPeriodic((encode_code_of(Dyadic(5, 0)),), (encode_code_of(Dyadic(0, 0)),))
    with pytest.raises(NotAName):
        decode_dyadic(bad)


def encode_code_of(x):
    from weihrauchlab.spaces import dyadic_code
    return dyadic_code(x)
