import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from weihrauchlab.corpus import any_points, rng_for
from weihrauchlab.errors import UnsupportedShape
from weihrauchlab.machines import (
    Machine,
    PointView,
    RowView,
    audit_monotone,
    compose,
    const_machine,
    countable_tuple,
    diag,
    identity,
    index_machine,
    inject,
    pair_machine,
    proj1,
    proj2,
    run_on_point,
    shift_l,
    tensor,
)
from weihrauchlab.points import (
    EvPeriodic,
    Interleave,
    RowTuple,
    pair_encode,
    prefix,
    row,
    rows_of,
)
from weihrauchlab.problems import llpo_problem, lpo_problem
from weihrauchlab.witnesses import (
    VALIDATE_WIDTH,
    Witness,
    parallel_absorb,
    parallel_idem,
    parallel_product,
)


def test_proj1_deinterleaves():
    p = EvPeriodic((1, 2, 3), (4,))
    q = EvPeriodic((), (9,))
    out = proj1().eval(PointView(Interleave(p, q), 10))
    assert out == prefix(p, 5)


def test_shift_drops_first():
    assert shift_l().eval((3, 1, 4, 1)) == (1, 4, 1)


def test_tensor_of_identities():
    p = Interleave(EvPeriodic((1,), (0,)), EvPeriodic((), (2,)))
    w = prefix(p, 12)
    assert tensor(identity(), identity()).eval(w) == w


def test_compose_shift_inject():
    m = compose(shift_l(), inject(0))
    for p in any_points(rng_for("compose"), 10):
        w = prefix(p, 20)
        assert m.eval(w) == w


def test_compose_identity_laws():
    m = Machine("double", lambda w: tuple(2 * x for x in w))
    for p in any_points(rng_for("ident"), 5):
        w = prefix(p, 16)
        assert compose(identity(), m).eval(w) == m.eval(w)
        assert compose(m, identity()).eval(w) == m.eval(w)


def test_preorder_composition_against_oracle():
    """The chained translation of two reductions equals the direct one."""
    h1 = Machine("H", lambda w: tuple(x + 1 for x in w))
    k1 = shift_l()
    h2 = Machine("H'", lambda w: tuple(2 * x for x in w))
    k2 = inject(3)
    # inner translation of the composite: K'' = K K'
    chained = compose(k1, k2)
    rng = rng_for("preorder")
    for _ in range(50):
        w = tuple(rng.randrange(5) for _ in range(rng.randrange(1, 40)))
        assert chained.eval(w) == k1.eval(k2.eval(w))
        # outer side: H'' must reproduce H' after H on the shared prefix
        assert compose(h1, h2).eval(w) == h1.eval(h2.eval(w))


def test_countable_tuple_identity():
    m = countable_tuple([], identity())
    p = RowTuple({1: EvPeriodic((5,), (0,))}, EvPeriodic((), (2,)))
    w = prefix(p, 40)
    assert m.eval(w) == w


def test_countable_tuple_const_rows():
    m = countable_tuple([], const_machine(EvPeriodic((), (0,))))
    p = RowTuple({}, EvPeriodic((), (9,)))
    out = m.eval(PointView(p, 30))
    assert set(out) == {0}


def test_countable_tuple_shift_rows():
    m = countable_tuple([], shift_l())
    p = RowTuple({}, EvPeriodic((1,), (0,)))
    out = run_on_point(m, p, 64).output
    # every row of the image should be all zeros
    for n in range(8):
        for k in range(16):
            idx = pair_encode(n, k)
            if idx < len(out):
                assert out[idx] == 0


def test_countable_tuple_row_commutes():
    m = countable_tuple([], shift_l())
    p = RowTuple({2: EvPeriodic((7, 8, 9), (0,))}, EvPeriodic((3,), (1,)))
    out = run_on_point(m, p, 80).output
    from weihrauchlab.points import row
    for n in range(4):
        want = prefix(row(p, n), 4)[1:]   # shifted row
        for k in range(3):
            idx = pair_encode(n, k)
            if idx < len(out):
                assert out[idx] == want[k]


def test_run_on_point_identity_and_const():
    p = EvPeriodic((4, 2), (1,))
    q = EvPeriodic((), (6,))
    assert run_on_point(identity(), p, 8).output == prefix(p, 8)
    assert run_on_point(const_machine(q), p, 8).output == prefix(q, 8)


def test_run_on_point_fuel_exhaustion_flag():
    stall = Machine("stall", lambda w: (), fuel=64)
    out = run_on_point(stall, EvPeriodic((), (0,)), 4)
    assert not out.productive
    assert out.output == ()


def test_diag_law():
    assert diag().eval((1, 2)) == (1, 1, 2, 2)


def test_pair_machine_interleaves():
    m = pair_machine(identity(), shift_l())
    out = m.eval((5, 6, 7))
    assert out == (5, 6, 6, 7, 7)   # first slot may run one ahead


def test_monotonicity_audit():
    machines = [
        identity(), shift_l(), proj1(), proj2(), diag(), inject(1),
        pair_machine(identity(), shift_l()),
        tensor(shift_l(), identity()),
        countable_tuple([], shift_l()),
        compose(proj1(), diag()),
    ]
    rng = rng_for("monotone")
    pts = any_points(rng, 10)
    for m in machines:
        for p in pts:
            lengths = sorted(rng.sample(range(65), 10))
            assert audit_monotone(m, p, lengths), m.name


def test_determinism():
    m = countable_tuple([shift_l()], identity())
    p = RowTuple({0: EvPeriodic((1, 2), (3,))}, EvPeriodic((), (0,)))
    w = prefix(p, 50)
    assert m.eval(w) == m.eval(w)


def test_fed_through_composition_against_handwritten_oracle():
    """The combinator assembly of the fed-through composition equals a
    directly written word function for the same formula."""
    from weihrauchlab.machines import first_half, interleave_words, second_half

    h_outer = Machine("H'", lambda w: tuple(x + 1 for x in w))
    h_inner = Machine("H", lambda w: tuple(2 * x for x in w))
    k_inner = shift_l()

    assembled = compose(
        h_outer,
        pair_machine(proj1(), compose(h_inner, tensor(k_inner, identity()))))

    def oracle(w):
        p = tuple(first_half(w))
        r = tuple(second_half(w))
        inner = h_inner.eval(interleave_words(k_inner.eval(p), r))
        return h_outer.eval(interleave_words(p, inner))

    rng = rng_for("fed-through")
    for _ in range(50):
        w = tuple(rng.randrange(4) for _ in range(rng.randrange(1, 48)))
        assert assembled.eval(w) == oracle(w)


def test_composition_respects_induced_semantics():
    """Running a composite on a point chains the stage outputs."""
    inner = countable_tuple([], shift_l())
    outer = proj1()
    composite = compose(outer, inner)
    for p in any_points(rng_for("chain"), 8):
        direct = run_on_point(composite, p, 24)
        staged_in = inner.eval(PointView(p, 2048))
        want = outer.eval(staged_in)[:len(direct.output)]
        assert tuple(direct.output) == tuple(want[:len(direct.output)])


# derived point actions ------------------------------------------------------

SYMS = st.integers(0, 3)
EVP = st.builds(EvPeriodic, st.lists(SYMS, max_size=4).map(tuple),
                st.lists(SYMS, min_size=1, max_size=3).map(tuple))
POINTS = st.one_of(
    EVP,
    st.builds(Interleave, EVP, EVP),
    st.builds(RowTuple, st.dictionaries(st.integers(0, 5), EVP, max_size=3), EVP),
)
LEAVES = st.one_of(
    st.sampled_from([identity(), shift_l(), proj1(), proj2(), diag(),
                     index_machine("evens", lambda i: 2 * i)]),
    st.builds(inject, SYMS),
    st.builds(const_machine, EVP),
    # index machines with a row law, as the parallelization witnesses build them
    st.sampled_from([parallel_absorb(llpo_problem())[0].K,
                     parallel_idem(llpo_problem())[0].K,
                     parallel_product(lpo_problem(), llpo_problem())[1].K]),
)


def _combined(parts):
    return st.one_of(
        st.builds(pair_machine, parts, parts),
        st.builds(tensor, parts, parts),
        st.builds(compose, parts, parts),
        st.builds(countable_tuple, st.lists(parts, max_size=2), parts),
    )


LEVEL1 = st.one_of(LEAVES, _combined(LEAVES))
TREES = st.one_of(LEVEL1, _combined(LEVEL1))   # combinator trees two deep
WIDE = 256


@settings(max_examples=150, deadline=None)
@given(TREES, POINTS)
def test_derived_point_action_agrees_with_eval(m, p):
    """A combinator's point action, built from its parts', emits what the
    machine emits, far past the checker's validation window; where the
    action has rows, its rows are the machine's rows."""
    try:
        q = m.point(p)
    except UnsupportedShape:
        reject()   # the action refuses a shape it cannot present (depair of rows)
    out = m.eval(PointView(p, WIDE))
    assert prefix(q, len(out)) == tuple(out), m.name
    q = rows_of(q)
    if isinstance(q, Interleave):
        return
    for n in range(4):
        try:
            got = row(q, n)
        except UnsupportedShape:
            return
        r = RowView(out, n)
        assert prefix(got, len(r)) == tuple(r), (m.name, n)


def test_derived_point_action_reaches_past_the_validation_window():
    p = RowTuple({1: EvPeriodic((2,), (1,))}, EvPeriodic((0, 3), (1,)))
    m = compose(countable_tuple([], compose(inject(5), shift_l())), identity())
    out = m.eval(PointView(p, WIDE))
    assert len(out) > 3 * VALIDATE_WIDTH
    assert prefix(m.point(p), len(out)) == tuple(out)


def test_row_laws_read_pairs_in_row_form():
    """A pair name reaches a row law in row normal form; a rowwise action
    on a pair without one refuses at once instead of on its first read."""
    flatten = parallel_idem(llpo_problem())[0].K
    join = parallel_product(lpo_problem(), llpo_problem())[1].K
    zeros = EvPeriodic((), (0,))
    for m, p in ((flatten, Interleave(zeros, zeros)),
                 (compose(flatten, join), zeros)):
        out = m.eval(PointView(p, WIDE))
        q = m.point(p)
        assert prefix(q, len(out)) == tuple(out)
        for n in range(4):
            r = RowView(out, n)
            assert prefix(row(q, n), len(r)) == tuple(r)
    merge = parallel_absorb(llpo_problem())[0].K
    rowwise = compose(countable_tuple([], identity()), pair_machine(identity(), merge))
    with pytest.raises(UnsupportedShape):
        rowwise.point(zeros)


def test_witness_refuses_a_K_without_point_action():
    bare = Machine("bare", lambda w: tuple(w))
    assert compose(identity(), bare).point is None
    assert pair_machine(bare, identity()).point is None
    with pytest.raises(ValueError):
        Witness(lpo_problem(), lpo_problem(), bare, identity(), True)
    with pytest.raises(ValueError):
        Witness(lpo_problem(), lpo_problem(), compose(identity(), bare),
                identity(), True)
