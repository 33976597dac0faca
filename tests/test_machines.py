from itertools import count, product

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from references import (
    audit_monotone,
    diag_tuple_src,
    double_absorb_src,
    flatten_src,
    gather_src,
    interleave_words,
    join_src,
    merge_src,
    row_emit_length_per_code,
    shift_src,
    split_src,
    widen_src,
)

from weihrauchlab.corpus import any_points, rng_for, thin_tree
from weihrauchlab.errors import Stalled, UnsupportedShape
from weihrauchlab.machines import (
    DEFAULT_FUEL,
    Machine,
    PointView,
    ReadView,
    RowRule,
    RowView,
    Search,
    StrideView,
    _emit_budget,
    compose,
    const_machine,
    countable_tuple,
    diag,
    emit_rows,
    first_half,
    identity,
    index_machine,
    inject,
    output_stream,
    pair_machine,
    proj1,
    proj2,
    row_emit_length,
    row_machine,
    run_on_point,
    second_half,
    shift_l,
    stream_machine,
    symbol_machine,
    tag_case,
    tensor,
)
from weihrauchlab.points import (
    ZEROS,
    EvPeriodic,
    Interleave,
    LawPoint,
    Point,
    RowTuple,
    pair_decode,
    pair_encode,
    prefix,
    row,
    row_length,
)
from weihrauchlab.problems import llpo_problem, lpo_problem
from weihrauchlab.spaces import TreeChar
from weihrauchlab.witnesses import (
    VALIDATE_WIDTH,
    DiscontinuityData,
    Witness,
    as_ordinary,
    double_absorb_machine,
    id_to_c,
    id_to_llpo_hat,
    llpo_to_lpo,
    lpo_from_discontinuity,
    parallel_absorb,
    parallel_extensive,
    parallel_idem,
    parallel_product,
    parallel_sum,
    parallelize_witness,
    reflexivity,
    sum_witness,
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
    m = countable_tuple(identity())
    p = RowTuple({1: EvPeriodic((5,), (0,))}, EvPeriodic((), (2,)))
    w = prefix(p, 40)
    assert m.eval(w) == w


def test_countable_tuple_const_rows():
    m = countable_tuple(const_machine(EvPeriodic((), (0,))))
    p = RowTuple({}, EvPeriodic((), (9,)))
    out = m.eval(PointView(p, 30))
    assert set(out) == {0}


def test_countable_tuple_shift_rows():
    m = countable_tuple(shift_l())
    p = RowTuple({}, EvPeriodic((1,), (0,)))
    out = run_on_point(m, p, 64).output
    # every row of the image should be all zeros
    for n in range(8):
        for k in range(16):
            idx = pair_encode(n, k)
            if idx < len(out):
                assert out[idx] == 0


def test_countable_tuple_row_commutes():
    m = countable_tuple(shift_l())
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
    # reads every input symbol and emits none
    stall = stream_machine("stall", lambda w: (i for i in count() if w[i] is None))
    out = run_on_point(stall, EvPeriodic((), (0,)), 4, fuel=64)
    assert not out.productive
    assert out.output == ()
    assert out.width == 64      # every symbol it read up to the fuel


def test_run_on_point_counts_the_symbols_read():
    """A read-driven run reads what its depth symbols use, however far out:
    coordinate 4^j for symbol j, within a fuel of 8 reads."""
    p = EvPeriodic((), (1, 2, 3))
    spread = index_machine("powers", lambda j: 4 ** j)
    want = tuple(p.value_at(4 ** j) for j in range(8))
    out = run_on_point(spread, p, 8, fuel=8)
    assert out.productive and out.width == 8 and out.output == want
    out = run_on_point(spread, p, 9, fuel=8)
    assert not out.productive and out.width == 8 and out.output == want


READS = st.one_of(
    st.tuples(st.just("flat"), st.integers(0, 80)),
    st.tuples(st.just("row"), st.integers(0, 6), st.integers(0, 12)),
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((EvPeriodic((3, 0, 2), (1, 0)),
                        RowTuple({1: EvPeriodic((5,), (2,)), 4: EvPeriodic((), (7, 8))},
                                 EvPeriodic((1,), (0, 3))))),
       st.integers(0, 90), st.lists(READS, max_size=12))
def test_read_view_counts_each_coordinate_once(p, fuel, reads):
    """Flat reads and row reads mixed: reads is the number of distinct
    coordinates touched, and a read stalls exactly when it would take that
    number past the fuel, touching nothing."""
    v = ReadView(p, fuel)
    touched = set()
    for op, *args in reads:
        if op == "flat":
            want = touched | {args[0]}
        else:
            n, m = args
            want = touched | {pair_encode(n, k) for k in range(m)}
        if len(want) > fuel:
            with pytest.raises(Stalled):
                (v.__getitem__ if op == "flat" else v.read_row)(*args)
        else:
            if op == "flat":
                assert v[args[0]] == p.value_at(args[0])
            else:
                assert v.read_row(*args) == tuple(
                    p.value_at(pair_encode(n, k)) for k in range(m))
            touched = want
        assert v.reads == len(touched)


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
        countable_tuple(shift_l()),
        compose(proj1(), diag()),
    ]
    rng = rng_for("monotone")
    pts = any_points(rng, 10)
    for m in machines:
        for p in pts:
            lengths = sorted(rng.sample(range(65), 10))
            assert audit_monotone(m, p, lengths), m.name


def test_determinism():
    m = countable_tuple(shift_l())
    p = RowTuple({0: EvPeriodic((1, 2), (3,))}, EvPeriodic((), (0,)))
    w = prefix(p, 50)
    assert m.eval(w) == m.eval(w)


def test_fed_through_composition_against_handwritten_oracle():
    """The combinator assembly of the fed-through composition equals a
    directly written word function for the same formula."""
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
    inner = countable_tuple(shift_l())
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


INDICES = LawPoint(fn=lambda i: i, label="indices")


def _index_reference(m):
    """The eager loop of an index machine, on the schedule its point action
    reads: the action sends the point i -> i to j -> src(j)."""
    src = m.point(INDICES).value_at

    def ref(w):
        L = len(w)
        cap = max(64, (L + 2) * (L + 3))
        out = []
        j = 0
        while j < cap:
            i = src(j)
            if i >= L:
                break
            out.append(w[i])
            j += 1
        return tuple(out)
    return ref


def _diag_reference(w):
    out = []
    for i in range(len(w)):
        out.append(w[i])
        out.append(w[i])
    return tuple(out)


def _interleave_reference(a, b):
    n = min(2 * len(a), 2 * len(b) + 1)
    return tuple(a[i // 2] if i % 2 == 0 else b[i // 2] for i in range(n))


def _leaf(m, reference):
    return ("leaf", m, reference)


# the leaves that copy by an index law; index machines come with a row
# law as the parallelization witnesses build them
INDEX_LEAVES = [
    _leaf(identity(), lambda w: tuple(w)),
    _leaf(shift_l(), lambda w: tuple(w[i] for i in range(1, len(w)))),
    *(_leaf(k, _index_reference(k)) for k in (
        index_machine("evens", lambda i: 2 * i),
        parallel_absorb(llpo_problem())[0].K,
        parallel_idem(llpo_problem())[0].K,
        parallel_product(lpo_problem(), llpo_problem())[1].K))]
# A tree is a shape: ("leaf", machine, eager fn) or (combinator, parts...);
# build gives its machine, reference_eval its eager evaluation.
LEAVES = st.one_of(
    st.sampled_from([
        *INDEX_LEAVES[:2],
        _leaf(proj1(), lambda w: tuple(first_half(w))),
        _leaf(proj2(), lambda w: tuple(second_half(w))),
        _leaf(diag(), _diag_reference),
    ]),
    st.builds(lambda s: _leaf(inject(s), lambda w: (s,) + tuple(w)), SYMS),
    st.builds(lambda q: _leaf(const_machine(q), lambda w: prefix(q, len(w))), EVP),
    st.sampled_from(INDEX_LEAVES[2:]),
)


def _combined(parts):
    return st.one_of(
        st.tuples(st.just("pair"), parts, parts),
        st.tuples(st.just("tensor"), parts, parts),
        st.tuples(st.just("compose"), parts, parts),
        st.tuples(st.just("tuple"), parts),
        st.tuples(st.just("case"), parts, parts),
    )


def build(shape) -> Machine:
    kind, *args = shape
    if kind == "leaf":
        return args[0]
    if kind == "tuple":
        return countable_tuple(build(args[0]))
    combinator = {"pair": pair_machine, "tensor": tensor, "compose": compose,
                  "case": tag_case}[kind]
    return combinator(build(args[0]), build(args[1]))


def reference_eval(shape, w):
    """The eager evaluation that output views replaced: every combinator
    materializes its parts' outputs in full and each leaf runs its loop."""
    kind, *args = shape
    if kind == "leaf":
        return args[1](w)
    if kind == "pair":
        return _interleave_reference(reference_eval(args[0], w),
                                     reference_eval(args[1], w))
    if kind == "tensor":
        return _interleave_reference(reference_eval(args[0], first_half(w)),
                                     reference_eval(args[1], second_half(w)))
    if kind == "compose":
        return reference_eval(args[0], reference_eval(args[1], w))
    if kind == "case":
        # the tag loop of the hand-written sum machines
        if len(w) == 0:
            return ()
        rest = tuple(w[i] for i in range(1, len(w)))
        return reference_eval(args[0] if w[0] == 0 else args[1], rest)
    return emit_rows(lambda n: reference_eval(args[0], RowView(w, n)))


LEVEL1 = st.one_of(LEAVES, _combined(LEAVES))
SHAPES = st.one_of(LEVEL1, _combined(LEVEL1))   # combinator trees two deep
# composes of index-law leaves, which SHAPES draws rarely
INDEX_CHAINS = st.recursive(
    st.sampled_from(INDEX_LEAVES),
    lambda parts: st.tuples(st.just("compose"), parts, parts), max_leaves=4)
WIDE = 256


def _has_index_law(shape) -> bool:
    """identity, the index machines and composes of them copy by src."""
    kind, *args = shape
    if kind == "leaf":
        return any(shape is leaf for leaf in INDEX_LEAVES)
    return kind == "compose" and all(map(_has_index_law, args))


def _has_case(shape) -> bool:
    kind, *args = shape
    if kind == "leaf":
        return False
    return kind == "case" or any(map(_has_case, args))


@settings(max_examples=150, deadline=None)
@given(SHAPES, POINTS)
def test_derived_point_action_agrees_with_eval(shape, p):
    """A combinator's point action, built from its parts', emits what the
    machine emits, far past the checker's validation window; where the
    action has rows, its rows are the machine's rows."""
    m = build(shape)
    # tag_case has no point action, and a tree through it has none
    assert (m.point is None) == _has_case(shape), m.name
    if m.point is None:
        return
    try:
        q = m.point(p)
    except UnsupportedShape:
        reject()   # the action refuses a shape it cannot present (depair of rows)
    out = m.eval(PointView(p, WIDE))
    assert prefix(q, len(out)) == tuple(out), m.name
    for n in range(4):
        try:
            got = row(q, n)
        except UnsupportedShape:
            return
        r = RowView(out, n)
        assert prefix(got, len(r)) == tuple(r), (m.name, n)


def test_derived_point_action_reaches_past_the_validation_window():
    p = RowTuple({1: EvPeriodic((2,), (1,))}, EvPeriodic((0, 3), (1,)))
    m = compose(countable_tuple(compose(inject(5), shift_l())), identity())
    out = m.eval(PointView(p, WIDE))
    assert len(out) > 3 * VALIDATE_WIDTH
    assert prefix(m.point(p), len(out)) == tuple(out)


def test_row_laws_read_pairs_in_row_form():
    """A pair name reaches a row law in row normal form; flattening reads
    a pair without one, at either level, through the pairing; a rowwise
    action on such a pair refuses at once instead of on its first read."""
    flatten = parallel_idem(llpo_problem())[0].K
    join = parallel_product(lpo_problem(), llpo_problem())[1].K
    evens = index_machine("evens", lambda i: 2 * i)
    zeros = EvPeriodic((), (0,))
    for m, p in ((flatten, Interleave(zeros, zeros)),
                 (compose(flatten, join), zeros),
                 (compose(flatten, pair_machine(identity(), evens)), zeros),
                 (compose(flatten, compose(join, evens)), zeros)):
        out = m.eval(PointView(p, WIDE))
        q = m.point(p)
        assert prefix(q, len(out)) == tuple(out)
        for n in range(4):
            r = RowView(out, n)
            assert prefix(row(q, n), len(r)) == tuple(r)
    merge = parallel_absorb(llpo_problem())[0].K
    rowwise = compose(countable_tuple(identity()), pair_machine(identity(), merge))
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


# demand-driven evaluation ---------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(SHAPES | INDEX_CHAINS, POINTS)
def test_views_evaluate_as_the_eager_reference(shape, p):
    """eval returns what the eager evaluation returned; a view has eval's
    length and symbols, read in any order, and nothing past them.  Exactly
    the index-law machines have src, and output symbol j is input symbol
    src(j)."""
    m = build(shape)
    assert (m.src is not None) == _has_index_law(shape), m.name
    for width in (0, 1, 16, 64, 256):
        w = PointView(p, width)
        out = m.eval(w)
        assert out == reference_eval(shape, w), (m.name, width)
        if m.src is not None:
            assert out == tuple(w[m.src(j)] for j in range(len(out))), m.name
        v = m.view(w)
        assert len(v) == len(out), (m.name, width)
        assert tuple(v[i] for i in reversed(range(len(v)))) == out[::-1], m.name
        for i in (len(v), len(v) + 3):
            with pytest.raises(IndexError):
                v[i]


def test_compose_computes_only_the_inner_symbols_read():
    computed = []

    def counted(w, j):
        computed.append(j)
        return w[j % len(w)]

    inner = symbol_machine("counted", counted, lambda j: 1)
    outer = index_machine("squares", lambda j: j * j)
    p = EvPeriodic((), (1, 2, 3))
    out = compose(outer, inner).eval(PointView(p, 64))
    read = [j * j for j in range(len(out))]
    assert len(out) == 67   # 66 * 67 inner symbols, and 66^2 is the last read
    assert sorted(computed) == read
    assert out == tuple(counted(prefix(p, 64), j) for j in read)


def test_cylinder_K_reads_few_inner_symbols(monkeypatch):
    """strong_on_cylinder's K emits its 135 symbols from at most 1,000 of
    the inner cell-guess-pulse stage's 4,422 per name, and builds each row
    it reads them from once."""
    from weihrauchlab import witnesses
    from weihrauchlab.registry import named_witnesses

    built, computed = [], []

    class Counted(Point):
        def __init__(self, p):
            self.p = p

        def value_at(self, i):
            computed.append(i)
            return self.p.value_at(i)

    def counting_row_machine(name, row_of, needs):
        if name == "cell-guess-pulse":
            def counted(read, j):
                built.append(j)
                return Counted(row_of(read, j))
            return row_machine(name, counted, needs)
        return row_machine(name, row_of, needs)

    monkeypatch.setattr(witnesses, "row_machine", counting_row_machine)
    entry = named_witnesses()["strong_on_cylinder"]
    w = entry.build()
    for p in entry.corpus(rng_for("cli:strong_on_cylinder"), 5):
        built.clear()
        computed.clear()
        out = w.K.eval(PointView(p, VALIDATE_WIDTH))
        assert len(out) == 135
        assert 0 < len(built) == len(set(built))
        assert 0 < len(computed) <= 1000


def test_registry_Ks_still_emit_their_full_budget():
    """Validation still compares the whole K output at its width."""
    from weihrauchlab.registry import named_witnesses

    entries = named_witnesses()
    for name, emitted in (("id_to_c", 4422), ("id_to_llpo_hat", 4422),
                          ("parallel_extensive(llpo)", 2144)):
        entry = entries[name]
        w = entry.build()
        for p in entry.corpus(rng_for(f"cli:{name}"), 3):
            assert len(w.K.eval(PointView(p, VALIDATE_WIDTH))) == emitted, name


def widening_reference(m, p, depth, fuel=None):
    """The run_on_point that read-driven runs replaced: widen a finite
    window of p from 16 up to the fuel until eval emits depth symbols."""
    budget = DEFAULT_FUEL if fuel is None else fuel
    width = min(16, budget)
    while True:
        out = m.eval(PointView(p, width))
        if len(out) >= depth:
            return tuple(out[:depth]), True
        if width >= budget:
            return tuple(out), False
        width = min(width * 2, budget)


@settings(max_examples=200, deadline=None)
@given(SHAPES | INDEX_CHAINS, POINTS, st.integers(0, 48))
def test_read_driven_runs_emit_what_the_widening_loop_emitted(shape, p, depth):
    """Wherever the widening loop is productive, the read-driven run is,
    and emits the same depth symbols."""
    m = build(shape)
    want, productive = widening_reference(m, p, depth, fuel=4096)
    if productive:
        got = run_on_point(m, p, depth)
        assert got.productive, m.name
        assert got.output == want, m.name


def test_registry_H_runs_emit_what_the_widening_loop_emitted():
    """The same on every registered H, and on the H of a parallelized
    ordinary witness, on the names the checker feeds it at its registry
    depth."""
    from weihrauchlab.corpus import llpo_hat_inputs
    from weihrauchlab.registry import named_witnesses

    runs = [(name, e.build(), e.corpus, e.depth)
            for name, e in sorted(named_witnesses().items())]
    runs.append(("hat(ordinary)", parallelize_witness(as_ordinary(llpo_to_lpo())),
                 llpo_hat_inputs, 16))
    for name, w, corpus, depth in runs:
        for p in corpus(rng_for("widen:" + name), 2):
            q = w.k_point(p)
            for r in w.g.value_set(q).behaviors(6, 64)[:2]:
                feed = r if w.strong else Interleave(p, r)
                want, productive = widening_reference(w.H, feed, depth)
                assert productive, name
                got = run_on_point(w.H, feed, depth)
                assert got.productive and got.output == want, name


# row views ------------------------------------------------------------------

def test_row_length_is_the_counting_loop():
    """A row view's closed-form length equals counting k while <n,k> < L."""
    for n in range(64):
        k = 0
        for L in range(5000):
            while pair_encode(n, k) < L:
                k += 1
            assert len(RowView(range(L), n)) == k, (n, L)


def _laws(q):
    """q as a value law, and as a row law over q's own rows."""
    return st.sampled_from([
        LawPoint(fn=q.value_at, label="value-law"),
        LawPoint(row_fn=lambda n: row(q, n), label="row-law"),
    ])


ROWABLE = st.one_of(EVP, st.builds(Interleave, EVP, EVP),
                    st.builds(RowTuple, st.dictionaries(st.integers(0, 5), EVP,
                                                        max_size=3), EVP))
ROW_BASES = st.one_of(
    ROWABLE,
    ROWABLE.flatmap(_laws),
    # a pair with a law part does not normalize: no row form
    st.builds(lambda q, r: Interleave(LawPoint(fn=q.value_at), r), EVP, EVP),
    st.integers(0, 2 ** 16).map(lambda s: TreeChar(thin_tree(rng_for(s)))),
)


@settings(max_examples=200, deadline=None)
@given(ROW_BASES, st.integers(0, 600), st.integers(0, 8))
def test_row_view_reads_as_pair_addressing(p, width, n):
    """Whether it reads a row point or pairs, a row view of a point's
    prefix holds the symbols at <n,k>, and nothing past them."""
    r = RowView(PointView(p, width), n)
    want = tuple(p.value_at(pair_encode(n, k)) for k in range(len(r)))
    assert len(r) == row_length(width, n)
    assert tuple(r) == want
    assert tuple(r[k] for k in range(len(r))) == want
    with pytest.raises(IndexError):
        r[len(r)]


# row reads -----------------------------------------------------------------

def _shuffles():
    """The registered shuffle Ks, each given by its row law or its point
    action alone, with the closed-form index law it reads off that action:
    rediag, flatten, evenodd-merge, join-rows and double-absorb by rows,
    diag-tuple, split-rows, gather and L by their actions."""
    down, up = parallel_idem(llpo_problem())
    fwd, bwd = parallel_product(lpo_problem(), llpo_problem())
    return [(up.K, widen_src), (down.K, flatten_src),
            (parallel_absorb(llpo_problem())[0].K, merge_src),
            (bwd.K, join_src), (double_absorb_machine(), double_absorb_src),
            (parallel_extensive(llpo_problem()).K, diag_tuple_src),
            (fwd.K, split_src),
            (parallel_sum(llpo_problem(), llpo_problem()).K, gather_src),
            (shift_l(), shift_src)]


# the inputs of a shuffle: points in row form, and laws
SHUFFLED = st.one_of(ROWABLE, ROWABLE.flatmap(_laws))

ROW_HELD = st.one_of(
    # exception rows reach past the decode table's diagonals
    st.builds(RowTuple, st.dictionaries(st.integers(0, 120), ROWABLE,
                                        max_size=4), EVP),
    ROWABLE.map(lambda q: LawPoint(row_fn=lambda n: row(q, n),
                                   label="row-law")),
    st.tuples(st.sampled_from([m for m, _ in _shuffles()]), SHUFFLED).map(
        lambda mp: mp[0].point(mp[1])),
)


@settings(max_examples=60, deadline=None)
@given(ROW_HELD, st.integers(0, 5000))
@example(RowTuple({100: EvPeriodic((1,), (2, 3))}, EvPeriodic((), (0, 1))), 5000)
@example(_shuffles()[1][0].point(RowTuple({3: EvPeriodic((1,), (2,))},
                                          EvPeriodic((0,), (1, 3)))), 4466)
@example(double_absorb_machine().point(
    LawPoint(fn=EvPeriodic((1, 0), (2, 0, 1)).value_at)), 4466)
def test_points_holding_rows_read_their_prefix_by_rows(p, n):
    """A prefix read by rows is the prefix read symbol by symbol, on both
    sides of the decode table's bound, also for the images of the
    shuffles, a row law's image among them."""
    assert prefix(p, n) == tuple(map(p.value_at, range(n)))


def test_derived_index_laws_are_the_closed_forms():
    """A shuffle given by its row law or its point action reads its index
    law off that action: src(j) is the closed form for every j < 20,000."""
    js = range(20000)
    for m, ref in _shuffles():
        assert m.src is not None, m.name
        assert list(map(m.src, js)) == list(map(ref, js)), m.name


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_shuffles()), SHUFFLED, st.integers(0, 600))
def test_shuffle_actions_read_the_input_at_the_closed_forms(shuffle, p, n):
    """Each shuffle's point action, which is also its mirror, moves the
    input's symbols as the closed-form index law says: machine and mirror
    are one expression, so this reference is what catches a wrong one."""
    m, ref = shuffle
    assert prefix(m.point(p), n) == tuple(p.value_at(ref(j)) for j in range(n))
    out = m.eval(PointView(p, n))
    assert out == tuple(p.value_at(ref(j)) for j in range(len(out))), m.name


def _cell_guess_references():
    """The cell-guess Ks of id_to_c and id_to_llpo_hat as symbol machines
    with hand-written row-law mirrors, the form the row machines replaced."""
    def needs(i):
        return pair_decode(pair_decode(i)[0])[0] + 1

    def guess(w, i):
        j, _n = pair_decode(i)
        k, m = pair_decode(j)
        return 0 if w[k] == m else 1

    def guess_point(p):
        def row_of(j):
            k, m = pair_decode(j)
            return EvPeriodic((), (0 if p.value_at(k) == m else 1,))
        return LawPoint(row_fn=row_of, label="cell-guesses")

    def pulse_guess(w, i):
        j, n = pair_decode(i)
        k, m = pair_decode(j)
        if w[k] == m:
            return 1 if n == 1 else 0
        return 1 if n == 0 else 0

    def pulse_point(p):
        def row_of(j):
            k, m = pair_decode(j)
            if p.value_at(k) == m:
                return EvPeriodic((0, 1), (0,))
            return EvPeriodic((1,), (0,))
        return LawPoint(row_fn=row_of, label="cell-pulses")

    return [(symbol_machine("cell-guess", guess, needs, point=guess_point),
             id_to_c().K),
            (symbol_machine("cell-guess-pulse", pulse_guess, needs,
                            point=pulse_point),
             id_to_llpo_hat().K)]


def _assert_row_machine_as_reference(ref, m, w):
    out = ref.eval(w)
    assert m.eval(w) == out
    v = m.view(w)
    assert len(v) == len(out)
    assert tuple(v[i] for i in reversed(range(len(v)))) == out[::-1]
    for i in (len(v), len(v) + 3):
        with pytest.raises(IndexError):
            v[i]


def test_cell_guess_row_machines_as_the_symbol_machines():
    """The row machines emit, view and mirror what the symbol machines did,
    on every word over {0,1,2} up to length 6 and on point prefixes up to
    width 256, past the decode table's bound."""
    words = [w for n in range(7) for w in product(range(3), repeat=n)]
    points = any_points(rng_for("cell-guess"), 1) + [
        EvPeriodic((0,), (1, 2)),
        RowTuple({2: EvPeriodic((1,), (0,))}, EvPeriodic((2, 0), (1,)))]
    widths = list(range(65)) + [72, 164, 256]
    for ref, m in _cell_guess_references():
        for w in words:
            _assert_row_machine_as_reference(ref, m, w)
        for p in points:
            for width in widths:
                _assert_row_machine_as_reference(ref, m, PointView(p, width))
            n = len(m.eval(PointView(p, 64))) + 100
            want = tuple(map(ref.point(p).value_at, range(n)))
            assert prefix(m.point(p), n) == want
            assert tuple(map(m.point(p).value_at, range(n))) == want


# rewritten machines against the closures they replaced ------------------------

def _retag_reference(w):
    if len(w) == 0:
        return ()
    n = w[0]
    rest = tuple(w[i] for i in range(1, len(w)))
    return ((1 if n == 0 else 0),) + rest


def _renest_r_reference(w):
    # right-nested tag stream n.(m.)r -> left-nested
    if len(w) == 0:
        return ()
    n = w[0]
    rest = tuple(w[i] for i in range(1, len(w)))
    if n == 0:
        return (0, 0) + rest
    if len(rest) == 0:
        return ()
    m = rest[0]
    rr = rest[1:]
    return ((0, 1) + rr) if m == 0 else ((1,) + rr)


def _renest_l_reference(w):
    # left-nested tag stream (n.m.)r -> right-nested
    if len(w) == 0:
        return ()
    n = w[0]
    rest = tuple(w[i] for i in range(1, len(w)))
    if n != 0:
        return (1, 1) + rest
    if len(rest) == 0:
        return ()
    m = rest[0]
    rr = rest[1:]
    return ((0,) + rr) if m == 0 else ((1, 0) + rr)


def _strong_sum_reference(h1, h2):
    def h_fn(w):
        if len(w) == 0:
            return ()
        n, rest = w[0], tuple(w[i] for i in range(1, len(w)))
        inner = h1 if n == 0 else h2
        return ((0 if n == 0 else 1),) + tuple(inner.eval(rest))
    return h_fn


def _ordinary_sum_reference(a_h, b_h):
    def h_fn(w):
        pq = [w[i] for i in range(0, len(w), 2)]
        tagged = [w[i] for i in range(1, len(w), 2)]
        if not tagged:
            return ()
        n, rest = tagged[0], tuple(tagged[1:])
        p_word = tuple(pq[i] for i in range(0, len(pq), 2))
        q_word = tuple(pq[i] for i in range(1, len(pq), 2))
        if n == 0:
            return (0,) + tuple(a_h.eval(interleave_words(p_word, rest)))
        return (1,) + tuple(b_h.eval(interleave_words(q_word, rest)))
    return h_fn


def _scatter_reference(w):
    def h_src(t):
        j, u = pair_decode(t)
        if u == 0:
            return 0
        return 1 + pair_encode(u - 1, j)

    L = len(w)
    out = []
    t = 0
    while t < L:
        src = h_src(t)
        if src >= L:
            break
        out.append(w[src])
        t += 1
    return tuple(out)


def _ball_test_reference(cell_count, expected):
    def h_fn(w):
        if len(w) < cell_count:
            return ()
        seen = tuple(w[i] for i in range(cell_count))
        verdict = 1 if seen == tuple(expected) else 0
        return (verdict,) + (0,) * (len(w) - cell_count)
    return h_fn


def _rewritten_machines():
    """(rewritten machine, the closure it replaced) for each rewrite."""
    from weihrauchlab.registry import named_witnesses

    entries = named_witnesses()

    def built(name):
        return entries[name].build()

    out = [(built("sum_comm(lpo,llpo)").H, _retag_reference),
           (built("sum_assoc(lpo)").H, _renest_r_reference),
           (built("sum_assoc_rev(lpo)").H, _renest_l_reference),
           (parallel_sum(llpo_problem(), llpo_problem()).H, _scatter_reference)]
    for w1, w2 in ((llpo_to_lpo(), id_to_c()),
                   (reflexivity(lpo_problem()), parallel_extensive(llpo_problem()))):
        out.append((sum_witness(w1, w2).H, _strong_sum_reference(w1.H, w2.H)))
    for w1, w2 in ((built("prod_id_elim(lpo)"), llpo_to_lpo()),
                   (id_to_c(), built("uncyl(llpo_to_lpo)"))):
        out.append((sum_witness(w1, w2).H,
                    _ordinary_sum_reference(as_ordinary(w1).H, as_ordinary(w2).H)))
    data = DiscontinuityData(q=EvPeriodic((), (1,)),
                             family=lambda n: EvPeriodic((1,) * n + (0,), (1,)),
                             agree_bound=lambda L: L, cell_count=2, expected=(1, 0))
    out.append((lpo_from_discontinuity(data, lpo_problem()).H,
                _ball_test_reference(2, (1, 0))))
    return out


def test_rewritten_machines_emit_what_the_replaced_closures_emitted():
    """Each machine now built from tag_case and the schedule primitives
    emits the replaced closure's output, length included, on every word
    over {0,1,2} up to length 8 and on point prefixes up to width 256."""
    words = [w for n in range(9) for w in product(range(3), repeat=n)]
    points = any_points(rng_for("rewrites"), 8) + [
        EvPeriodic((0,), (1, 2)), EvPeriodic((1, 0), (0,)),
        EvPeriodic((2,), (0, 1)), EvPeriodic((0, 1), (1,)),
        Interleave(EvPeriodic((0,), (1,)), EvPeriodic((1, 2), (0,)))]
    widths = list(range(65)) + list(range(72, 257, 8))
    for m, reference in _rewritten_machines():
        for w in words:
            assert m.eval(w) == reference(w), (m.name, w)
        for p in points:
            for width in widths:
                v = PointView(p, width)
                assert m.eval(v) == reference(v), (m.name, p, width)


def test_row_emit_length_is_the_per_code_scan():
    """A row machine's emitted length, found from the first code of each
    row, is the per-code scan's: at every input length up to 130 at its
    budget, and with the budget on either side of a row's first code.
    needs need not be monotone (the cell guesses' is not)."""
    rng = rng_for("row-emit-length")
    table = [rng.randrange(40) for _ in range(256)]
    laws = [lambda r: pair_decode(r)[0] + 1, lambda r: r,
            lambda r: 2 * r + 1, lambda r: r * r, lambda r: 0,
            lambda r: 10 ** 9, table.__getitem__]
    for needs in laws:
        for L in range(131):
            cap = _emit_budget(L)
            assert (row_emit_length(needs, L, cap)
                    == row_emit_length_per_code(needs, L, cap)), L
        for r in range(1, 40):
            for cap in (pair_encode(r, 0) + d for d in (-1, 0, 1)):
                for L in (0, r, 2 * r, r * r):
                    assert (row_emit_length(needs, L, cap)
                            == row_emit_length_per_code(needs, L, cap))
        m = row_machine("rows", lambda read, j: ZEROS, needs)
        for L in (0, 1, 7, 64, 128):
            assert len(m.eval((0,) * L)) == row_emit_length_per_code(
                needs, L, _emit_budget(L))


def test_halves_of_a_word_are_its_stride_views():
    """A word's halves are its slices, with the stride views' symbols and
    lengths; a view's halves stay stride views."""
    for n in range(10):
        w = tuple(range(10, 10 + n))
        for half, offset in ((first_half, 0), (second_half, 1)):
            got, view = half(w), StrideView(w, 2, offset)
            assert isinstance(got, tuple)
            assert got == tuple(view) and len(got) == len(view)
            assert isinstance(half(PointView(ZEROS, n)), StrideView)


def test_a_fill_that_memo_covers_reads_nothing():
    """A stream filled to 5 serves a fill to 3 from its memo: the search
    pulls no symbol and the rule does not run again."""
    pulled = []
    search = Search(pulled.append(i) or i for i in count())
    search.fill(5)
    search.fill(3)
    assert search.memo == [0, 1, 2, 3, 4] and pulled == [0, 1, 2, 3, 4]

    calls = []

    def rule(v):
        calls.append(len(v))
        return tuple(v[i] for i in range(len(v)))

    rows = RowRule(rule, ReadView(EvPeriodic((), (1, 0))), None)
    rows.fill(5)
    ran = list(calls)
    rows.fill(3)
    assert calls == ran and rows.memo[:3] == (1, 0, 1)
    rows.fill(5)
    assert calls == ran


def test_a_kept_stream_reads_on_as_a_fresh_run():
    """output_stream filled to 4, then 9, then 2 holds what one run to 9
    reads, and counts the same input symbols read."""
    m = index_machine("odd", lambda j: 2 * j + 1)
    p = EvPeriodic((), (0, 1, 1))
    v = ReadView(p)
    kept = output_stream(m, v)
    for n in (4, 9, 2):
        kept.fill(n)
    fresh = run_on_point(m, p, 9)
    assert tuple(kept.memo) == fresh.output and v.reads == fresh.width

