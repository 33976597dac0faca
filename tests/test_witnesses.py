import pytest

from weihrauchlab.corpus import (
    any_points,
    dyadic_names,
    llpo_hat_inputs,
    llpo_points,
    pair_points,
    rng_for,
)
from weihrauchlab.errors import (
    CapacityExceeded,
    MiddleMismatch,
    NotACylinder,
    OutOfDomain,
)
from weihrauchlab.machines import Machine, identity, run_on_point, symbol_machine
from weihrauchlab.medvedev import MassProblem, embed_forward
from weihrauchlab.points import EvPeriodic, Interleave, RowTuple, prefix
from weihrauchlab.problems import (
    bottom_problem,
    c_problem,
    hat_problem,
    id_problem,
    llpo_hat_problem,
    llpo_problem,
    llpo_real_problem,
    lpo_problem,
)
from weihrauchlab.weakcomp import llpo_hat_to_compact
from weihrauchlab.witnesses import (
    CheckEntry,
    DiscontinuityData,
    Report,
    Witness,
    as_ordinary,
    check,
    compose_witness,
    cylindrify,
    glb_factor,
    glb_witnesses,
    hat_is_cylinder,
    id_to_c,
    id_to_llpo_hat,
    least_degree,
    llpo_real_to_llpo,
    llpo_to_llpo_real,
    llpo_to_lpo,
    lpo_from_discontinuity,
    parallel_absorb,
    parallel_extensive,
    parallel_idem,
    parallelize_witness,
    product_witness,
    reflexivity,
    repr_transport,
    strengthen_on_cylinder,
    sum_idem,
    sum_witness,
    uncylindrify,
)


def llpo_corpus(n=10, seed="w"):
    return llpo_points(rng_for(seed), n)


def dyadic_rows(n=6, seed="dyadic-rows"):
    """Row tuples whose default and exception rows are dyadic names."""
    rng = rng_for(seed)
    out = []
    for _ in range(n):
        names = dyadic_names(rng, 4)
        out.append(RowTuple({rng.randrange(6): q for q in names[1:]}, names[0]))
    return out


def test_reflexivity_passes_for_registered_problems():
    from weihrauchlab.corpus import rowable_points
    cases = [
        (lpo_problem(), any_points(rng_for("r1"), 8)),
        (llpo_problem(), llpo_corpus()),
        (llpo_hat_problem(), llpo_hat_inputs(rng_for("r2"), 6)),
        (id_problem(), any_points(rng_for("r3"), 8)),
        (c_problem(), rowable_points(rng_for("r4"), 6)),
        (hat_problem(llpo_real_problem()), dyadic_rows()),
    ]
    for prob, corpus in cases:
        rep = check(reflexivity(prob), corpus, depth=10)
        assert rep.passed, rep.render()


def test_llpo_to_lpo_hand_law():
    w = llpo_to_lpo()
    p = EvPeriodic((5,), (0,))
    kp = w.k_point(p)
    # the inner translation complements the even entries
    assert prefix(kp, 4) == (0, 1, 1, 1)
    rep = check(w, [p], depth=8)
    assert rep.passed


def test_llpo_to_lpo_on_free_point():
    w = llpo_to_lpo()
    rep = check(w, [EvPeriodic((), (0,))], depth=8)
    assert rep.passed    # oracle answers 1, negated to 0, allowed by {0,1}


def test_broken_witness_fails_with_coordinate():
    w = llpo_to_lpo()
    copy_h = symbol_machine("copy", lambda wd, j: wd[0] if j == 0 else 0,
                            lambda j: j + 1)
    bad = Witness(w.f, w.g, w.K, copy_h, True, name="bad")
    rep = check(bad, [EvPeriodic((5,), (0,))], depth=8)
    assert not rep.passed
    assert rep.failures()[0].coordinate == 0


def test_corpus_outside_domain_rejected():
    w = llpo_to_lpo()
    with pytest.raises(OutOfDomain):
        check(w, [EvPeriodic((1, 1), (0,))], depth=4)


def name_alike_middle():
    """c_A <= c_A twice, through two constant problems that both render as
    c_A but hold different members: {1^w} then {0^w}."""
    zeros, ones = EvPeriodic((), (0,)), EvPeriodic((), (1,))
    f = Machine("to-zeros", lambda w: prefix(zeros, len(w)))
    a, b, c = MassProblem([zeros]), MassProblem([ones]), MassProblem([zeros])
    w1, w2 = embed_forward(f, a, b), embed_forward(f, c, a)
    assert w1.g.name == w2.f.name == "c_A"
    return w1, w2


def test_compose_requires_matching_middle():
    for w1, w2 in ((llpo_to_lpo(), llpo_to_lpo()), name_alike_middle()):
        with pytest.raises(MiddleMismatch):
            compose_witness(w1, w2)


def test_hat_cylinder_needs_an_id_witness_into_its_own_hat():
    with pytest.raises(MiddleMismatch):
        hat_is_cylinder(llpo_problem(), id_to_c())
    with pytest.raises(NotACylinder):
        hat_is_cylinder(llpo_problem(), parallel_extensive(llpo_problem()))
    assert hat_is_cylinder(lpo_problem(), id_to_c()).name == "cylinder(lpo_hat)"


def test_compose_reflexivity_both_sides():
    f = llpo_problem()
    r = reflexivity(f)
    rep = check(compose_witness(r, r), llpo_corpus(), depth=10)
    assert rep.passed
    # right identity against a real reduction
    rep2 = check(compose_witness(llpo_to_lpo(), reflexivity(lpo_problem())),
                 llpo_corpus(), depth=10)
    assert rep2.passed
    rep3 = check(compose_witness(reflexivity(llpo_problem()), llpo_to_lpo()),
                 llpo_corpus(), depth=10)
    assert rep3.passed


def test_compose_transitivity_chain():
    chain = compose_witness(llpo_real_to_llpo(), llpo_to_lpo())
    rep = check(chain, dyadic_names(rng_for("dy"), 10), depth=10)
    assert rep.passed


def test_compose_ordinary_formula():
    # mixed strengths force the fed-through composition
    ext = parallel_extensive(llpo_problem())
    chain = compose_witness(as_ordinary(llpo_to_lpo()),
                            as_ordinary(reflexivity(lpo_problem())))
    rep = check(chain, llpo_corpus(), depth=8)
    assert rep.passed


def test_product_witness_and_negative_half():
    good = product_witness(llpo_to_lpo(), llpo_to_lpo())
    corpus = pair_points(rng_for("pp"), lambda r: llpo_points(r, 1)[0],
                         lambda r: llpo_points(r, 1)[0], 8)
    assert check(good, corpus, depth=10).passed
    copy_h = symbol_machine("copy", lambda wd, j: wd[0] if j == 0 else 0,
                            lambda j: j + 1)
    w = llpo_to_lpo()
    bad_half = Witness(w.f, w.g, w.K, copy_h, True, name="bad")
    broken = product_witness(w, bad_half)
    rep = check(broken,
                [Interleave(EvPeriodic((5,), (0,)), EvPeriodic((5,), (0,)))],
                depth=8)
    assert not rep.passed
    assert any(e.coordinate is not None for e in rep.failures())


def test_sum_monotone_and_idem():
    w = sum_witness(llpo_to_lpo(), llpo_to_lpo())
    corpus = pair_points(rng_for("sp"), lambda r: llpo_points(r, 1)[0],
                         lambda r: llpo_points(r, 1)[0], 8)
    assert check(w, corpus, depth=10).passed
    fwd, bwd = sum_idem(lpo_problem())
    assert check(fwd, any_points(rng_for("si"), 8), depth=10).passed
    pair_corpus = pair_points(rng_for("si2"), lambda r: any_points(r, 1)[0],
                              lambda r: any_points(r, 1)[0], 8)
    assert check(bwd, pair_corpus, depth=10).passed


def test_glb_and_factoring():
    f, g = lpo_problem(), llpo_problem()
    to_f, to_g = glb_witnesses(f, g)
    corpus = pair_points(rng_for("glb"), lambda r: any_points(r, 1)[0],
                         lambda r: llpo_points(r, 1)[0], 8)
    assert check(to_f, corpus, depth=10).passed
    assert check(to_g, corpus, depth=10).passed
    # a computable problem factors through the lower bound
    q = EvPeriodic((), (0,))
    wf = least_degree(id_problem(), identity(), f, q)
    wg = least_degree(id_problem(), identity(), g, q)
    fact = glb_factor(wf, wg)
    assert check(fact, any_points(rng_for("fact"), 6), depth=8).passed


def test_least_degree():
    w = least_degree(id_problem(), identity(), llpo_problem(),
                     EvPeriodic((), (0,)))
    assert check(w, any_points(rng_for("ld"), 8), depth=10).passed


def test_nothing_reduces_to_bottom_except_empty_domain():
    bot = bottom_problem()
    # bottom reduces to bottom vacuously: no behaviors to fail on, but also
    # no corpus can make headway, so the reduction from a real problem fails
    w = Witness(lpo_problem(), bot, identity(), identity(), True)
    rep = check(w, any_points(rng_for("bot"), 4), depth=6)
    assert not rep.entries   # zero oracle branches: vacuous, never a pass
    assert not rep.passed
    # and everything reduces to problems with a computable domain point
    w2 = least_degree(id_problem(), identity(), lpo_problem(),
                      EvPeriodic((), (1,)))
    assert check(w2, any_points(rng_for("bot2"), 4), depth=6).passed


def test_cylindrify_round_trip():
    w = llpo_to_lpo()
    cyl = cylindrify(w)
    corpus = pair_points(rng_for("cyl"), lambda r: any_points(r, 1)[0],
                         lambda r: llpo_points(r, 1)[0], 8)
    assert check(cyl, corpus, depth=10).passed
    back = uncylindrify(cyl, llpo_problem(), lpo_problem())
    assert check(back, llpo_corpus(), depth=10).passed


def test_cylindrify_reflexivity():
    cyl = cylindrify(reflexivity(llpo_problem()))
    corpus = pair_points(rng_for("cylr"), lambda r: any_points(r, 1)[0],
                         lambda r: llpo_points(r, 1)[0], 6)
    assert check(cyl, corpus, depth=8).passed


def test_strengthen_on_cylinder():
    cylw = hat_is_cylinder(llpo_problem(), id_to_llpo_hat())
    strong = strengthen_on_cylinder(parallel_extensive(llpo_problem()), cylw)
    assert strong.strong
    corpus = llpo_points(rng_for("str"), 6, allow_free=False)
    assert check(strong, corpus, depth=10).passed


def test_parallel_closure_triple():
    for f, corpus in ((lpo_problem(), any_points(rng_for("pc1"), 6)),
                      (llpo_problem(),
                       llpo_points(rng_for("pc2"), 6, allow_free=False)),
                      (llpo_real_problem(), dyadic_names(rng_for("pc6"), 10))):
        assert check(parallel_extensive(f), corpus, depth=10).passed
    for w, corpus in ((llpo_to_lpo(), llpo_hat_inputs(rng_for("pc3"), 6)),
                      (llpo_real_to_llpo(), dyadic_rows(seed="pc7"))):
        assert check(parallelize_witness(w), corpus, depth=10).passed
    absorb, split = parallel_absorb(llpo_problem())
    pairs = pair_points(rng_for("pc4"), lambda r: llpo_hat_inputs(r, 1)[0],
                        lambda r: llpo_hat_inputs(r, 1)[0], 5)
    assert check(absorb, pairs, depth=10).passed
    assert check(split, llpo_hat_inputs(rng_for("pc5"), 5), depth=10).passed


def test_repr_transport_through_padding():
    """Transport a reduction along a junk-symbol representation change:
    primed names carry one extra leading symbol on every space."""
    from weihrauchlab.machines import inject, shift_l
    from weihrauchlab.points import point_prepend, subsample
    from weihrauchlab.problems import (
        FiniteNatsSet,
        Problem,
        TaggedUnionSet,
        llpo_value,
        lpo_value,
    )

    w = llpo_to_lpo()

    def strip_pt(p):
        return subsample(p, 1, 1)

    def padded_nats(values):
        inner = FiniteNatsSet(values)
        return TaggedUnionSet(inner, inner)   # any leading junk symbol

    primed_f = Problem(
        "llpo'",
        lambda p: llpo_problem().in_domain(strip_pt(p)),
        lambda p: padded_nats(llpo_value(strip_pt(p))))
    primed_g = Problem(
        "lpo'",
        lambda p: lpo_problem().in_domain(strip_pt(p)),
        lambda p: padded_nats(lpo_value(strip_pt(p))))

    # Q strips the primed input, S re-pads the inner translation's output,
    # T strips the primed oracle answer, R re-pads the final answer
    t = repr_transport(w, shift_l(), inject(0), inject(7), shift_l(),
                       primed_f, primed_g)
    corpus = [point_prepend(7, p) for p in llpo_corpus(6, "transport")]
    rep = check(t, corpus, depth=8)
    assert rep.passed, rep.render()


def test_lpo_from_discontinuity():
    """The zero-search problem reduces to a single-valued discontinuous map."""
    from weihrauchlab.problems import Problem, SinglePointSet
    from weihrauchlab.spaces import encode_nat

    def sem(p):
        from weihrauchlab.points import exists_zero
        return encode_nat(0 if exists_zero(p) else 1)

    disc = Problem("zero-test-map", lambda p: True, lambda p: SinglePointSet(sem(p)))
    q = EvPeriodic((), (1,))

    def family(n):
        head = [1] * n + [0]
        return EvPeriodic(tuple(head), (1,))

    data = DiscontinuityData(
        q=q,
        family=family,
        agree_bound=lambda L: L,
        cell_count=1,
        expected=(1,),
    )
    w = lpo_from_discontinuity(data, disc)
    corpus = any_points(rng_for("disc"), 10)
    rep = check(w, corpus, depth=6)
    assert rep.passed, rep.render()


def test_cylinder_machine_hand_evaluation():
    """Running the cell-guess translation on the all-ones stream matches
    the defining case split evaluated by hand."""
    from weihrauchlab.points import pair_decode

    w = id_to_c()
    p = EvPeriodic((), (1,))
    out = run_on_point(w.K, p, 12).output
    for i, got in enumerate(out):
        j, _n = pair_decode(i)
        k, m = pair_decode(j)
        want = 0 if 1 == m else 1      # p(k) = 1 for every k
        assert got == want


def test_omniscience_separation_expected_failure():
    """A naive candidate for reducing zero-search to the parity principle
    must fail: the free point leaves the oracle free while the answer is
    pinned.  The separation itself is not verifiable here; the candidate's
    rejection is."""
    from weihrauchlab.machines import symbol_machine

    copy_h = symbol_machine("copy", lambda wd, j: wd[0] if j == 0 else 0,
                            lambda j: j + 1)
    candidate = Witness(lpo_problem(), llpo_problem(), identity(), copy_h,
                        True, name="lpo<=llpo?")
    rep = check(candidate, [EvPeriodic((), (0,))], depth=8)
    assert not rep.passed
    assert any(e.coordinate == 0 for e in rep.failures())


def test_strengthen_requires_matching_cylinder():
    from weihrauchlab.errors import NotACylinder
    wrong_cyl = reflexivity(lpo_problem())
    with pytest.raises(NotACylinder):
        strengthen_on_cylinder(parallel_extensive(llpo_problem()), wrong_cyl)


def test_a_stall_is_unverified_not_a_failure():
    """Branches that only stalled leave the witness unverified; a definite
    coordinate or an error anywhere still makes the verdict FAIL.  passed
    and failures() keep their meaning."""
    stall = CheckEntry("p", 0, "stall", note="only 3 symbols")
    ok = CheckEntry("p", 1, "pass")
    rep = Report("w", 24, [ok, stall, stall])
    assert not rep.passed and rep.failures() == [stall, stall]
    assert rep.unverified
    assert rep.verdict() == "UNVERIFIED (2/3 branches stall at fuel)"
    for bad in (CheckEntry("p", 2, "fail", coordinate=5),
                CheckEntry("q", -1, "error", note="K mirror mismatch"),
                CheckEntry("q", -1, "fail", note="K image outside dom(lpo)")):
        rep = Report("w", 24, [stall, bad])
        assert not rep.unverified
        assert rep.verdict().startswith("FAIL (2/2 branches, first stall")
    assert not Report("w", 24, [ok]).unverified
    assert not Report("w", 24, []).unverified


def test_a_capacity_of_k_stays_with_its_name():
    """Negative control: a compact encoder pulse past ENCODER_ROW_CAP on
    the second name.  That name is one capacity entry with the limit's
    message, the first is still checked, and the verdict reads UNVERIFIED
    and names the capacity, on the first check and from the memo."""
    zeros = EvPeriodic((), (0,))
    corpus = [RowTuple({0: EvPeriodic((1,), (0,))}, zeros),
              RowTuple({0: EvPeriodic((1,), (0,)),
                        11: EvPeriodic((0, 1), (0,))}, zeros)]
    w = llpo_hat_to_compact()
    for _ in range(2):
        rep = check(w, corpus, depth=8)
        assert [e.status for e in rep.entries] == ["pass", "capacity"]
        assert rep.entries[1].note == "forced coordinate 11 beyond the cap"
        assert rep.unverified
        assert rep.verdict() == "UNVERIFIED (1/2 branches exceed a capacity of K)"


def test_a_capacity_of_k_on_the_word_is_unverified():
    """A K whose run on the validation word exceeds a capacity, with a
    point action that does not, leaves the name unverified too; stalls
    and capacities are counted apart, and a refutation still FAILs."""
    def capped(w):
        raise CapacityExceeded("word cap")

    k = Machine("capped", capped, point=lambda p: p)
    rep = check(Witness(llpo_problem(), llpo_problem(), k, identity(), True),
                [EvPeriodic((), (0,))], depth=4)
    assert [(e.status, e.note) for e in rep.entries] == [("capacity", "word cap")]
    stall = CheckEntry("p", 0, "stall", note="only 3 symbols")
    cap = rep.entries[0]
    assert Report("w", 4, [stall, cap, CheckEntry("p", 1, "pass")]).verdict() == (
        "UNVERIFIED (1/3 branches stall at fuel, "
        "1/3 branches exceed a capacity of K)")
    refuted = Report("w", 4, [cap, CheckEntry("p", 2, "fail", coordinate=1)])
    assert not refuted.unverified
    assert refuted.verdict() == "FAIL (2/2 branches, first capacity)"


def test_mirror_validation_reads_an_index_law_by_its_rows():
    """Negative control of the mirror layer: rediag with a row law that
    answers zeros while its index law copies the input.  The value set
    reads the row law, so every name must be refused as a mirror
    mismatch, not blamed on H."""
    from weihrauchlab.machines import index_machine
    from weihrauchlab.points import ZEROS
    from weihrauchlab.registry import named_witnesses

    up = parallel_idem(llpo_problem())[1]
    k = index_machine("rediag", up.K.src, rows=lambda p: lambda j: ZEROS)
    wrong = Witness(up.f, up.g, k, up.H, True, name="zero-rows")
    entry = named_witnesses()["parallel_idem_up(llpo)"]
    corpus = entry.corpus(rng_for("cli:parallel_idem_up(llpo)"), entry.count)
    rep = check(wrong, corpus, depth=entry.depth)
    assert len(rep.entries) == len(corpus) == 25
    assert all(e.status == "error" and e.note == "K mirror mismatch"
               for e in rep.entries)


def test_an_exchanged_merge_is_refused_by_the_value_sets():
    """Negative control of a shuffle given by its row law alone: the
    absorb merge with its even and odd rows exchanged.  Its index law is
    read off that row law, so K and its mirror agree and validation
    passes it; the value sets must refuse it with a coordinate."""
    from weihrauchlab.machines import index_machine
    from weihrauchlab.points import depair, row
    from weihrauchlab.registry import named_witnesses

    def exchanged_rows(p):
        a, b = depair(p)
        return lambda n: row(b if n % 2 == 0 else a, n // 2)

    absorb = parallel_absorb(llpo_problem())[0]
    k = index_machine("oddeven-merge", rows=exchanged_rows)
    wrong = Witness(absorb.f, absorb.g, k, absorb.H, True,
                    name="exchanged-merge")
    entry = named_witnesses()["parallel_absorb(llpo)"]
    corpus = entry.corpus(rng_for("cli:parallel_absorb(llpo)"), entry.count)
    rep = check(wrong, corpus, depth=entry.depth)
    assert all(e.note != "K mirror mismatch" for e in rep.entries)
    assert rep.verdict() == "FAIL (59/64 branches, first fail at coordinate 14)"
    assert check(absorb, corpus, depth=entry.depth).passed


def test_an_oracle_of_clopen_answers_sets_every_checked_coordinate():
    """Negative control of the value-set layer on a clopen compact: an H
    that swaps coordinate 0 with coordinate d + 1, one past the excluded
    depth d.  Every member of clopen(exclude: 1 001) starts with 0, but
    coordinate d + 1 is free, so the oracle's behaviors must set it to 1
    and the swap must be refused at coordinate 0."""
    from weihrauchlab.literals import parse_clopen
    from weihrauchlab.machines import index_machine
    from weihrauchlab.problems import compact_choice_problem
    from weihrauchlab.spaces import encode_clopen

    cc = compact_choice_problem()
    k = parse_clopen("clopen(exclude: 1 001)")
    d = k.depth()
    h = index_machine("swap-free", lambda j: {0: d + 1, d + 1: 0}.get(j, j))
    rep = check(Witness(cc, cc, identity(), h, True, name="swap-free"),
                [encode_clopen(k)], depth=6)
    assert rep.verdict() == "FAIL (12/24 branches, first fail at coordinate 0)"


def _searches():
    """(the K of each first-hit search, a name it hits on, a name it
    never hits on)."""
    from weihrauchlab.spaces import Dyadic, dyadic_code, encode_dyadic

    zero = dyadic_code(Dyadic(0, 0))
    data = DiscontinuityData(q=EvPeriodic((), (1,)),
                             family=lambda n: EvPeriodic((1,) * n + (0,), (1,)),
                             agree_bound=lambda L: L, cell_count=1, expected=(1,))
    return [
        # the pulse at 5
        (llpo_to_llpo_real().K, EvPeriodic((0,) * 5 + (1,), (0,)),
         EvPeriodic((), (0,))),
        # -3/8 seen at stage 2, named by the pulse at 3
        (llpo_real_to_llpo().K,
         EvPeriodic((zero, zero), (dyadic_code(Dyadic(-3, 3)),)),
         encode_dyadic(Dyadic(0, 0))),
        # the zero at 4
        (lpo_from_discontinuity(data, lpo_problem()).K,
         EvPeriodic((1, 1, 1, 1, 0), (1,)), EvPeriodic((), (1,))),
    ]


@pytest.mark.parametrize("k, hit, miss", _searches(),
                         ids=["pulse-to-dyadic", "sign-search", "select-family"])
def test_each_search_runs_as_its_point_action(k, hit, miss):
    """A first-hit search on a name where it hits and one where it never
    does: the unbounded run emits 256 symbols, the point action's.  The
    hit changes the output, so the two names take both branches."""
    outs = []
    for p in (hit, miss):
        run = run_on_point(k, p, 256)
        assert run.productive and run.output == prefix(k.point(p), 256), repr(p)
        outs.append(run.output)
    assert outs[0] != outs[1]
