"""The acceptance gate: one test per criterion, exact discrete checks.

Every criterion records a verdict line that the terminal summary prints.
"""

import itertools

from conftest import record_criterion

from weihrauchlab import corpus as gen
from weihrauchlab.corpus import rng_for
from weihrauchlab.machines import Machine, identity, pair_machine, proj1, proj2, run_on_point
from weihrauchlab.points import (
    EvPeriodic,
    RowTuple,
    all_zero_on_progression,
    exists_zero,
    min_zero,
    normalize,
    pair_encode,
    prefix,
    row,
    scan_bound,
    value_at,
)
from weihrauchlab.problems import llpo_hat_value, lpo_value
from weihrauchlab.registry import corrupted_witnesses, named_witnesses
from weihrauchlab.spaces import T0, T1, THALF, encode_ternary, ternary_of_word
from weihrauchlab.witnesses import check


def _criterion(number, passed, detail):
    record_criterion(number, passed, detail)
    assert passed, f"criterion {number}: {detail}"


def test_criterion_1_named_witness_suite():
    """Every registered witness passes at its stated depth over generated
    in-domain corpora (25 inputs each; depth 16 for the named families)."""
    entries = named_witnesses()
    failures = []
    checked = 0
    for name in sorted(entries):
        e = entries[name]
        w = e.build()
        corpus = e.corpus(rng_for("acceptance:" + name), e.count)
        rep = check(w, corpus, depth=e.depth)
        checked += 1
        if not rep.passed:
            failures.append(f"{name}: {rep.verdict()}")
    _criterion(1, not failures,
               f"{checked} registered witnesses checked, exact"
               + (f"; failing: {failures}" if failures else ""))


NAND_ROWS = [
    (T0, T0, T1), (T0, T1, T1), (T1, T0, T1), (T1, T1, T0),
    (T0, THALF, T1), (T1, THALF, THALF),
    (THALF, T0, T1), (THALF, T1, THALF), (THALF, THALF, THALF),
]


def _decode_stream(mach, name, caps=(16, 64, 512)):
    for depth in caps:
        out = run_on_point(mach, name, depth)
        v = ternary_of_word(out.output)
        if v is not None:
            return v
    return THALF


def _ternary_name(ts):
    return RowTuple({i: encode_ternary(t) for i, t in enumerate(ts)},
                    EvPeriodic((), (0,)))


def test_criterion_2_ternary_logic():
    """All nine truth-table rows exactly, plus machine-against-table
    agreement for every synthesized circuit of arity up to three (all unary
    and binary tables, a ternary spread): the substituted network against
    gate-wise evaluation and the extension realizer against the semantic
    extension."""
    from weihrauchlab.points import Interleave
    from weihrauchlab.ternary import nand_realizer, synthesize, table_of, ternary_extend

    ok = True
    n = nand_realizer()
    for a, b, want in NAND_ROWS:
        got = _decode_stream(n, Interleave(encode_ternary(a), encode_ternary(b)))
        ok = ok and (got is want)

    tables = [(t, 1) for t in itertools.product((0, 1), repeat=2)]
    tables += [(t, 2) for t in itertools.product((0, 1), repeat=4)]
    rng = rng_for("acc-ternary")
    tables += [(tuple(rng.randrange(2) for _ in range(8)), 3) for _ in range(6)]
    tables.append((table_of(lambda a, b, c: (a + b + c) >= 2, 3), 3))
    tables.append(((1,) * 8, 3))
    rows_checked = 0
    for table, arity in tables:
        ext = ternary_extend(synthesize(table, arity))
        gw, rz = ext.gatewise(), ext.realizer()
        for ts in itertools.product((T0, T1, THALF), repeat=arity):
            name = _ternary_name(ts)
            ok = ok and (_decode_stream(gw, name) is ext.gatewise_value(ts))
            ok = ok and (_decode_stream(rz, name) is ext.value(ts))
            rows_checked += 1
    _criterion(2, ok, f"9 nand rows exact; {len(tables)} circuits, "
                      f"{rows_checked} ternary inputs, both machine/value routes")


def _swap_fixtures():
    rng = rng_for("acc-swap")
    swap2 = pair_machine(proj2(), proj1())

    def flip(w):
        return tuple(1 - s if s in (0, 1) else 0 for s in w)

    def nand2(w):
        if len(w) < 2:
            return ()
        return (0 if (w[0] == 1 and w[1] == 1) else 1,) + (0,) * (len(w) - 2)

    def and_or(w):
        if len(w) < 4:
            return ()
        return (w[0] & w[1], w[2] | w[3]) + (0,) * (len(w) - 4)

    def parity5(w):
        if len(w) < 5:
            return ()
        return (sum(w[i] for i in range(5)) % 2,) + (0,) * (len(w) - 5)

    machines = [
        (identity(), 3),
        (swap2, 2),
        (Machine("flip", flip), 3),
        (Machine("nand2", nand2), 1),
        (Machine("and-or", and_or), 2),
        (Machine("parity5", parity5), 1),   # modulus five
    ]
    fixtures = []
    for m, depth in machines:
        for _ in range(4):
            p = gen.free_heavy_rowtuple(rng, forced=rng.randrange(4))
            fixtures.append((m, p, depth))
    return fixtures


def test_criterion_3_llpo_swap_equivalence():
    """On 20 fixtures the truncated value sets of both sides coincide under
    exhaustive enumeration."""
    from weihrauchlab.weakcomp import llpo_swap
    fixtures = _swap_fixtures()
    assert len(fixtures) >= 20
    bad = 0
    for m, p, depth in fixtures:
        res = llpo_swap(m, p, depth)
        if not res.sides_equal():
            bad += 1
    _criterion(3, bad == 0,
               f"{len(fixtures)} fixtures, truncated value sets identical")


def test_criterion_4_wkl_soundness():
    """Every oracle behavior branch yields a tree path, checked by the
    characteristic function to twice the explicit depth; the composed
    round trip passes."""
    from weihrauchlab.wkl import wkl_round_trip, wkl_to_llpo_hat
    w = wkl_to_llpo_hat()
    rng = rng_for("acc-wkl")
    trees = gen.tree_names(rng, 6) + gen.tree_names(rng, 3, bushy=False)
    ok = True
    branches = 0
    for name in trees:
        tree = name.tree
        depth = max(4, 2 * tree.explicit_depth)
        vs = llpo_hat_value(w.k_point(name))
        for r in vs.behaviors(depth):
            out = run_on_point(w.H, r, depth)
            ok = ok and out.productive
            for n in range(len(out.output) + 1):
                ok = ok and tree.chi(out.output[:n]) == 1
            branches += 1
    rt = check(wkl_round_trip(), gen.llpo_hat_inputs(rng, 6), depth=8)
    ok = ok and rt.passed
    _criterion(4, ok, f"{len(trees)} trees, {branches} oracle branches, "
                      f"round trip {rt.verdict()}")


def test_criterion_5_mind_changes():
    """At most k changes over 500 random tuples; the adversary forces
    exactly k against the scanning machine for k in 1..4."""
    from weihrauchlab.limits import adversary, lpo_k_machine, run_lpo_k
    rng = rng_for("acc-limits")
    ok = True
    for _ in range(500):
        k = rng.randrange(1, 5)
        inputs = [gen.ev_periodic(rng, alphabet=2) for _ in range(k)]
        run = run_lpo_k(k, inputs)
        ok = ok and run.mind_changes <= k
        ok = ok and run.answer == tuple(min(lpo_value(p)) for p in inputs)
    forced = {}
    for k in (1, 2, 3, 4):
        forced[k] = adversary(lpo_k_machine(k), k).run.mind_changes
        ok = ok and forced[k] == k
    _criterion(5, ok, f"500 tuples bounded; adversary forced {forced}")


def test_criterion_6_medvedev_embedding():
    """Forward and backward translations round-trip on the fixture lattice."""
    from weihrauchlab.medvedev import (
        MassProblem,
        embed_backward,
        embed_forward,
        medvedev_check,
    )
    zeros = EvPeriodic((), (0,))
    ones = EvPeriodic((), (1,))
    alt = EvPeriodic((), (0, 1))
    spike = EvPeriodic((3,), (0,))
    lattice = [
        MassProblem([zeros], "Z"), MassProblem([ones], "O"),
        MassProblem([zeros, ones], "ZO"), MassProblem([alt], "A"),
        MassProblem([alt, spike], "AS"), MassProblem([spike], "S"),
    ]
    rng = rng_for("acc-medvedev")
    probes = gen.any_points(rng, 5)
    ok = True
    pairs = 0
    for a in lattice:
        for b in lattice:
            target = a.members[0]
            f = Machine("const", lambda w, _t=target: prefix(_t, len(w)))
            ok = ok and medvedev_check(a, b, f, 12).passed
            w = embed_forward(f, a, b)
            ok = ok and check(w, probes, depth=12).passed
            g = embed_backward(w)
            ok = ok and medvedev_check(a, b, g, 12).passed
            pairs += 1
    _criterion(6, ok, f"{pairs} lattice pairs, both directions round-trip")


def test_criterion_7_bruteforce_oracle_agreement():
    """Structural predicates agree with direct prefix scans on over a
    thousand sampled point/index pairs."""
    rng = rng_for("acc-brute")
    samples = 0
    ok = True

    for _ in range(150):
        p = gen.any_point(rng)
        bound = scan_bound(p)
        w = prefix(p, bound)
        ok = ok and exists_zero(p) == (0 in w)
        if 0 in w:
            ok = ok and min_zero(p) == w.index(0)
        samples += 2
        q = normalize(p)
        if q is not None:
            idx = rng.randrange(200)
            ok = ok and value_at(q, idx) == value_at(p, idx)
            samples += 1

    for _ in range(150):
        p = gen.ev_periodic(rng)
        a, b = rng.randrange(1, 4), rng.randrange(4)
        got = all_zero_on_progression(p, a, b)
        want = all(value_at(p, a * k + b) == 0 for k in range(600))
        ok = ok and got == want
        samples += 1

    for _ in range(120):
        p = gen.ev_periodic(rng)
        for _ in range(5):
            n, k = rng.randrange(8), rng.randrange(64)
            ok = ok and value_at(row(p, n), k) == value_at(p, pair_encode(n, k))
            samples += 1

    ok = ok and samples >= 1000
    _criterion(7, ok, f"{samples} sampled point/index agreements")


def test_criterion_8_negative_controls():
    """Every deliberately corrupted witness is rejected with a concrete
    failing coordinate."""
    results = {}
    ok = True
    for name, (w, corpus_fn) in sorted(corrupted_witnesses().items()):
        rng = rng_for("acc-neg:" + name)
        rep = check(w, corpus_fn(rng, 5), depth=8)
        coords = [e.coordinate for e in rep.failures() if e.coordinate is not None]
        rejected = (not rep.passed) and bool(coords)
        results[name] = coords[:1]
        ok = ok and rejected
    _criterion(8, ok, f"rejected with coordinates: {results}")
