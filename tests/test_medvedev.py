from weihrauchlab.corpus import any_points, pair_points, rng_for, any_point
from weihrauchlab.machines import (
    Machine,
    const_machine,
    identity,
    run_on_point,
)
from weihrauchlab.medvedev import (
    MassProblem,
    embed_backward,
    embed_forward,
    medvedev_check,
    set_ops_correspondence,
    set_sum,
    set_tensor,
)
from weihrauchlab.points import EvPeriodic, prefix
from weihrauchlab.registry import _fixture_mass, _med_embed
from weihrauchlab.witnesses import check


def fixture_lattice():
    zeros = EvPeriodic((), (0,))
    ones = EvPeriodic((), (1,))
    alt = EvPeriodic((), (0, 1))
    spike = EvPeriodic((3,), (0,))
    return [
        MassProblem([zeros], "Z"),
        MassProblem([ones], "O"),
        MassProblem([zeros, ones], "ZO"),
        MassProblem([alt], "A"),
        MassProblem([alt, spike], "AS"),
        MassProblem([spike], "S"),
    ]


def translation_to(a: MassProblem) -> Machine:
    target = a.members[0]
    return Machine(f"const-{a.name}", lambda w: prefix(target, len(w)))


def test_medvedev_check_examples():
    lat = fixture_lattice()
    a, b = lat[0], lat[1]
    assert medvedev_check(a, a, identity(), 12).passed
    assert medvedev_check(a, b, translation_to(a), 12).passed
    rep = medvedev_check(a, b, identity(), 12)
    assert not rep.passed
    assert rep.entries[0].coordinate == 0


def replayed_statuses(a: MassProblem, b: MassProblem, f: Machine,
                      depth: int) -> list:
    """The replay loop medvedev_check was before it went through check:
    f runs on each member of b, and its output matches a's first member it
    agrees with (a pass, or a stall when the run is not productive) or
    fails at the latest of its first mismatches."""
    statuses = []
    for q in b.members:
        outcome = run_on_point(f, q, depth)
        word = outcome.output
        best_fail = -1
        consistent = False
        for cand in a.members:
            d = next((i for i in range(len(word))
                      if word[i] != cand.value_at(i)), None)
            if d is None:
                consistent = True
                break
            best_fail = max(best_fail, d)
        if consistent and outcome.productive:
            statuses.append(("pass", None))
        elif consistent:
            statuses.append(("stall", None))
        else:
            statuses.append(("fail", best_fail))
    return statuses


def test_medvedev_check_agrees_with_the_replay_loop():
    """On the fixture lattice, with the identity, the translations, the
    constant machines of every member and one that emits three zeros and
    stops, medvedev_check gives the replay loop's verdict and its
    entries' statuses and coordinates."""
    lat = fixture_lattice()
    members = {q for m in lat for q in m.members}
    short = Machine("short", lambda w: prefix(EvPeriodic((), (0,)), min(len(w), 3)))
    machines = ([identity(), short] + [translation_to(a) for a in lat]
                + [const_machine(q) for q in sorted(members, key=repr)])
    verdicts, statuses = set(), set()
    for a in lat:
        for b in lat:
            for f in machines:
                want = replayed_statuses(a, b, f, 12)
                rep = medvedev_check(a, b, f, 12)
                assert rep.passed == (bool(want) and all(
                    status == "pass" for status, _ in want)), (a, b, f.name)
                assert [(e.status, e.coordinate) for e in rep.entries] == want
                verdicts.add(rep.passed)
                statuses.update(status for status, _ in want)
    assert verdicts == {True, False}
    assert statuses == {"pass", "stall", "fail"}


def test_embed_forward_and_negative():
    lat = fixture_lattice()
    a, b = lat[0], lat[2]
    w = embed_forward(translation_to(a), a, b)
    assert check(w, any_points(rng_for("mf"), 8), depth=10).passed
    wrong = embed_forward(Machine("to-1", lambda wd: prefix(
        EvPeriodic((), (1,)), len(wd))), a, b)
    rep = check(wrong, any_points(rng_for("mf2"), 4), depth=10)
    assert not rep.passed
    assert all(e.coordinate == 0 for e in rep.failures())


def test_embed_backward_roundtrip():
    lat = fixture_lattice()
    a, b = lat[3], lat[2]   # alternating from {zeros, ones}
    f = translation_to(a)
    w = embed_forward(f, a, b)
    g = embed_backward(w)
    assert medvedev_check(a, b, g, 16).passed


def test_embed_backward_reads_on_demand():
    """The recovered machine keeps the view of the composite it is made
    of, so a run reads the member on demand, not through windows: the
    constant translation of the registry fixture reads no symbol of it."""
    a, b = _fixture_mass()
    g = embed_backward(_med_embed())
    assert g.view is not None
    assert medvedev_check(a, b, g, 16).passed
    for q in b.members:
        outcome = run_on_point(g, q, 16)
        assert outcome.productive and outcome.width == 0


def test_embedding_fidelity_on_fixture_lattice():
    """Whenever the declared translation moves B into A, the embedded
    witness passes, and the recovered machine still checks."""
    lat = fixture_lattice()
    rng = rng_for("fidelity")
    probes = any_points(rng, 4)
    for a in lat:
        for b in lat:
            f = translation_to(a)
            ok_set = medvedev_check(a, b, f, 12).passed
            assert ok_set   # constant translations always land inside A
            w = embed_forward(f, a, b)
            assert check(w, probes, depth=10).passed
            g = embed_backward(w)
            assert medvedev_check(a, b, g, 12).passed


def test_turing_singleton_sanity():
    """Singleton problems over finitely presented points are mutually
    reducible through their constant translations."""
    pts = [EvPeriodic((), (0,)), EvPeriodic((2, 1), (0, 1)),
           EvPeriodic((), (1, 1, 0))]
    rng = rng_for("turing")
    probes = any_points(rng, 3)
    for p in pts:
        for q in pts:
            a, b = MassProblem([p], "P"), MassProblem([q], "Q")
            w = embed_forward(translation_to(a), a, b)
            assert check(w, probes, depth=10).passed


def test_set_ops_all_four_directions():
    lat = fixture_lattice()
    a, b = lat[2], lat[4]
    ops = set_ops_correspondence(a, b)
    rng = rng_for("ops")
    single = any_points(rng, 5)
    pairs = pair_points(rng, any_point, any_point, 5)
    assert check(ops["sum_to_prod"], single, depth=10).passed
    assert check(ops["prod_to_sum"], pairs, depth=10).passed
    assert check(ops["tensor_to_sum"], single, depth=10).passed
    assert check(ops["sum_to_tensor"], pairs, depth=10).passed


def test_set_ops_degenerate_equal_sets():
    lat = fixture_lattice()
    a = lat[2]
    ops = set_ops_correspondence(a, a)
    rng = rng_for("ops-eq")
    single = any_points(rng, 4)
    pairs = pair_points(rng, any_point, any_point, 4)
    assert check(ops["sum_to_prod"], single, depth=8).passed
    assert check(ops["prod_to_sum"], pairs, depth=8).passed
    assert check(ops["tensor_to_sum"], single, depth=8).passed
    assert check(ops["sum_to_tensor"], pairs, depth=8).passed


def test_set_carriers():
    z = EvPeriodic((), (0,))
    o = EvPeriodic((), (1,))
    s = set_sum(MassProblem([z], "Z"), MassProblem([o], "O"))
    assert prefix(s.members[0], 6) == (0, 1, 0, 1, 0, 1)
    t = set_tensor(MassProblem([z], "Z"), MassProblem([o], "O"))
    assert {prefix(m, 3) for m in t.members} == {(0, 0, 0), (1, 1, 1)}
