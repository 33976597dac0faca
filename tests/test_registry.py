"""Registry-wide property checks: every registered witness's machines are
monotone on sampled chains, the point mirrors track the machines well past
the checker's validation window, and the checker's pass/fail boundary sits
exactly at the failing coordinate."""

import pytest
from references import audit_monotone

from weihrauchlab import corpus as gen
from weihrauchlab.machines import (
    Machine,
    PointView,
    identity,
    run_on_point,
)
from weihrauchlab.points import EvPeriodic, Interleave, prefix
from weihrauchlab.problems import id_problem
from weihrauchlab.registry import corrupted_witnesses, named_witnesses
from weihrauchlab.witnesses import Witness, check


def test_registry_machines_monotone_and_mirrors_deep():
    entries = named_witnesses()
    for name in sorted(entries):
        e = entries[name]
        w = e.build()
        corpus = e.corpus(gen.rng_for("mono:" + name), 2)
        for p in corpus:
            assert audit_monotone(w.K, p, range(1, 65, 7)), (name, "K")
            q = w.k_point(p)
            kout = tuple(w.K.eval(PointView(p, 256)))
            assert kout == prefix(q, len(kout)), (name, "mirror")
            behaviors = w.g.value_set(q).behaviors(6, 64)
            for r in behaviors[:2]:
                feed = r if w.strong else Interleave(p, r)
                assert audit_monotone(w.H, feed, range(1, 65, 7)), (name, "H")


@pytest.mark.parametrize("name", sorted(named_witnesses()))
def test_registry_machines_total_and_monotone_on_every_prefix(name):
    """The Type-2 condition on every finite prefix: eval is defined on each
    prefix up to length 80 of three corpus names, and is a prefix of eval
    on the next.  H is fed what the checker feeds it."""
    e = named_witnesses()[name]
    w = e.build()
    for p in e.corpus(gen.rng_for("total:" + name), 3):
        assert audit_monotone(w.K, p, range(81)), (name, "K")
        q = w.k_point(p)
        for r in w.g.value_set(q).behaviors(6, 64)[:2]:
            feed = r if w.strong else Interleave(p, r)
            assert audit_monotone(w.H, feed, range(81)), (name, "H")


def _depths(n: int) -> list:
    """Every depth up to 600, and past it 64 spread up to n and n itself:
    a run to depth d costs d reads, so every depth of a 4,422-symbol
    output would cost about 10 million."""
    return sorted({*range(min(n, 600) + 1), *range(600, n, max(1, n // 64)), n})


def _machines_fed(name):
    """A registered witness or negative control, 4 of its `cli` corpus
    names, and each of its machines beside an input the checker feeds it:
    K the name, H the answers of two oracle behaviors at K's image."""
    controls = corrupted_witnesses()
    if name in controls:
        w, corpus_fn = controls[name]
        names = corpus_fn(gen.rng_for(f"cli:{name}"), 20)[:4]
    else:
        e = named_witnesses()[name]
        w, names = e.build(), e.corpus(gen.rng_for(f"cli:{name}"), 4)
    for p in names:
        yield w.K, p
        for r in w.g.value_set(w.k_point(p)).behaviors(6, 64)[:2]:
            yield w.H, r if w.strong else Interleave(p, r)


@pytest.mark.parametrize("name", sorted(named_witnesses())
                         + sorted(corrupted_witnesses()))
def test_every_machine_runs_as_it_evaluates(name):
    """Every machine is its view: a run over the whole point, reading on
    demand, emits at each depth what eval emits on the point's prefix of
    width 0, 16 or 64, as far as that finite output reaches."""
    for m, p in _machines_fed(name):
        for width in (0, 16, 64):
            out = tuple(m.eval(p.prefix(width)))
            for n in _depths(len(out)):
                assert run_on_point(m, p, n).output == out[:n], (
                    name, m.name, repr(p), width, n)


@pytest.mark.parametrize("name", sorted(named_witnesses()))
def test_every_k_computes_its_point_action(name):
    """K is productive on its corpus names: run over the whole name, it
    emits 256 symbols within 20,000 input reads, and they are the point
    action's, so no verdict rests on a name K never computes."""
    e = named_witnesses()[name]
    w = e.build()
    for p in e.corpus(gen.rng_for(f"cli:{name}"), 3):
        run = run_on_point(w.K, p, 256, fuel=20000)
        assert run.productive, (name, repr(p), len(run.output))
        assert run.output == prefix(w.k_point(p), 256), (name, repr(p))


def test_checker_soundness_boundary():
    """A defect at coordinate five is invisible at depth five and pinned
    exactly at depth six."""
    def h_fn(w):
        out = list(w)
        if len(out) > 5:
            out[5] = out[5] + 1
        return tuple(out)

    w = Witness(id_problem(), id_problem(), identity(),
                Machine("flip5", h_fn), True, name="flip5")
    corpus = [EvPeriodic((1, 2, 3), (0,))]
    assert check(w, corpus, depth=5).passed
    rep = check(w, corpus, depth=6)
    assert not rep.passed
    assert rep.failures()[0].coordinate == 5


def test_checker_agrees_with_definitional_composite():
    """Feeding a behavior to the outer translation equals running the full
    composite with an explicit constant oracle realizer."""
    from weihrauchlab.machines import compose, const_machine, pair_machine, run_on_point
    from weihrauchlab.witnesses import as_ordinary

    entries = named_witnesses()
    picked = ["llpo_to_lpo", "cyl(llpo_to_lpo)", "sum_mono(llpo_to_lpo)",
              "prod_mono(llpo_to_lpo)", "medvedev_sum_to_prod",
              "llpo_real_to_llpo"]
    for name in picked:
        e = entries[name]
        w = e.build()
        corpus = e.corpus(gen.rng_for("diff:" + name), 3)
        for p in corpus:
            q = w.k_point(p)
            for r in w.g.value_set(q).behaviors(8, 64)[:3]:
                feed = r if w.strong else Interleave(p, r)
                direct = run_on_point(w.H, feed, 8)
                ow = as_ordinary(w)
                composite = compose(
                    ow.H, pair_machine(identity(),
                                       compose(const_machine(r), ow.K)))
                full = run_on_point(composite, p, 8)
                n = min(len(direct.output), len(full.output))
                assert direct.output[:n] == full.output[:n], (name, repr(p))
                assert n >= 4, (name, "composite starved")


def test_strong_witnesses_pass_as_ordinary():
    """Discarding the fed-through input turns any passing strong witness
    into a passing ordinary one."""
    from weihrauchlab.witnesses import as_ordinary
    entries = named_witnesses()
    for name in ["llpo_to_lpo", "id_to_llpo_hat", "wkl_to_llpo_hat",
                 "llpo_hat_to_wkl", "compact_to_llpo_hat"]:
        e = entries[name]
        w = as_ordinary(e.build())
        corpus = e.corpus(gen.rng_for("ord:" + name), 4)
        rep = check(w, corpus, depth=min(e.depth, 10))
        assert rep.passed, (name, rep.verdict())


def test_flipped_path_control_is_wrong_on_flip_closed_trees():
    """At seed 3 the seeded trees are closed under the bitwise flip, where
    the flipped extractor is a correct one; the fixed one-path tree in the
    control's corpus still refutes it, at a coordinate."""
    w, corpus_fn = corrupted_witnesses()["wkl_flipped_path"]
    *seeded, fixed = corpus_fn(gen.rng_for("3:wkl_flipped_path"), 5)
    assert seeded and check(w, seeded, depth=8).passed
    rep = check(w, [*seeded, fixed], depth=8)
    assert not rep.passed
    assert [e.coordinate for e in rep.failures()] == [0]
