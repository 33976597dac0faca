from weihrauchlab import limits
from weihrauchlab.corpus import ev_periodic, rng_for
from weihrauchlab.errors import NonConvergent
from weihrauchlab.limits import adversary, lpo_k_machine, lpo_step, run_lpo_k
from weihrauchlab.points import EvPeriodic
from weihrauchlab.problems import lpo_value

import pytest


def test_run_examples():
    ones = EvPeriodic((), (1,))
    zeros = EvPeriodic((), (0,))
    r = run_lpo_k(2, [ones, ones])
    assert r.answer == (1, 1) and r.mind_changes == 0
    r2 = run_lpo_k(2, [zeros, ones])
    assert r2.answer == (0, 1) and r2.mind_changes == 1


def test_run_staggered_changes():
    inputs = [EvPeriodic((1, 1, 0), (1,)), EvPeriodic((1, 0), (1,)),
              EvPeriodic((1, 1, 1, 1, 0), (1,))]
    r = run_lpo_k(3, inputs)
    assert r.answer == (0, 0, 0)
    assert r.mind_changes == 3


def test_equal_indices_change_the_guess_once():
    """Zeros at the same index change lpo_k_machine's guess once, from
    (1, 1) to (0, 0) on the prefixes of length 1: one mind change."""
    both = EvPeriodic((0,), (1,))
    r = run_lpo_k(2, [both, both])
    assert r.guesses == [(0, (1, 1)), (1, (0, 0))]
    assert r.answer == (0, 0) and r.mind_changes == 1


def test_run_replays_the_machine_on_every_prefix():
    """run_lpo_k records lpo_k_machine's guess on the prefixes of each
    length up to the largest scan bound, and nothing else."""
    rng = rng_for("limit-replay")
    for _ in range(100):
        k = rng.randrange(1, 5)
        inputs = [ev_periodic(rng, alphabet=2) for _ in range(k)]
        horizon = max(len(p.head) + len(p.period) for p in inputs)
        want = []
        for t in range(horizon + 1):
            guess = lpo_k_machine(k)([p.prefix(t) for p in inputs])
            if not want or want[-1][1] != guess:
                want.append((t, guess))
        assert run_lpo_k(k, inputs).guesses == want


def test_run_steps_each_symbol_once(monkeypatch):
    """Two names of 4000 ones and then zeros: run_lpo_k steps by each input
    symbol up to the horizon (the scan bound 4001) once, so a run is
    linear in the horizon."""
    read = []

    def step(guess, symbols):
        read.extend(symbols)
        return lpo_step(guess, symbols)

    monkeypatch.setattr(limits, "lpo_step", step)
    p = EvPeriodic((1,) * 4000, (0,))
    r = run_lpo_k(2, [p, p])
    assert r.guesses == [(0, (1, 1)), (4001, (0, 0))]
    assert read == [1] * 8000 + [0, 0]


def test_run_correct_and_bounded_on_500_random_tuples():
    rng = rng_for("limit-500")
    total = 0
    while total < 500:
        k = rng.randrange(1, 5)
        inputs = [ev_periodic(rng, alphabet=2) for _ in range(k)]
        run = run_lpo_k(k, inputs)
        want = tuple(min(lpo_value(p)) for p in inputs)
        assert run.answer == want
        assert run.mind_changes <= k
        total += 1


def test_adversary_forces_k_changes():
    for k in (1, 2, 3, 4):
        res = adversary(lpo_k_machine(k), k)
        assert res.run.mind_changes == k
        want = tuple(min(lpo_value(p)) for p in res.inputs)
        assert res.run.answer == want


def test_adversary_refuses_fewer_than_one_component():
    for k in (0, -1):
        with pytest.raises(ValueError, match="at least one component"):
            adversary(lpo_k_machine(k), k)


def test_adversary_exposes_stubborn_machine():
    stubborn = lambda prefixes: (1,) * len(prefixes)
    res = adversary(stubborn, 2)
    assert res.run.mind_changes == 0
    truth = tuple(min(lpo_value(p)) for p in res.inputs)
    assert res.run.answer != truth


def test_adversary_budget():
    flapping = lambda prefixes: (len(prefixes[0]) % 2,) * len(prefixes)
    with pytest.raises(NonConvergent):
        adversary(flapping, 1, budget=256)
