"""Limit machines with mind-change counting, and the adversary that
forces the maximal number of changes out of a candidate machine."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from .errors import NonConvergent
from .points import EvPeriodic, scan_bound

QUIET_PERIOD = 64
SCAN_CAP = 4096


@dataclass
class LimitRun:
    """Guess history of a limit computation: (input prefix length, output)."""

    guesses: list = field(default_factory=list)

    def record(self, seen: int, guess: tuple):
        if not self.guesses or self.guesses[-1][1] != guess:
            self.guesses.append((seen, tuple(guess)))

    @property
    def mind_changes(self) -> int:
        changes = 0
        for (_, a), (_, b) in zip(self.guesses, self.guesses[1:]):
            if b[: len(a)] != a:
                changes += 1
        return changes

    @property
    def answer(self) -> tuple:
        return self.guesses[-1][1] if self.guesses else ()


def run_lpo_k(k: int, inputs: Sequence) -> LimitRun:
    """lpo_k_machine's guess on the inputs' prefixes of every length up to
    the horizon, their largest scan bound capped at SCAN_CAP, so zero
    detection is exact on finitely presented inputs whenever the cap
    covers them.  Each guess steps the last by one symbol per input."""
    if len(inputs) != k:
        raise ValueError(f"expected {k} inputs")
    horizon = min(SCAN_CAP, max((scan_bound(p) for p in inputs), default=0))
    words = [p.prefix(horizon) for p in inputs]
    guess = lpo_k_machine(k)([()] * k)
    run = LimitRun()
    run.record(0, guess)
    for t in range(1, horizon + 1):
        guess = tuple(lpo_step(g, w[t - 1:t]) for g, w in zip(guess, words))
        run.record(t, guess)
    return run


def lpo_step(guess: int, symbols) -> int:
    """A component's guess after reading symbols more: 0 from a zero on."""
    return 0 if 0 in symbols else guess


def lpo_k_machine(k: int) -> Callable:
    """Guess 1 for each component until its prefix shows a zero, prefix-in
    guess-out: guess 1 stepped by the whole prefix."""
    def machine(prefixes):
        return tuple(lpo_step(1, prefixes[i]) for i in range(k))
    return machine


@dataclass
class AdversaryResult:
    inputs: tuple       # the constructed finitely presented inputs
    run: LimitRun


def adversary(machine: Callable, k: int, budget: int = 4096) -> AdversaryResult:
    """Feed all-ones prefixes until the guess is quiet, then plant a zero in
    the next component; repeat through every component."""
    if k < 1:
        raise ValueError(f"the adversary needs at least one component, got {k}")
    prefixes = [[] for _ in range(k)]
    run = LimitRun()

    def feed(symbols):
        for i in range(k):
            prefixes[i].append(symbols[i])
        run.record(len(prefixes[0]), machine([tuple(p) for p in prefixes]))

    def wait_for_quiet():
        stable = 0
        last = machine([tuple(p) for p in prefixes])
        while stable < QUIET_PERIOD:
            if len(prefixes[0]) >= budget:
                raise NonConvergent("no stable guess within the budget")
            feed([1] * k)
            now = run.guesses[-1][1]
            if now == last:
                stable += 1
            else:
                last = now
                stable = 0

    run.record(0, machine([tuple(p) for p in prefixes]))
    wait_for_quiet()
    for c in range(k):
        symbols = [1] * k
        symbols[c] = 0
        feed(symbols)
        wait_for_quiet()
    points = tuple(EvPeriodic(tuple(p), (1,)) for p in prefixes)
    return AdversaryResult(points, run)
