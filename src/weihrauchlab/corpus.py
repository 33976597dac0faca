"""Seeded corpus generators: in-domain names for every registered problem,
sized so that checks stay within the behavior budget."""

from __future__ import annotations

import random

from .points import EvPeriodic, Interleave, Point, RowTuple, pair_encode, pulse
from .spaces import ClopenCompact, Dyadic, FinTree, TreeChar, encode_clopen, encode_dyadic


def rng_for(seed) -> random.Random:
    return random.Random(seed)


def ev_periodic(rng, max_head=4, max_period=3, alphabet=3) -> EvPeriodic:
    head = tuple(rng.randrange(alphabet) for _ in range(rng.randrange(max_head + 1)))
    period = tuple(rng.randrange(alphabet)
                   for _ in range(rng.randrange(1, max_period + 1)))
    return EvPeriodic(head, period)


def any_point(rng, depth=0) -> Point:
    roll = rng.random()
    if depth >= 2 or roll < 0.6:
        return ev_periodic(rng)
    if roll < 0.8:
        return Interleave(any_point(rng, depth + 1), any_point(rng, depth + 1))
    rows = {rng.randrange(5): any_point(rng, depth + 1)
            for _ in range(rng.randrange(3))}
    return RowTuple(rows, ev_periodic(rng))


def any_points(rng, n) -> list:
    return [any_point(rng) for _ in range(n)]


def rowable_point(rng) -> Point:
    """Points whose rows are structurally extractable."""
    roll = rng.random()
    if roll < 0.5:
        return ev_periodic(rng)
    if roll < 0.7:
        return Interleave(ev_periodic(rng), ev_periodic(rng))
    rows = {rng.randrange(5): ev_periodic(rng) for _ in range(rng.randrange(3))}
    return RowTuple(rows, ev_periodic(rng))


def rowable_points(rng, n) -> list:
    return [rowable_point(rng) for _ in range(n)]


def llpo_point(rng, allow_free=True) -> EvPeriodic:
    """At most one nonzero entry."""
    if allow_free and rng.random() < 0.25:
        return EvPeriodic((), (0,))
    pos = rng.randrange(8)
    head = [0] * (pos + 1)
    head[pos] = rng.randrange(1, 4)
    return EvPeriodic(tuple(head), (0,))


def llpo_points(rng, n, allow_free=True) -> list:
    return [llpo_point(rng, allow_free) for _ in range(n)]


def llpo_hat_input(rng, max_free=3) -> RowTuple:
    """Row tuple in the parallelized domain with few free coordinates:
    one to four exception rows among the first 5 + max_free."""
    default = EvPeriodic((0, rng.randrange(1, 4)), (0,))   # forces 0
    exceptions = {}
    free_budget = rng.randrange(max_free + 1)
    used = rng.sample(range(5 + max_free), rng.randrange(1, 5))
    for n in used:
        if free_budget > 0 and rng.random() < 0.4:
            exceptions[n] = EvPeriodic((), (0,))           # free coordinate
            free_budget -= 1
        else:
            exceptions[n] = llpo_point(rng, allow_free=False)
    return RowTuple(exceptions, default)


def llpo_hat_inputs(rng, n) -> list:
    return [llpo_hat_input(rng) for _ in range(n)]


def free_heavy_rowtuple(rng, forced=2) -> RowTuple:
    """Free default with finitely many forced coordinates (clopen image)."""
    default = EvPeriodic((), (0,))
    exceptions = {}
    for n in rng.sample(range(5), forced):
        exceptions[n] = llpo_point(rng, allow_free=False)
    return RowTuple(exceptions, default)


def compact_backward_input(rng) -> RowTuple:
    """Six forced low coordinates over a free default, keeping the excluded
    blocks small and the free coordinates below the checking depth few."""
    default = EvPeriodic((), (0,))
    exceptions = {n: llpo_point(rng, allow_free=False) for n in range(6)}
    return RowTuple(exceptions, default)


def pair_points(rng, gen_a, gen_b, n) -> list:
    return [Interleave(gen_a(rng), gen_b(rng)) for _ in range(n)]


# trees -----------------------------------------------------------------------

def _path(head, period) -> EvPeriodic:
    return EvPeriodic(tuple(head), tuple(period))


def covering_tree(rng) -> FinTree:
    """Live paths covering every word of depth 3, so that blocking
    streams leave few free coordinates below the checking depth."""
    depth = 3
    live = []
    for idx in range(2 ** depth):
        head = tuple((idx >> (depth - 1 - j)) & 1 for j in range(depth))
        tail = (rng.randrange(2),)
        live.append(_path(head, tail))
    nodes = {()}
    for q in live:
        for n in range(1, depth + 1):
            nodes.add(q.prefix(n))
    return FinTree(depth, nodes, tuple(live))


def thin_tree(rng, lives=2, depth=3) -> FinTree:
    """A few live paths plus their explicit prefixes."""
    live = []
    seen = set()
    while len(live) < lives:
        head = tuple(rng.randrange(2) for _ in range(rng.randrange(depth + 1)))
        period = tuple(rng.randrange(2) for _ in range(rng.randrange(1, 3)))
        q = _path(head, period)
        sig = q.prefix(depth + 4)
        if sig not in seen:
            seen.add(sig)
            live.append(q)
    nodes = {()}
    for q in live:
        for n in range(1, depth + 1):
            nodes.add(q.prefix(n))
    return FinTree(depth, nodes, tuple(live))


def tree_names(rng, n, bushy=True) -> list:
    out = []
    for _ in range(n):
        t = covering_tree(rng) if bushy else thin_tree(rng)
        out.append(TreeChar(t))
    return out


# clopen compacts --------------------------------------------------------------

def product_clopen(rng) -> ClopenCompact:
    """Two of the first three coordinates forced."""
    excluded = set()
    for n in rng.sample(range(3), 2):
        bad = rng.randrange(2)
        for idx in range(2 ** n):
            head = tuple((idx >> (n - 1 - j)) & 1 for j in range(n))
            excluded.add(head + (bad,))
    return ClopenCompact(excluded)


def mixed_clopen(rng) -> ClopenCompact:
    """Compacts with a thin alive-tree: one short exclusion plus two deep
    ones of length 2-4, so the blocking tuple leaves few coordinates
    undetermined."""
    root_kill = (rng.randrange(2),)
    excluded = {root_kill}
    while len(excluded) < 3:
        L = rng.randrange(2, 5)
        w = (1 - root_kill[0],) + tuple(rng.randrange(2) for _ in range(L - 1))
        k = ClopenCompact(excluded | {w})
        if not k.is_empty():
            excluded.add(w)
    return ClopenCompact(excluded)


def clopen_names(rng, n) -> list:
    out = []
    while len(out) < n:
        k = product_clopen(rng) if rng.random() < 0.5 else mixed_clopen(rng)
        if not k.is_empty():
            out.append(encode_clopen(k))
    return out


# dyadics -----------------------------------------------------------------------

def dyadic_names(rng, n) -> list:
    out = []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.2:
            x = Dyadic(0, 0)
        else:
            num = rng.choice([-3, -1, 1, 3, 5, -5])
            x = Dyadic(num, rng.randrange(4))
        out.append(encode_dyadic(x))
    return out


# composite inputs for the squared witness ---------------------------------------

def squared_input(rng) -> RowTuple:
    """Inner rows forcing bit one at <k,0> for 10 of the outer coordinates
    below 12, keeping the behavior enumeration within budget."""
    default = EvPeriodic((0, 1), (0,))   # forces 0
    exceptions = {}
    outer = list(range(12))
    rng.shuffle(outer)
    for k in outer[:10]:
        # a pulse at an even position: forces 1
        exceptions[pair_encode(k, 0)] = pulse(2 * rng.randrange(3))
    return RowTuple(exceptions, default)


def squared_inputs(rng, n) -> list:
    return [squared_input(rng) for _ in range(n)]
