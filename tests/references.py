"""Test-only references: a monotonicity audit of machines, the prefix
order and the interleaving of words, the level-enumeration search for
the minimal blocking level of a tree word, the closed-form index laws of
the parallelization shuffles, which the machines read off their point
actions, the per-row swap search, which builds a fresh compact and
every word's view for each search, the box inclusion test that reads
the index law and computes every box mask on each call, and the oracle
explorer that runs every branch afresh at every depth."""

import itertools
from typing import Optional

from weihrauchlab.errors import CapacityExceeded, FuelExhausted
from weihrauchlab.machines import Machine, PointView, interleave
from weihrauchlab.points import LawPoint, Point, pair_decode, pair_encode
from weihrauchlab.spaces import ClopenCompact, extensions
from weihrauchlab.weakcomp import DynamicSwap, pulse_exclusions


def audit_monotone(m: Machine, point: Point, lengths) -> bool:
    """Check eval(v) is a prefix of eval(w) along a chain of prefixes of point."""
    prev = None
    for n in sorted(lengths):
        cur = m.eval(PointView(point, n))
        if prev is not None:
            if tuple(cur[: len(prev)]) != tuple(prev):
                return False
        prev = cur
    return True


def is_prefix(v, w) -> bool:
    """Prefix order on words: v is an initial segment of w."""
    return len(v) <= len(w) and tuple(w[: len(v)]) == tuple(v)


def interleave_words(a, b) -> tuple:
    return tuple(interleave(a, b))


def comparable(v, w) -> bool:
    v, w = tuple(v), tuple(w)
    shorter, longer = (v, w) if len(v) <= len(w) else (w, v)
    return longer[: len(shorter)] == shorter


def in_blocked_set(tree, w, n: int, i: int) -> bool:
    """No length-n tree word is comparable with the child w·i."""
    wi = tuple(w) + (i,)
    return all(not comparable(v, wi) for v in tree.level(n))


def blocking_index_bruteforce(tree, w, n_max: int) -> Optional[int]:
    """Level-enumeration oracle for the minimal blocking level."""
    for n in range(n_max + 1):
        if in_blocked_set(tree, w, n, 0) or in_blocked_set(tree, w, n, 1):
            return n
    return None


# closed-form index laws: output symbol j is input symbol src(j) -----------

def flatten_src(i):
    """Row <j,k> of the hat is row k of row j of the double hat."""
    jk, m = pair_decode(i)
    j, k = pair_decode(jk)
    return pair_encode(j, pair_encode(k, m))


def widen_src(i):
    """Every row of the double hat is the hat's instance."""
    _, km = pair_decode(i)
    return km


def merge_src(j):
    """Even rows from the first hat, odd rows from the second."""
    n, k = pair_decode(j)
    return 2 * pair_encode(n // 2, k) + (n % 2)


def split_src(j):
    """Each row of the hat of a product, split into a row of each hat."""
    par, s = j % 2, j // 2
    i, k = pair_decode(s)
    return pair_encode(i, 2 * k + par)


def join_src(j):
    """Row i of each hat, joined into row i of the hat of a product."""
    i, t = pair_decode(j)
    return 2 * pair_encode(i, t // 2) + (t % 2)


def gather_src(t):
    """Row <i,j> of each half gathers row i of the par half of row j."""
    par, s = t % 2, t // 2
    ij, k = pair_decode(s)
    i, j = pair_decode(ij)
    return pair_encode(j, 2 * pair_encode(i, k) + par)


def double_absorb_src(i):
    """Row k interleaves the even symbols of the rows <k,2n> and <k,2n+1>."""
    k, t = pair_decode(i)
    if t % 2 == 0:
        n, m = pair_decode(t // 2)
        return pair_encode(pair_encode(k, 2 * n), 2 * m)
    n, m = pair_decode((t - 1) // 2)
    return pair_encode(pair_encode(k, 2 * n + 1), 2 * m)


def diag_tuple_src(i):
    """Every row is the instance."""
    return pair_decode(i)[1]


def shift_src(j):
    return j + 1


# box inclusion, everything computed per call -------------------------------

def image_in_boxes_per_call(source, src, boxes: tuple, depth: int,
                            cap: int) -> bool:
    """problems.image_in_boxes with src read and each position's box
    masks computed afresh on every call."""
    coords = [src(i) for i in range(depth)]
    if not boxes or len(set(coords)) < depth:
        return False
    states = {(1 << len(boxes)) - 1}
    for i, c in enumerate(coords):
        if c < depth and len(source.bits(c)) == 2:
            bits = (0, 1)
        else:
            bits = (min(source.bits(c)),)
        masks = [sum(1 << k for k, box in enumerate(boxes) if x in box.bits(i))
                 for x in bits]
        states = {s & m for s in states for m in masks}
        if 0 in states or len(states) > cap:
            return False
    return True


# the explorer before branches were kept across depths ---------------------

def explore_fresh(box, depth: int, cap: int, run) -> list:
    """CoordProductSet.explore as a loop that runs every branch afresh:
    each run answers its fixed coordinates and the canonical bit
    elsewhere, and every free coordinate below depth that it reads unfixed
    becomes a child run that keeps the earlier reads as seen and flips
    that coordinate."""
    free = [i for i in range(depth) if len(box.bits(i)) == 2]
    weight = {c: 1 << (len(free) - 1 - k) for k, c in enumerate(free)}
    most = cap.bit_length() - 1
    out = []
    pending = [(0, {})]
    while pending:
        index, fixed = pending.pop()
        use = []

        def law(i, fixed=fixed, use=use):
            if i not in weight:
                return box.canonical_bit(i)
            if len(use) >= most:
                raise CapacityExceeded(
                    f"a run reads {len(use) + 1} free coordinates below "
                    f"depth {depth}, beyond the behavior bound {cap}")
            use.append(i)
            return fixed.get(i, 0)

        result = run(LawPoint(fn=law, label="product-branch"))
        out.append((index, tuple(use), result))
        seen = dict(fixed)
        for c in use:
            if c not in seen:
                child = dict(seen)
                child[c] = 1
                pending.append((index + weight[c], child))
                seen[c] = 0
    out.sort(key=lambda entry: entry[0])
    return out


# the per-row swap search: a fresh compact per search, each word's view
# built and each word's admission tested at every row ----------------------

def emit_width_per_row(m: Machine, compact, n: int, start: int,
                       k_cap: int) -> Optional[int]:
    for k in range(start, k_cap + 1):
        words = extensions((), k, compact.admits)
        if words and all(len(m.view(w)) > n for w in words):
            return k
    return None


def truth_table_per_row(m: Machine, compact, n: int, arity: int) -> tuple:
    table = []
    for w in itertools.product((0, 1), repeat=arity):
        if compact.admits(w):
            out = m.view(w)
            if len(out) <= n:
                raise FuelExhausted(f"machine stalled on admitted word {w}")
            table.append(out[n])
        else:
            table.append(0)
    return tuple(table)


def search_per_row(m: Machine, excluded, n: int, start: int, k_cap: int):
    """Row n's commit, (width, table) or None, from a fresh compact."""
    compact = ClopenCompact(excluded)
    width = emit_width_per_row(m, compact, n, start, k_cap)
    return None if width is None else (
        width, truth_table_per_row(m, compact, n, width))


def replay_per_row(swap: DynamicSwap, symbol_at, length: int,
                   max_rows: int) -> dict:
    """DynamicSwap.replay with every row searched afresh."""
    excluded: set = set()
    commits: dict = {}

    def drain(ell):
        while len(commits) < max_rows:
            n = len(commits)
            start = commits[n - 1][1] if n else 1
            found = search_per_row(swap.mid, excluded, n, start, swap.K_CAP)
            if found is None:
                return
            commits[n] = (ell, *found)

    drain(1)
    for ell in range(1, length + 1):
        if symbol_at(ell - 1) == 0:
            continue
        _, blocks = pulse_exclusions(ell - 1, swap.ROW_CAP)
        excluded.update(blocks or ())
        drain(ell)
    return commits


# the row machine's emitted length, scanned code by code ---------------------

def row_emit_length_per_code(needs, L: int, cap: int) -> int:
    """The least code below cap whose row r has needs(r) > L, cap when none
    has: every code tested in order."""
    n = 0
    while n < cap and needs(pair_decode(n)[0]) <= L:
        n += 1
    return n
