"""Test-only references: a monotonicity audit of machines, the
level-enumeration search for the minimal blocking level of a tree word,
and the closed-form index laws of the parallelization shuffles, which
the machines read off their point actions."""

from typing import Optional

from weihrauchlab.machines import Machine, PointView
from weihrauchlab.points import Point, pair_decode, pair_encode


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
