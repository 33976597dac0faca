"""Test-only references: a monotonicity audit of machines and the
level-enumeration search for the minimal blocking level of a tree word."""

from typing import Optional

from weihrauchlab.machines import Machine, PointView
from weihrauchlab.points import Point


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
