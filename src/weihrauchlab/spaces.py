"""Represented spaces at desk scale: naturals, ternary truth values,
decidable binary trees, clopen compacts, and dyadic rationals, with
encoders onto finitely presented points and prefix-level decode checks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterable

from .errors import InsufficientPrefix, InvariantViolation, NotAName
from .points import (
    EvPeriodic,
    Point,
    Word,
    fact,
    first_nonzero,
    nonzero_census,
    normalize,
    pair_decode,
    pair_encode,
    prefix,
    pulse,
    pulse_bit,
    pulse_position,
)


# ---------------------------------------------------------------------------
# word enumeration: length-lexicographic over {0,1}*

def word_index(w: Word) -> int:
    n = len(w)
    v = 0
    for b in w:
        v = 2 * v + b
    return (1 << n) - 1 + v


_BIT = {"0": 0, "1": 1}


def word_at(i: int) -> Word:
    """The word of index i: the binary digits of i + 1 after its leading 1."""
    return tuple(map(_BIT.__getitem__, bin(i + 1)[3:]))


def extensions(start, n: int, member: Callable) -> list:
    """The binary words of length n that extend start and whose every prefix
    longer than start passes member, in lexicographic order (n >= len(start);
    start itself is not tested)."""
    words = [tuple(start)]
    for _ in range(n - len(start)):
        words = [c for w in words for c in (w + (0,), w + (1,)) if member(c)]
    return words


# ---------------------------------------------------------------------------
# naturals

def encode_nat(n: int) -> EvPeriodic:
    return EvPeriodic((n,), (0,))


def decode_nat(w) -> int:
    if len(w) < 1:
        raise InsufficientPrefix("a natural's name needs one symbol")
    return w[0]


# ---------------------------------------------------------------------------
# ternary truth values

class TernaryValue(enum.Enum):
    ZERO = 0
    ONE = 1
    HALF = "half"

    def __repr__(self):
        return {"ZERO": "0", "ONE": "1", "HALF": "1/2"}[self.name]


T0, T1, THALF = TernaryValue.ZERO, TernaryValue.ONE, TernaryValue.HALF


def encode_ternary(t: TernaryValue) -> EvPeriodic:
    if t is THALF:
        return EvPeriodic((), (0,))
    return pulse(pulse_position(0, t.value))


def ternary_pulse(p: Point) -> int | None:
    """Where a ternary name's nonzero entry stands, None when it has none;
    the name must have at most one (the lesser-omniscience domain)."""
    kind, pos = nonzero_census(p)
    if kind == "many":
        raise NotAName(f"two nonzero entries (first at {pos})")
    return pos


def decode_ternary(p: Point) -> TernaryValue:
    """Case split of the ternary representation, on its pulse."""
    pos = ternary_pulse(p)
    return THALF if pos is None else TernaryValue(pulse_bit(pos))


def ternary_of_word(w) -> TernaryValue | None:
    """Decode a finite prefix: determined value or None while all zeros."""
    i = first_nonzero(w)
    if i is None:
        return None
    return TernaryValue(pulse_bit(i))


# ---------------------------------------------------------------------------
# decidable binary trees

@dataclass
class FinTree:
    """Finite explicit part plus finitely many eventually periodic live paths.

    Membership: w is in the tree iff w is an explicit node or a prefix of a
    live path.  The tree is infinite exactly when live paths exist.
    """

    explicit_depth: int
    explicit_nodes: frozenset
    live_paths: tuple

    def __init__(self, explicit_depth: int, explicit_nodes: Iterable,
                 live_paths: Iterable = ()):
        self.explicit_depth = explicit_depth
        self.explicit_nodes = frozenset(tuple(w) for w in explicit_nodes)
        self.live_paths = tuple(live_paths)
        self._live_prefixes: dict = {}
        self.validate()

    def validate(self):
        for w in self.explicit_nodes:
            if len(w) > self.explicit_depth:
                raise InvariantViolation(f"explicit node {w} deeper than {self.explicit_depth}")
            if any(b not in (0, 1) for b in w):
                raise InvariantViolation(f"non-binary node {w}")
            if len(w) > 0 and w[:-1] not in self.explicit_nodes:
                raise InvariantViolation(f"explicit part not prefix-closed at {w}")
        if self.explicit_nodes and () not in self.explicit_nodes:
            raise InvariantViolation("explicit part misses the root")
        for q in self.live_paths:
            if not isinstance(q, EvPeriodic):
                raise InvariantViolation("live paths must be eventually periodic")
            if any(b not in (0, 1) for b in q.head + q.period):
                raise InvariantViolation("live paths must be binary")

    def live_prefixes(self, n: int) -> frozenset:
        if n not in self._live_prefixes:
            self._live_prefixes[n] = frozenset(prefix(q, n) for q in self.live_paths)
        return self._live_prefixes[n]

    def member(self, w) -> bool:
        w = tuple(w)
        return w in self.explicit_nodes or w in self.live_prefixes(len(w))

    def chi(self, w) -> int:
        return 1 if self.member(w) else 0

    def alive(self, w) -> bool:
        """w lies on a live path: comparable with arbitrarily long tree words."""
        return tuple(w) in self.live_prefixes(len(w))

    def infinite(self) -> bool:
        return len(self.live_paths) > 0

    def blocking_search_bound(self, w) -> int:
        return max(self.explicit_depth, len(w) + 1) + 1

    def __repr__(self):
        return (f"FinTree(depth={self.explicit_depth}, "
                f"nodes={len(self.explicit_nodes)}, live={len(self.live_paths)})")


class TreeChar(Point):
    """Characteristic stream of a FinTree under the word enumeration.

    Supports value_at and prefix; progression and census queries are refused
    (consistent with the structural-predicate refusal policy).
    """

    def __init__(self, tree: FinTree):
        self.tree = tree

    def value_at(self, i: int) -> int:
        return self.tree.chi(word_at(i))

    def __repr__(self):
        return f"TreeChar({self.tree!r})"


def encode_tree(t: FinTree) -> Point:
    """The point whose n-th value is the membership bit of the n-th word."""
    t.validate()
    if not t.live_paths:
        # finitely many members: characteristic stream is eventually zero
        top = word_index(tuple([1] * t.explicit_depth)) + 1
        return EvPeriodic(tuple(t.chi(word_at(i)) for i in range(top)), (0,))
    return TreeChar(t)


# ---------------------------------------------------------------------------
# clopen compacts (negative information)

@dataclass(frozen=True)
class ClopenCompact:
    """Cantor space minus finitely many cylinders, given by excluded words."""

    excluded: frozenset

    def __init__(self, excluded: Iterable):
        object.__setattr__(self, "excluded", frozenset(tuple(w) for w in excluded))
        for w in self.excluded:
            if any(b not in (0, 1) for b in w):
                raise InvariantViolation(f"non-binary excluded word {w}")
        # every liveness query reads the depth
        object.__setattr__(self, "_depth",
                           max((len(w) for w in self.excluded), default=0))
        object.__setattr__(self, "_alive", {})
        # at index k the admitted words of length k (none below an
        # excluded empty word)
        object.__setattr__(self, "_admitted",
                           [[()], []] if () in self.excluded else [[()]])

    def depth(self) -> int:
        return self._depth

    def admits(self, w) -> bool:
        """No prefix of w is an excluded cylinder."""
        w = tuple(w)
        return not any(w[: len(e)] == e for e in self.excluded)

    def admitted_words(self, n: int) -> list:
        """The admitted words of length n in lexicographic order, kept per
        width: a child of an admitted word is admitted iff it is not itself
        excluded."""
        levels = self._admitted
        while len(levels) <= n:
            levels.append([c for w in levels[-1] for c in (w + (0,), w + (1,))
                           if c not in self.excluded])
        return levels[n]

    def is_empty(self) -> bool:
        # decidable by finite search: beyond the excluded depth no new
        # cylinder can be entered, so survivors at that depth certify members;
        # an excluded empty word excludes every word, () among them
        return () in self.excluded or not self.admitted_words(self.depth())

    def alive(self, w) -> bool:
        """w extends to a member: w is admitted and, below the excluded
        depth, one of its children is alive."""
        w = tuple(w)
        if w not in self._alive:
            self._alive[w] = self.admits(w) and (len(w) >= self._depth
                                                 or self.alive(w + (0,))
                                                 or self.alive(w + (1,)))
        return self._alive[w]


def clopen_word_code(w) -> int:
    return word_index(w) + 1


def clopen_code_word(c: int) -> Word:
    return word_at(c - 1)


def encode_clopen(k: ClopenCompact) -> EvPeriodic:
    """Negative-information name: excluded-cylinder codes, zero padded."""
    codes = sorted(clopen_word_code(w) for w in k.excluded)
    return EvPeriodic(tuple(codes), (0,))


def decode_clopen(p: Point) -> ClopenCompact:
    """Recover the compact from a structurally finite name, once per name:
    the compact is a fact of p, so its liveness memos serve the domain
    test and the value set alike."""
    def decode(p):
        q = normalize(p)
        if q is None or any(x != 0 for x in q.period):
            raise NotAName("clopen names are zero-padded code lists")
        return ClopenCompact({clopen_code_word(c) for c in q.head if c != 0})
    return fact(p, "clopen", decode)


# ---------------------------------------------------------------------------
# dyadic rationals

@dataclass(frozen=True)
class Dyadic:
    """numerator / 2^exponent in canonical form (odd or zero numerator)."""

    numerator: int
    exponent: int

    def __post_init__(self):
        n, e = self.numerator, self.exponent
        while n != 0 and n % 2 == 0 and e > 0:
            n //= 2
            e -= 1
        if n == 0:
            e = 0
        object.__setattr__(self, "numerator", n)
        object.__setattr__(self, "exponent", e)

    def sign(self) -> int:
        return (self.numerator > 0) - (self.numerator < 0)

    def as_fraction(self):
        return self.numerator, 2 ** self.exponent

    def __le__(self, other):
        a, b = self.as_fraction()
        c, d = other.as_fraction()
        return a * d <= c * b

    def __repr__(self):
        return f"Dyadic({self.numerator}/2^{self.exponent})"


def _zigzag(n: int) -> int:
    return 2 * n if n >= 0 else -2 * n - 1


def _unzigzag(z: int) -> int:
    return z // 2 if z % 2 == 0 else -(z + 1) // 2


def dyadic_code(d: Dyadic) -> int:
    return pair_encode(_zigzag(d.numerator), d.exponent)


def dyadic_from_code(c: int) -> Dyadic:
    z, e = pair_decode(c)
    return Dyadic(_unzigzag(z), e)


def encode_dyadic(x: Dyadic) -> EvPeriodic:
    """Canonical fast-converging name: the constant code stream."""
    return EvPeriodic((), (dyadic_code(x),))


def decode_dyadic(p: Point) -> Dyadic:
    """Exact value of a convergent dyadic name (eventually constant codes),
    decoded once per name, as a fact of p."""
    def decode(p):
        q = normalize(p)
        if q is None:
            raise NotAName("dyadic names must be eventually periodic at desk scale")
        tail = {dyadic_from_code(c) for c in q.period}
        if len(tail) != 1:
            raise NotAName("dyadic name does not stabilize")
        x = tail.pop()
        # convergence discipline: |a_i - x| <= 2^-i for the head approximations
        for i, c in enumerate(q.head):
            a = dyadic_from_code(c)
            num_a, den_a = a.as_fraction()
            num_x, den_x = x.as_fraction()
            lhs = abs(num_a * den_x - num_x * den_a) * (2 ** i)
            if lhs > den_a * den_x:
                raise NotAName(f"approximation {i} breaks the convergence bound")
        return x
    return fact(p, "dyadic", decode)
