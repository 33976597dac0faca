"""Both explicit directions between tree choice and parallelized LLPO,
on the decidable tree class.

The forward direction turns a tree name into one blocking stream per
binary word; an oracle answer supplies, per word, a bit whose child is
still on arbitrarily long tree branches, and the path extractor follows
those bits.  The backward direction encodes the rows' constraints as a
tree whose paths are exactly the admissible answer streams.  One
blocking search, one pulse rule and one extension test serve the
forward machine, on the finite tree its input prefix decides, and its
mirror, on the name's own tree.  Blocking rows go out through
emit_rows.  The constraint tree's machine reads the
whole parity test, parity_chi, for each word; the mirror's
ConstraintTree.chi decides a word from its parent's answer and the new
last row and column, O(n) row symbols for a word of length n where
parity_chi reads O(n^2), and parity_chi is its reference in the tests.
"""

from __future__ import annotations

from itertools import count
from typing import Optional

from .errors import OutOfDomain, UnsupportedShape
from .machines import (
    Machine,
    emit_rows,
    index_machine,
    row_rule_machine,
    stream_machine,
)
from .points import (
    ZEROS,
    EvPeriodic,
    LawPoint,
    Point,
    pair_encode,
    period_row,
    pulse,
    pulse_position,
    row_length,
    row_period,
    scan_bound,
)
from .problems import (
    CoordProductSet,
    Problem,
    SinglePointSet,
    UnionSet,
    ValueSet,
    llpo_hat_problem,
    llpo_hat_value,
)
from .spaces import FinTree, TreeChar, extensions, word_at, word_index
from .ternary import word_of_shape
from .witnesses import Witness, compose_witness


# ---------------------------------------------------------------------------
# the constraint tree of a row point (free tails allowed)

def parity_chi(read, v) -> int:
    """The constraint tree's membership bit of the word v: 1 when every row
    m < len(v) reads 0 at 2k + v[m] for every k < len(v), 0 at the first
    such symbol, in row order, that is not 0.  read(m, j) is symbol j of
    row m."""
    n = len(v)
    for m in range(n):
        for k in range(n):
            if read(m, 2 * k + v[m]) != 0:
                return 0
    return 1


class ConstraintTree:
    """Tree of words obeying the rows' parity constraints level by level.

    Unlike FinTree, the path set may be a full coordinate-wise product, so
    paths are described by per-coordinate allowed bits instead of a finite
    live list.
    """

    def __init__(self, point: Point):
        head, tail = self.period = row_period(point)   # UnsupportedShape off row points
        self.values = llpo_hat_value(point)
        max_nz = max(scan_bound(r) for r in head + tail)
        self.stub_depth = max(1, max_nz // 2 + 1)
        self._chi: dict = {}

    def chi(self, w) -> int:
        """parity_chi of w on the rows, from chi(w[:-1]): w's constraints
        are its prefix's plus the new last column, rows m < n - 1 at
        k = n - 1, and the new last row, row n - 1 at every k < n.  O(n)
        symbols per word, each prefix decided once."""
        w = tuple(w)
        got = self._chi.get(w)
        if got is None:
            got = self._chi[w] = self._extend(w)
        return got

    def _extend(self, w) -> int:
        n = len(w)
        if n == 0:
            return 1
        if not self.chi(w[:-1]):
            return 0
        last, period = n - 1, self.period
        if any(period_row(period, m).value_at(2 * last + w[m])
               for m in range(last)):
            return 0
        row, b = period_row(period, last), w[last]
        return 0 if any(row.value_at(2 * k + b) for k in range(n)) else 1

    def member(self, w) -> bool:
        return self.chi(w) == 1

    def alive(self, w) -> bool:
        w = tuple(w)
        return all(w[m] in self.values.bits(m) for m in range(len(w)))

    def infinite(self) -> bool:
        return True

    def blocking_search_bound(self, w) -> int:
        return max(self.stub_depth, len(w) + 1) + 1

    def path_values(self) -> CoordProductSet:
        return self.values

    def __repr__(self):
        return f"ConstraintTree(stub={self.stub_depth})"


def tree_path_values(tree) -> ValueSet:
    """The path set of a tree presentation, as a value set."""
    if isinstance(tree, FinTree):
        return UnionSet(map(SinglePointSet, tree.live_paths))
    if isinstance(tree, ConstraintTree):
        return tree.path_values()
    raise UnsupportedShape(f"no path set for {type(tree).__name__}")


def wkl_problem() -> Problem:
    """Tree choice over characteristic names of decidable trees."""
    def dom(p):
        return isinstance(p, TreeChar) and p.tree.infinite()

    def value(p):
        return tree_path_values(p.tree)

    return Problem("wkl", dom, value)


# ---------------------------------------------------------------------------
# blocking levels

def extension_exists(tree, w, n: int) -> bool:
    """Some length-n tree word extends the word w (n >= len(w)): w lies on a
    long branch, or the words of w's subtree reach length n."""
    w = tuple(w)
    return tree.alive(w) or (tree.member(w)
                             and bool(extensions(w, n, tree.member)))


def _child_blocked_at(tree, wi, n: int) -> bool:
    """Presentation-aware test: no length-n tree word comparable with wi."""
    if n <= len(wi):
        return not tree.member(wi[:n])
    return not extension_exists(tree, wi, n)


def _blocking_search(tree, w) -> Optional[tuple]:
    """(n, b0, b1): the minimal level n at which a child of w is blocked,
    with each child's blocked bit there; None when both children are alive.
    Both tree presentations are prefix-closed, so no level up to len(w)
    blocks a child of a tree word, and the search starts past it."""
    w0, w1 = w + (0,), w + (1,)
    if tree.alive(w0) and tree.alive(w1):
        return None
    start = len(w) + 1 if tree.member(w) else 0
    for n in range(start, tree.blocking_search_bound(w) + 1):
        b0, b1 = _child_blocked_at(tree, w0, n), _child_blocked_at(tree, w1, n)
        if b0 or b1:
            return n, b0, b1
    raise OutOfDomain("blocking analysis failed on a malformed tree")


def blocking_index(tree, w) -> Optional[int]:
    """Minimal level at which some child of w falls off every long branch."""
    found = _blocking_search(tree, tuple(w))
    return None if found is None else found[0]


def _blocking_pulse(found) -> Optional[int]:
    """Where a blocking stream's pulse stands, from its word's search: None
    when no child or both children are blocked."""
    if found is None or found[1] == found[2]:
        return None
    n, b0, _ = found
    # the pulse names the child to take: 1 (go right) when 0 is blocked
    return pulse_position(2 * n, 1 if b0 else 0)


def q_stream(tree, w) -> EvPeriodic:
    """The per-word blocking stream: a pulse flags the doomed child."""
    pos = _blocking_pulse(_blocking_search(tree, tuple(w)))
    return ZEROS if pos is None else pulse(pos)


# ---------------------------------------------------------------------------
# forward: tree choice reduces to parallelized LLPO

def _covered_level(length: int) -> int:
    """Largest n with every word of length n indexed below the prefix: the
    last word of length n + 1 has index 2^(n+2) - 2."""
    return (length + 1).bit_length() - 2


def blocking_rows_machine() -> Machine:
    """Tree name in, tupled blocking streams out (one row per word): the
    mirror's blocking search on the tree the name's prefix decides, the
    words up to the covered level that read 1 with every prefix."""
    def rule(w):
        L = len(w)
        ell = _covered_level(L)
        if ell < 0:
            return ()

        def member(v):
            return w[word_index(v)] == 1

        words = [v for n in range(ell + 1)
                 for v in extensions((), n, member)] if member(()) else []
        # no live path: every row's search blocks by level ell + 1
        tree = FinTree(ell, words)

        def row_of(r):
            found = _blocking_search(tree, word_at(r))
            if found[0] > ell:
                # no blocking within the covered levels: zeros are safe there
                return (0,) * (2 * ell + 2)
            return word_of_shape((row_length(L, r), _blocking_pulse(found)))

        return emit_rows(row_of, L)

    def point(p):
        if not isinstance(p, TreeChar):
            raise UnsupportedShape("tree names are characteristic points here")
        tree = p.tree
        return LawPoint(row_fn=lambda r: q_stream(tree, word_at(r)),
                        label="blocking-rows")

    return row_rule_machine("blocking-rows", rule, point=point)


def path_extractor() -> Machine:
    """Follow the answer bits word by word down the tree: symbol k is the
    answer at the index of the word of the first k symbols."""
    def bits(w):
        current = ()
        while True:
            bit = w[word_index(current)]
            if bit not in (0, 1):
                return
            yield bit
            current = current + (bit,)
    return stream_machine("path-extract", bits)


def wkl_to_llpo_hat() -> Witness:
    return Witness(wkl_problem(), llpo_hat_problem(), blocking_rows_machine(),
                   path_extractor(), True, name="wkl_to_llpo_hat")


# ---------------------------------------------------------------------------
# backward: parallelized LLPO reduces to tree choice

def constraint_tree_machine() -> Machine:
    """Emit the characteristic stream of the constraint tree of the rows."""
    def chis(w):
        def read(m, j):
            return w[pair_encode(m, j)]

        for j in count():
            w[j]        # word j's bit waits for input symbol j
            yield parity_chi(read, word_at(j))

    return stream_machine("constraint-tree", chis,
                          point=lambda p: TreeChar(ConstraintTree(p)))


def llpo_hat_to_wkl() -> Witness:
    return Witness(llpo_hat_problem(), wkl_problem(), constraint_tree_machine(),
                   index_machine("copy-path", lambda j: j), True,
                   name="llpo_hat_to_wkl")


def wkl_round_trip() -> Witness:
    """The composed witness between parallelized LLPO and itself."""
    return compose_witness(llpo_hat_to_wkl(), wkl_to_llpo_hat())
