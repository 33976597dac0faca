"""Weak computability infrastructure: the compact image of parallelized
LLPO, moduli of uniform continuity, truth-table extraction, the
coordinate-swap construction that moves a machine past the parallelized
oracle, composition of weakly computable reductions, and the compact
choice witnesses.  Their row-tupled machines emit through emit_rows.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cache
from math import inf
from typing import Callable, Optional

from .errors import (
    ArityCap,
    CapacityExceeded,
    FuelExhausted,
    NonRepresentable,
    UnsupportedShape,
)
from .machines import (
    Machine,
    PointView,
    RowView,
    compose,
    compose_all,
    emit_rows,
    identity,
    row_rule_machine,
    stream_machine,
)
from .points import (
    ZEROS,
    EvPeriodic,
    LawPoint,
    Point,
    first_nonzero,
    pair_decode,
    pair_encode,
    pulse,
    pulse_position,
    row,
    row_length,
    row_period,
    scan_bound,
)
from .problems import (
    compact_choice_problem,
    compose_problems,
    llpo_hat_problem,
    llpo_hat_value,
    llpo_problem,
    llpo_value,
)
from .spaces import (
    T1,
    THALF,
    ClopenCompact,
    TernaryValue,
    clopen_code_word,
    clopen_word_code,
    decode_ternary,
    word_at,
)
from .ternary import (
    classify,
    extension_value,
    resolution_realizer,
    shape_of,
    word_of_shape,
)
from .witnesses import (
    Witness,
    double_absorb_machine,
    hat_is_cylinder,
    id_to_llpo_hat,
    strengthen_on_cylinder,
)
from .wkl import path_extractor

EXCLUSION_CAP = 4096
MODULUS_K_CAP = 16
ENCODER_ROW_CAP = 10


# ---------------------------------------------------------------------------
# compact image

def forced_bits(p: Point) -> dict:
    """Forced coordinates of the parallelized-LLPO image; the forced set
    must be finite to be clopen-representable."""
    head, tail = row_period(p)
    if any(len(llpo_value(r)) == 1 for r in tail):
        raise NonRepresentable("tail rows force bits: infinite negative information")
    heads = map(llpo_value, head)
    return {n: min(bits) for n, bits in enumerate(heads) if len(bits) == 1}


def exclusion_blocks(n: int, forced_bit: int) -> list:
    """The cylinders that forcing coordinate n to forced_bit excludes: every
    word of length n + 1 ending in the other bit."""
    bad = 1 - forced_bit
    return [head + (bad,) for head in itertools.product((0, 1), repeat=n)]


def pulse_exclusions(i: int, row_cap: int) -> tuple:
    """A pulse at <n,t> forces coordinate n, to 1 when t is even: (n, the
    cylinders it excludes), the cylinders None when n exceeds row_cap."""
    n, t = pair_decode(i)
    if n > row_cap:
        return n, None
    return n, exclusion_blocks(n, 1 if t % 2 == 0 else 0)


def compact_image(p: Point) -> ClopenCompact:
    """Excluded cylinders: per forced coordinate, every word of the next
    length ending in the forbidden bit."""
    forced = forced_bits(p)
    excluded = set()
    for n, b in sorted(forced.items()):
        if 2 ** n > EXCLUSION_CAP:
            raise CapacityExceeded(f"coordinate {n} needs {2 ** n} exclusions")
        excluded.update(exclusion_blocks(n, b))
        if len(excluded) > EXCLUSION_CAP:
            raise CapacityExceeded("excluded-cylinder budget exhausted")
    return ClopenCompact(excluded)


# ---------------------------------------------------------------------------
# modulus of uniform continuity

@dataclass
class Modulus:
    values: list
    degenerate: bool = False

    def __call__(self, n: int) -> int:
        return self.values[n]


def kept_outputs(m: Machine) -> Machine:
    """m whose view of a word is its whole output, computed once by eval
    and kept: far smaller than the lazy view that would compute it."""
    return replace(m, view=cache(m.eval))


def emit_width(m: Machine, compact: ClopenCompact, n: int, start: int,
               k_cap: int) -> Optional[int]:
    """The least width k in [start, k_cap] at which the compact admits some
    word of length k and every such word makes m emit symbol n; None when
    no width up to k_cap does.  m's output is read as a view, so a lazy
    one gives its length without computing a symbol, and a kept_outputs
    one computes each word's output once over the rows searched on one
    compact."""
    for k in range(start, k_cap + 1):
        words = compact.admitted_words(k)
        if words and all(len(m.view(w)) > n for w in words):
            return k
    return None


def modulus(m: Machine, compact: ClopenCompact, n_max: int,
            k_cap: int = MODULUS_K_CAP) -> Modulus:
    """Exhaustive-search modulus: the least admitted word length whose every
    admitted word already determines the first n output symbols."""
    if compact.is_empty():
        return Modulus([0] * (n_max + 1), degenerate=True)
    values = [1]
    for n in range(n_max):
        k = emit_width(m, compact, n, values[-1], k_cap)
        if k is None:
            raise FuelExhausted(
                f"modulus search for {n + 1} symbols stalled beyond width {k_cap}")
        values.append(k)
    return Modulus(values)


# ---------------------------------------------------------------------------
# truth tables

@dataclass
class TruthTableFamily:
    """Per output coordinate: an arity and the table of the machine's
    coordinate on admitted words (excluded entries are zero-filled)."""

    entries: list  # list of (arity, table)

    def arity(self, n: int) -> int:
        return self.entries[n][0]

    def table(self, n: int) -> tuple:
        return self.entries[n][1]


def truth_table(m: Machine, compact: ClopenCompact, n: int, arity: int) -> tuple:
    """Symbol n of m on every word of length arity, in lexicographic order;
    the words the compact excludes read 0.  m's output is read as a view,
    on the admitted words alone, so a lazy one computes symbol n alone."""
    table = dict.fromkeys(itertools.product((0, 1), repeat=arity), 0)
    for w in compact.admitted_words(arity):
        out = m.view(w)
        if len(out) <= n:
            raise FuelExhausted(f"machine stalled on admitted word {w}")
        table[w] = out[n]
    return tuple(table.values())


def extract_tables(m: Machine, compact: ClopenCompact, mod: Modulus,
                   depth: int) -> TruthTableFamily:
    entries = []
    for n in range(depth):
        arity = max(1, mod(n + 1))
        if arity > 8:
            raise ArityCap(f"coordinate {n} needs arity {arity}")
        entries.append((arity, truth_table(m, compact, n, arity)))
    return TruthTableFamily(entries)


# ---------------------------------------------------------------------------
# the swap construction

@dataclass
class SwapResult:
    g_machine: Machine
    tables: TruthTableFamily
    mod: Modulus
    left: set
    right: set

    def sides_equal(self) -> bool:
        return self.left == self.right


def swap_g_machine(tables: TruthTableFamily) -> Machine:
    """Rows of the output are resolution realizers of the extended tables."""
    realizers = [resolution_realizer(tables.table(n), tables.arity(n))
                 for n in range(len(tables.entries))]

    def rule(w):
        return emit_rows(lambda n: realizers[n].eval(w) if n < len(realizers)
                         else (), len(w))

    return row_rule_machine("swap-G", rule)


def left_value_set(m: Machine, p: Point, depth: int, mod: Modulus) -> set:
    """Push every observable member of the parallelized image through m."""
    vs = llpo_hat_value(p)
    width = max(1, mod(depth))
    out = set()
    for word in vs.truncations(width, EXCLUSION_CAP):
        res = m.eval(word)
        if len(res) < depth:
            raise FuelExhausted("machine under-produces on a member prefix")
        out.add(tuple(res[:depth]))
    return out


def right_value_set(tables: TruthTableFamily, p: Point, depth: int) -> set:
    """Coordinate-wise images of the extended tables on the true ternary inputs."""
    per_coord = []
    for n in range(depth):
        arity = tables.arity(n)
        ts = [decode_ternary(row(p, i)) for i in range(arity)]
        per_coord.append(sorted(classify(extension_value(tables.table(n), ts))))
    return {tuple(c) for c in itertools.product(*per_coord)}


def llpo_swap(m: Machine, p: Point, depth: int) -> SwapResult:
    """Move a computable machine past the parallelized oracle on one input."""
    compact = compact_image(p)
    kept = kept_outputs(m)
    mod = modulus(kept, compact, depth)
    tables = extract_tables(kept, compact, mod, depth)
    g = swap_g_machine(tables)
    left = left_value_set(m, p, depth, mod)
    right = right_value_set(tables, p, depth)
    return SwapResult(g, tables, mod, left, right)


# ---------------------------------------------------------------------------
# compact choice witnesses

def compact_encoder_machine() -> Machine:
    """Stream the forced coordinates of a row point as excluded cylinders,
    a 0 for each zero read; on a word, a forced coordinate beyond
    ENCODER_ROW_CAP is refused.  The point action is the machine's output
    on the name's nonzeros, zero-padded."""
    def codes(w):
        for i in itertools.count():
            if w[i] == 0:
                yield 0
                continue
            n, blocks = pulse_exclusions(i, ENCODER_ROW_CAP)
            if blocks is None:
                raise CapacityExceeded(f"forced coordinate {n} beyond the cap")
            yield from map(clopen_word_code, blocks)

    def point(p):
        forced_bits(p)   # NonRepresentable on forcing tails
        return EvPeriodic(k.eval(p.prefix(scan_bound(p) + 1)), (0,))

    k = stream_machine("compact-encode", codes, point=point)
    return k


def llpo_hat_to_compact() -> Witness:
    return Witness(llpo_hat_problem(), compact_choice_problem(),
                   compact_encoder_machine(), identity(), True,
                   name="llpo_hat_to_compact")


class CylinderBlocking:
    """Per-row blocking commits over a negative-information stream.

    Each excluded word keeps the stage at which its code first arrived.  A
    word dies, extending to no admitted word, at the first stage of an
    excluded prefix, or, while an excluded word lies strictly below it, once
    both children have died.  A row commits at the first death of a child
    of its word; a doubly blocked word is off every branch, and pinning one
    side keeps the row decided and the extraction unaffected.
    """

    def __init__(self, code_stream, length: int):
        self.stage: dict = {}
        for ell in range(1, length + 1):
            c = code_stream(ell - 1)
            if c != 0:
                self.stage.setdefault(clopen_code_word(c), ell)
        self.inner = {e[:i] for e in self.stage for i in range(len(e))}
        self.depth = max(map(len, self.stage), default=0)
        self._death: dict = {}
        self._commits: dict = {}

    def death(self, w) -> float:
        """The first stage at which w extends to no admitted word (inf: never)."""
        w = w[:self.depth]      # no excluded word reaches deeper
        if w not in self._death:
            d = min(self.stage.get(w[:i], inf) for i in range(len(w) + 1))
            if w in self.inner:
                d = min(d, max(self.death(w + (0,)), self.death(w + (1,))))
            self._death[w] = d
        return self._death[w]

    def commit(self, r: int) -> Optional[int]:
        """Row r's pulse position once blocking evidence appears, else None."""
        if r not in self._commits:
            v = word_at(r)
            d0, d1 = self.death(v + (0,)), self.death(v + (1,))
            d = min(d0, d1)
            # the pulse names the child to take: 1 when 0 is blocked
            self._commits[r] = (None if d == inf
                                else pulse_position(d, 1 if d0 <= d1 else 0))
        return self._commits[r]


def compact_blocking_machine() -> Machine:
    """Clopen name in, blocking tuple out, with observation-stage pulses."""
    def rule(w):
        L = len(w)
        blocking = CylinderBlocking(lambda i: w[i], L)

        return emit_rows(lambda r: word_of_shape((row_length(L, r),
                                                  blocking.commit(r))), L)

    def point(p):
        bound = scan_bound(p) + 1
        blocking = CylinderBlocking(p.value_at, bound)

        def row_of(r):
            pos = blocking.commit(r)
            return ZEROS if pos is None else pulse(pos)

        return LawPoint(row_fn=row_of, label="compact-blocking")

    return row_rule_machine("compact-blocking", rule, point=point)


def compact_to_llpo_hat() -> Witness:
    return Witness(compact_choice_problem(), llpo_hat_problem(),
                   compact_blocking_machine(), path_extractor(), True,
                   name="compact_to_llpo_hat")


def compact_choice_witnesses() -> tuple:
    return compact_to_llpo_hat(), llpo_hat_to_compact()


# ---------------------------------------------------------------------------
# weak composition

REPLAY_CAP = 256
SCAN_CAP = 64


class DynamicSwap:
    """Replay-committed swap of a middle machine past the oracle.

    Commits, per output row, a modulus width and truth table as soon as the
    negative information seen so far supports the exhaustive search; the
    committed realizers then stream their verdicts.  Deterministic in the
    input prefix, hence a monotone machine.

    A search depends only on the exclusions, the row and the start width,
    so each is made once per swap and every replay reuses its result.  A
    drain's searches share one compact and one kept_outputs middle machine,
    built at its first search and dropped with it.
    """

    K_CAP = 8       # the widest modulus a row's search tries
    ROW_CAP = 8     # pulses of rows beyond it exclude nothing

    def __init__(self, mid: Machine):
        self.mid = mid
        self._searches: dict = {}   # (exclusions, row, start) -> search

    def search(self, excluded: frozenset, n: int, start: int,
               under: Callable):
        """Row n's commit under the exclusions from width start on:
        (width, table), or None when no width up to K_CAP fits; under()
        gives the drain's compact and middle machine."""
        key = (excluded, n, start)
        if key not in self._searches:
            compact, mid = under()
            width = emit_width(mid, compact, n, start, self.K_CAP)
            self._searches[key] = None if width is None else (
                width, truth_table(mid, compact, n, width))
        return self._searches[key]

    def replay(self, symbol_at: Callable, length: int, max_rows: int):
        excluded: set = set()
        commits: dict = {}

        def drain(ell):
            frozen = frozenset(excluded)
            under = cache(lambda: (ClopenCompact(frozen), kept_outputs(self.mid)))
            while len(commits) < max_rows:
                n = len(commits)
                start = commits[n - 1][1] if n else 1
                found = self.search(frozen, n, start, under)
                if found is None:
                    return
                commits[n] = (ell, *found)

        drain(1)
        for ell in range(1, length + 1):
            if symbol_at(ell - 1) == 0:
                continue
            _, blocks = pulse_exclusions(ell - 1, self.ROW_CAP)
            excluded.update(blocks or ())
            drain(ell)
        return commits

    def machine(self) -> Machine:
        def rule(w):
            L = len(w)
            commits = self.replay(lambda i: w[i], L, L)

            def out_row(n):
                state = commits.get(n)
                if state is None:
                    return (0,) * L    # safe zeros while uncommitted
                ell, arity, table = state
                return resolution_realizer(table, arity, floor=ell).eval(w)

            return emit_rows(out_row, L)

        return row_rule_machine(f"dyn-swap({self.mid.name})", rule)


class DynamicSwapMirror:
    """Point-level mirror of the dynamic swap on a fixed input name."""

    def __init__(self, swap: DynamicSwap, q1: Point):
        self.swap = swap
        self.q1 = q1
        self.length = min(REPLAY_CAP, scan_bound_or(q1, REPLAY_CAP))
        self._max_rows = 8
        self.commits = swap.replay(q1.value_at, self.length, self._max_rows)
        self._rows: dict = {}

    HARD_ROWS = 32768

    def commit(self, n: int):
        while (n >= self._max_rows and len(self.commits) == self._max_rows
               and self._max_rows <= self.HARD_ROWS):
            self._max_rows = max(2 * self._max_rows, n + 1)
            self.commits = self.swap.replay(self.q1.value_at, self.length,
                                            self._max_rows)
        state = self.commits.get(n)
        if state is None:
            raise FuelExhausted(f"row {n} never commits within the replay cap")
        return state

    def ternary(self, n: int) -> TernaryValue:
        ell, arity, table = self.commit(n)
        ts = [decode_ternary(row(self.q1, i)) for i in range(arity)]
        return extension_value(table, ts)

    def row(self, n: int) -> EvPeriodic:
        if n in self._rows:
            return self._rows[n]
        t = self.ternary(n)
        if t is THALF:
            out = EvPeriodic((), (0,))
        else:
            ell, arity, table = self.commit(n)
            # the realizer is monotone: its widest window has the first pulse
            mach = resolution_realizer(table, arity, floor=ell)
            pos = first_nonzero(mach.eval(PointView(self.q1, 4 * REPLAY_CAP)))
            if pos is None:
                raise FuelExhausted(f"row {n} pulse beyond the replay cap")
            out = pulse(pos)
        self._rows[n] = out
        return out

    def pulse(self, n: int) -> Optional[int]:
        return first_nonzero(self.row(n).head)


def scan_bound_or(p: Point, fallback: int) -> int:
    try:
        return scan_bound(p) + 1
    except UnsupportedShape:
        return fallback


def condenser_machine() -> Machine:
    """Collapse each row to its first nonzero entry (parity preserved)."""
    def rule(w):
        return emit_rows(lambda k: word_of_shape(shape_of(RowView(w, k))),
                         len(w))

    return row_rule_machine("condense", rule)


def _condensed_rows(mirror: DynamicSwapMirror):
    """Row k of the condensed target: the earliest mapped contributor pulse.

    The scan stops where the middle machine's commit capability ends; the
    streamed rows beyond that point are zeros on both sides (machine and
    mirror are bounded by the same commits), so the mirror stays exact.
    """
    def row_of(k):
        best = None
        s = 0
        while True:
            n = s // 2
            if best is not None and pair_encode(n, 0) * 2 > best:
                break
            if s > 2 * SCAN_CAP:
                break
            inner = pair_encode(k, s)
            try:
                t = mirror.ternary(inner)
            except FuelExhausted:
                break
            if t is T1:
                pos = mirror.pulse(inner)
                mapped = 2 * pair_encode(n, pos // 2) + (s % 2)
                if best is None or mapped < best:
                    best = mapped
            s += 1
        if best is None:
            return EvPeriodic((), (0,))
        return pulse(best)

    return row_of


def weak_compose(wf: Witness, wg: Witness) -> Witness:
    """Compose two reductions to the parallelized oracle into one."""
    target = llpo_hat_problem().key
    if wf.g.key != target or wg.g.key != target:
        raise UnsupportedShape("weak composition needs reductions to llpo_hat")
    cyl = hat_is_cylinder(llpo_problem(), id_to_llpo_hat())
    sf = wf if wf.strong else strengthen_on_cylinder(wf, cyl)
    sg = wg if wg.strong else strengthen_on_cylinder(wg, cyl)
    composite = compose_problems(wg.f, wf.f)
    mid = compose(sg.K, sf.H)
    dyn = DynamicSwap(mid)

    def point(p):
        mirror = DynamicSwapMirror(dyn, sf.k_point(p))
        return LawPoint(row_fn=_condensed_rows(mirror), label="weak-compose")

    k_all = replace(compose_all(condenser_machine(), double_absorb_machine(),
                                dyn.machine(), sf.K), point=point)
    return Witness(composite, llpo_hat_problem(), k_all, sg.H, True,
                   name=f"weak({wg.name} o {wf.name})")
