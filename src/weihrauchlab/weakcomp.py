"""Weak computability infrastructure: the compact image of parallelized
LLPO, moduli of uniform continuity, truth-table extraction, the
coordinate-swap construction that moves a machine past the parallelized
oracle, composition of weakly computable reductions, and the compact
choice witnesses.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Callable, Optional

from .errors import (
    ArityCap,
    CapacityExceeded,
    FuelExhausted,
    NonRepresentable,
    UnsupportedShape,
)
from .machines import Machine, PointView, compose, compose_all
from .points import (
    EvPeriodic,
    LawPoint,
    Point,
    RowTuple,
    nonzero_census,
    pair_decode,
    pair_encode,
    row,
    row_stabilization,
    rows_of,
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
    T0,
    T1,
    THALF,
    ClopenCompact,
    TernaryValue,
    clopen_word_code,
)
from .ternary import classify, extension_value, resolution_realizer
from .witnesses import (
    Witness,
    double_absorb_machine,
    hat_is_cylinder,
    strengthen_on_cylinder,
)
from .wkl import path_extractor

EXCLUSION_CAP = 4096
MODULUS_K_CAP = 16


def ternary_of_point(p: Point) -> TernaryValue:
    kind, pos = nonzero_census(p)
    if kind == "many":
        raise UnsupportedShape("not a ternary name: two nonzero entries")
    if kind == "zero":
        return THALF
    return T0 if pos % 2 == 1 else T1


# ---------------------------------------------------------------------------
# compact image

def forced_bits(p: Point) -> dict:
    """Forced coordinates of the parallelized-LLPO image; the forced set
    must be finite to be clopen-representable."""
    p = rows_of(p)
    if isinstance(p, RowTuple):
        if len(llpo_value(p.default)) == 1:
            raise NonRepresentable("default row forces a bit: infinite negative information")
        out = {}
        for n, r in p.rows.items():
            bits = llpo_value(r)
            if len(bits) == 1:
                out[n] = min(bits)
        return out
    if isinstance(p, EvPeriodic):
        n_star, cycle = row_stabilization(p)
        for n in range(n_star, n_star + cycle):
            if len(llpo_value(row(p, n))) == 1:
                raise NonRepresentable("periodic tail forces bits: infinite negative information")
        return {n: min(llpo_value(row(p, n)))
                for n in range(n_star) if len(llpo_value(row(p, n))) == 1}
    raise UnsupportedShape(f"compact image on {type(p).__name__}")


def compact_image(p: Point) -> ClopenCompact:
    """Excluded cylinders: per forced coordinate, every word of the next
    length ending in the forbidden bit."""
    forced = forced_bits(p)
    excluded = set()
    for n, b in sorted(forced.items()):
        if 2 ** n > EXCLUSION_CAP:
            raise CapacityExceeded(f"coordinate {n} needs {2 ** n} exclusions")
        bad = 1 - b
        for head in itertools.product((0, 1), repeat=n):
            excluded.add(head + (bad,))
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


def modulus(m: Machine, compact: ClopenCompact, n_max: int,
            k_cap: int = MODULUS_K_CAP) -> Modulus:
    """Exhaustive-search modulus: the least admitted word length whose every
    admitted word already determines the first n output symbols."""
    if compact.is_empty():
        return Modulus([0] * (n_max + 1), degenerate=True)
    values = [1]
    k = 1
    for n in range(1, n_max + 1):
        while True:
            if k > k_cap:
                raise FuelExhausted(
                    f"modulus search for {n} symbols stalled beyond width {k_cap}")
            if all(len(m.eval(w)) >= n for w in compact.admitted_words(k)):
                break
            k += 1
        values.append(k)
    return Modulus(values)


# ---------------------------------------------------------------------------
# truth tables

@dataclass
class TruthTableFamily:
    """Per output coordinate: an arity and the table of the machine's
    coordinate on admitted words (excluded entries are zero-filled)."""

    entries: list  # list of (arity, dict word -> bit)

    def arity(self, n: int) -> int:
        return self.entries[n][0]

    def table(self, n: int) -> tuple:
        arity, lookup = self.entries[n]
        return tuple(lookup[w] for w in itertools.product((0, 1), repeat=arity))


def extract_tables(m: Machine, compact: ClopenCompact, mod: Modulus,
                   depth: int) -> TruthTableFamily:
    entries = []
    for n in range(depth):
        arity = max(1, mod(n + 1))
        if arity > 8:
            raise ArityCap(f"coordinate {n} needs arity {arity}")
        lookup = {}
        for w in itertools.product((0, 1), repeat=arity):
            if compact.admits(w):
                out = m.eval(w)
                if len(out) <= n:
                    raise FuelExhausted(f"machine stalled on admitted word {w}")
                lookup[w] = out[n]
            else:
                lookup[w] = 0
        entries.append((arity, lookup))
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

    def fn(w):
        outs: dict = {}

        def out_row(n):
            if n >= len(realizers):
                return ()
            if n not in outs:
                outs[n] = realizers[n].eval(w)
            return outs[n]

        result = []
        i = 0
        while i < len(w):
            n, k = pair_decode(i)
            r = out_row(n)
            if k >= len(r):
                break
            result.append(r[k])
            i += 1
        return tuple(result)

    return Machine("swap-G", fn)


def left_value_set(m: Machine, p: Point, depth: int, mod: Modulus,
                   cap: int = EXCLUSION_CAP) -> set:
    """Push every observable member of the parallelized image through m."""
    vs = llpo_hat_value(p)
    width = max(1, mod(depth))
    out = set()
    for word in vs.truncations(width, cap):
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
        ts = [ternary_of_point(row(p, i)) for i in range(arity)]
        per_coord.append(sorted(classify(extension_value(tables.table(n), ts))))
    return {tuple(c) for c in itertools.product(*per_coord)}


def llpo_swap(m: Machine, p: Point, depth: int) -> SwapResult:
    """Move a computable machine past the parallelized oracle on one input."""
    compact = compact_image(p)
    mod = modulus(m, compact, depth)
    tables = extract_tables(m, compact, mod, depth)
    g = swap_g_machine(tables)
    left = left_value_set(m, p, depth, mod)
    right = right_value_set(tables, p, depth)
    return SwapResult(g, tables, mod, left, right)


# ---------------------------------------------------------------------------
# compact choice witnesses

def exclusion_blocks(n: int, forced_bit: int) -> list:
    bad = 1 - forced_bit
    return [head + (bad,) for head in itertools.product((0, 1), repeat=n)]


def compact_encoder_machine(row_cap: int = 10) -> Machine:
    """Stream the forced coordinates of a row point as excluded cylinders."""
    def point(p):
        forced_bits(p)   # NonRepresentable on forcing tails
        codes = []
        bound = scan_bound(p)
        for i in range(bound):
            if p.value_at(i) == 0:
                continue
            n, t = pair_decode(i)
            b = 1 if t % 2 == 0 else 0
            for word in exclusion_blocks(n, b):
                codes.append(clopen_word_code(word))
        return EvPeriodic(tuple(codes), (0,))

    def fn(w):
        codes = []
        for i in range(len(w)):
            if w[i] == 0:
                continue
            n, t = pair_decode(i)
            if n > row_cap:
                raise CapacityExceeded(f"forced coordinate {n} beyond the cap")
            b = 1 if t % 2 == 0 else 0
            for word in exclusion_blocks(n, b):
                codes.append(clopen_word_code(word))
        return tuple(codes)
    return Machine("compact-encode", fn, point=point)


def llpo_hat_to_compact() -> Witness:
    return Witness(llpo_hat_problem(), compact_choice_problem(),
                   compact_encoder_machine(), Machine("copy", lambda w: tuple(w)),
                   True, name="llpo_hat_to_compact")


def _blocked(word, excluded: frozenset, depth: int) -> bool:
    """No member of the compact extends word (decided at excluded depth)."""
    word = tuple(word)
    if any(word[: len(e)] == e for e in excluded):
        return True
    frontier = [word]
    for _ in range(max(0, depth - len(word))):
        frontier = [v + (b,) for v in frontier for b in (0, 1)
                    if not any((v + (b,))[: len(e)] == e for e in excluded)]
        if not frontier:
            return True
    return not frontier


class CylinderBlocking:
    """Per-row blocking commits over a negative-information stream.

    Exclusion snapshots are taken at the stages where codes arrive, so each
    row's verdict replays over at most one snapshot per code.  A doubly
    blocked word is off every branch; pinning one side keeps the row decided
    and the extraction unaffected.
    """

    def __init__(self, code_stream, length: int):
        from .spaces import clopen_code_word
        self.snapshots = []
        excluded: set = set()
        depth_e = 0
        for ell in range(1, length + 1):
            c = code_stream(ell - 1)
            if c == 0:
                continue
            excluded.add(clopen_code_word(c))
            depth_e = max(depth_e, max(len(w) for w in excluded))
            self.snapshots.append((ell, frozenset(excluded), depth_e))
        self._commits: dict = {}

    def commit(self, r: int):
        """("pulse", pos) once blocking evidence appears, else None."""
        from .spaces import word_at
        if r not in self._commits:
            v = word_at(r)
            state = None
            for ell, excl, depth_e in self.snapshots:
                b0 = _blocked(v + (0,), excl, depth_e)
                b1 = _blocked(v + (1,), excl, depth_e)
                if b0 or b1:
                    side = 0 if b0 else 1
                    pos = ell if ell % 2 == side else ell + 1
                    state = ("pulse", pos)
                    break
            self._commits[r] = state
        return self._commits[r]


def compact_blocking_machine() -> Machine:
    """Clopen name in, blocking tuple out, with observation-stage pulses."""
    def fn(w):
        L = len(w)
        blocking = CylinderBlocking(lambda i: w[i], L)

        def sym(r, j):
            state = blocking.commit(r)
            if state is None:
                return 0
            return 1 if j == state[1] else 0

        out = []
        i = 0
        while i < L:
            r, j = pair_decode(i)
            out.append(sym(r, j))
            i += 1
        return tuple(out)

    def point(p):
        bound = scan_bound(p) + 1
        blocking = CylinderBlocking(p.value_at, bound)

        def row_of(r):
            state = blocking.commit(r)
            if state is None:
                return EvPeriodic((), (0,))
            pos = state[1]
            head = [0] * (pos + 1)
            head[pos] = 1
            return EvPeriodic(tuple(head), (0,))

        return LawPoint(row_fn=row_of, label="compact-blocking")

    return Machine("compact-blocking", fn, point=point)


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
    """

    def __init__(self, mid: Machine, k_cap: int = 8, row_cap: int = 8):
        self.mid = mid
        self.k_cap = k_cap
        self.row_cap = row_cap

    def replay(self, symbol_at: Callable, length: int, max_rows: int):
        excluded: set = set()
        commits: dict = {}

        def admitted(k):
            words = [()]
            for _ in range(k):
                words = [v + (b,) for v in words for b in (0, 1)
                         if not any((v + (b,))[: len(e)] == e for e in excluded)]
            return words

        def drain(ell):
            while len(commits) < max_rows:
                n_next = len(commits)
                found = None
                start = commits[n_next - 1][1] if n_next else 1
                for k in range(max(1, start), self.k_cap + 1):
                    words = admitted(k)
                    if words and all(len(self.mid.eval(w)) > n_next for w in words):
                        found = k
                        break
                if found is None:
                    return
                lookup = {}
                for w in itertools.product((0, 1), repeat=found):
                    if not any(w[: len(e)] == e for e in excluded):
                        lookup[w] = self.mid.eval(w)[n_next]
                    else:
                        lookup[w] = 0
                table = tuple(lookup[w]
                              for w in itertools.product((0, 1), repeat=found))
                commits[n_next] = (ell, found, table)

        drain(1)
        for ell in range(1, length + 1):
            c = symbol_at(ell - 1)
            if c == 0:
                continue
            n, t = pair_decode(ell - 1)
            if n <= self.row_cap:
                b = 1 if t % 2 == 0 else 0
                for word in exclusion_blocks(n, b):
                    excluded.add(word)
            drain(ell)
        return commits

    def machine(self) -> Machine:
        def fn(w):
            L = len(w)
            commits = self.replay(lambda i: w[i], L, L)
            rows: dict = {}

            def out_row(n):
                if n not in rows:
                    state = commits.get(n)
                    if state is None:
                        rows[n] = (0,) * L    # safe zeros while uncommitted
                    else:
                        ell, arity, table = state
                        mach = resolution_realizer(table, arity, floor=ell)
                        rows[n] = mach.eval(w)
                return rows[n]

            out = []
            i = 0
            while i < L:
                n, k = pair_decode(i)
                r = out_row(n)
                if k >= len(r):
                    break
                out.append(r[k])
                i += 1
            return tuple(out)

        return Machine(f"dyn-swap({self.mid.name})", fn)


class DynamicSwapMirror:
    """Point-level mirror of the dynamic swap on a fixed input name."""

    def __init__(self, swap: DynamicSwap, q1: Point, replay_cap: int = REPLAY_CAP):
        self.swap = swap
        self.q1 = q1
        self.cap = replay_cap
        self.length = min(replay_cap, scan_bound_or(q1, replay_cap))
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
        ts = [ternary_of_point(row(self.q1, i)) for i in range(arity)]
        return extension_value(table, ts)

    def row(self, n: int) -> EvPeriodic:
        if n in self._rows:
            return self._rows[n]
        t = self.ternary(n)
        if t is THALF:
            out = EvPeriodic((), (0,))
        else:
            ell, arity, table = self.commit(n)
            mach = resolution_realizer(table, arity, floor=ell)
            outcome = None
            width = 16
            while width <= 4 * self.cap:
                word = mach.eval(PointView(self.q1, width))
                pos = next((i for i, s in enumerate(word) if s != 0), None)
                if pos is not None:
                    outcome = EvPeriodic(tuple(word[: pos + 1]), (0,))
                    break
                width *= 2
            if outcome is None:
                raise FuelExhausted(f"row {n} pulse beyond the replay cap")
            out = outcome
        self._rows[n] = out
        return out

    def pulse(self, n: int) -> Optional[int]:
        r = self.row(n)
        return next((i for i, s in enumerate(r.head) if s != 0), None)


def scan_bound_or(p: Point, fallback: int) -> int:
    try:
        return scan_bound(p) + 1
    except UnsupportedShape:
        return fallback


def condenser_machine() -> Machine:
    """Collapse each row to its first nonzero entry (parity preserved)."""
    def fn(w):
        L = len(w)
        firsts: dict = {}

        def first_nz(k, upto):
            best = firsts.get(k)
            if best is not None:
                return best
            t = 0
            while True:
                idx = pair_encode(k, t)
                if idx >= L or t > upto:
                    return None
                if w[idx] != 0:
                    firsts[k] = t
                    return t
                t += 1

        out = []
        i = 0
        while i < L:
            k, j = pair_decode(i)
            t0 = first_nz(k, j)
            out.append(1 if t0 == j else 0)
            i += 1
        return tuple(out)

    return Machine("condense", fn)


def _condensed_rows(mirror: DynamicSwapMirror, tail_scan: int = SCAN_CAP):
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
            if s > 2 * tail_scan:
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
        head = [0] * (best + 1)
        head[best] = 1
        return EvPeriodic(tuple(head), (0,))

    return row_of


def weak_compose(wf: Witness, wg: Witness) -> Witness:
    """Compose two reductions to the parallelized oracle into one."""
    if wf.g.name != "llpo_hat" or wg.g.name != "llpo_hat":
        raise UnsupportedShape("weak composition needs reductions to llpo_hat")
    sf = wf if wf.strong else strengthen_on_cylinder(wf, hat_is_cylinder(llpo_problem()))
    sg = wg if wg.strong else strengthen_on_cylinder(wg, hat_is_cylinder(llpo_problem()))
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
