"""The three benchmark workloads, built from a seed.

Each builder returns a list of checks. A check is one `witnesses.check`
call on one corpus name, one `llpo_swap` fixture, one circuit's full
ternary table on both routes, or one mind-change adversary run. Running a
check returns an Outcome that carries the program's verdict and whether
that verdict is the known answer.

The checks of one witness at one depth form a group, which replays the
witness on its whole corpus as one `witnesses.check` call on that corpus
would. A group of a negative control is judged as a whole: at least one
of its names must be rejected with a coordinate.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Callable, Optional

from weihrauchlab import corpus as gen
from weihrauchlab import limits, machines, registry, ternary, weakcomp, witnesses
from weihrauchlab.errors import (
    ArityCap,
    CapacityExceeded,
    FuelExhausted,
    NonRepresentable,
)
from weihrauchlab.points import EvPeriodic, RowTuple
from weihrauchlab.spaces import T0, T1, THALF, encode_ternary, ternary_of_word

# The errors `weihrauchlab` reports as capacity or fuel exhaustion (exit 3).
CAPACITY_ERRORS = (CapacityExceeded, FuelExhausted, ArityCap, NonRepresentable)

NEGATIVE_DEPTH = 8
NEGATIVE_COUNT = 5

# The ladder holds the witnesses whose check cost is dominated by oracle
# enumeration; depth 24 is left out because wkl_to_llpo_hat alone takes
# about 21 s there.
LADDER_WITNESSES = (
    "wkl_to_llpo_hat",
    "wkl_round_trip",
    "llpo_hat_to_wkl",
    "llpo_hat_to_compact",
    "compact_to_llpo_hat",
    "llpo_hat_squared",
    "parallel_idem_up(llpo)",
)
LADDER_RUNGS = (8, 12, 16, 20)

ARITY3_TABLES = 6
SWAPS_PER_MACHINE = 4
WEAK_COMPOSE_COUNT = 3
WEAK_COMPOSE_DEPTH = 4
WEAK_COMPOSE_VALIDATE = 24
ADVERSARY_KS = (1, 2, 3, 4)
DECODE_DEPTHS = (16, 64, 512)


def metric_name(name: str) -> str:
    """Map a witness name onto the metric alphabet [A-Za-z0-9_.-]."""
    return re.sub(r"-+$", "", re.sub(r"[^A-Za-z0-9_.-]+", "-", name))


@dataclass
class Outcome:
    verdict: str            # pass | reject | stall | error | capacity
    wrong: bool             # the verdict differs from the known answer
    branches: int = 0
    stalls: int = 0
    note: str = ""


@dataclass
class Check:
    name: str
    run: Callable[[], Outcome]
    witness: Optional[object] = None   # the Witness a `witnesses.check` replays
    label: str = ""                    # its name, for reach; "" for controls
    depth: int = 0                     # depth of that check
    group: str = ""                    # the witness and depth it belongs to
    needs: str = ""                    # a verdict some check of the group must give


def _classify(report) -> str:
    if report.passed:
        return "pass"
    bad = report.failures()
    if any(e.coordinate is not None for e in bad):
        return "reject"
    if bad and all(e.status == "stall" for e in bad):
        return "stall"
    return "error"


def _witness_check(w, corpus, depth, allowed, validate_width=None) -> Callable:
    """A `witnesses.check` call whose capacity errors stay local to it."""
    kwargs = {} if validate_width is None else {"validate_width": validate_width}

    def run() -> Outcome:
        try:
            report = witnesses.check(w, corpus, depth=depth, **kwargs)
        except CAPACITY_ERRORS as exc:
            return Outcome("capacity", "capacity" not in allowed,
                           note=type(exc).__name__)
        verdict = _classify(report)
        stalls = sum(1 for e in report.entries if e.status == "stall")
        return Outcome(verdict, verdict not in allowed, len(report.entries),
                       stalls, report.verdict())

    return run


def _witness_group(name, w, label, corpus, depth, allowed, needs="",
                   validate_width=None) -> list:
    """One check per corpus name, so that each name is timed between two
    reference probes; together they replay one `witnesses.check` call on
    the whole corpus."""
    group = f"{name}.d{depth}"
    return [Check(f"{group}.{i}",
                  _witness_check(w, [p], depth, allowed, validate_width),
                  w, label, depth, group, needs)
            for i, p in enumerate(corpus)]


# ---------------------------------------------------------------------------
# suite: every registered witness at its registry depth and count, plus the
# negative controls

def _flip_closed(tree) -> bool:
    """Every live path and explicit node of the tree has its bitwise flip
    in the tree, so flipping a path yields a path."""
    def flip(word):
        return tuple(1 - b for b in word)
    lives = {(q.head, q.period) for q in tree.live_paths}
    return (all(flip(w) in tree.explicit_nodes for w in tree.explicit_nodes)
            and all((flip(h), flip(p)) in lives for h, p in lives))


def _negative_expected(name: str, corpus) -> str:
    """Known answer of a negative control on its corpus. The flipped WKL
    extractor is a correct realizer on a flip-closed tree, so there a
    PASS is the right verdict and a rejection would be wrong."""
    if name == "wkl_flipped_path" and all(_flip_closed(p.tree) for p in corpus):
        return "pass"
    return "reject"


def build_suite(seed) -> list:
    checks = []
    entries = registry.named_witnesses()
    for name in sorted(entries):
        entry = entries[name]
        w = entry.build()
        corpus = entry.corpus(gen.rng_for(f"{seed}:{name}"), entry.count)
        checks += _witness_group(metric_name(name), w, name, corpus,
                                 entry.depth, ("pass",))
    for name, (w, corpus_fn) in sorted(registry.corrupted_witnesses().items()):
        corpus = corpus_fn(gen.rng_for(f"{seed}:{name}"), NEGATIVE_COUNT)
        if _negative_expected(name, corpus) == "pass":
            allowed, needs = ("pass",), ""
        else:
            # a name the corruption does not touch may pass or stall
            allowed, needs = ("pass", "reject", "stall"), "reject"
        checks += _witness_group("negative." + metric_name(name), w, "",
                                 corpus, NEGATIVE_DEPTH, allowed, needs)
    return checks


# ---------------------------------------------------------------------------
# depth-ladder: seven enumeration-bound witnesses at rising depths

def build_ladder(seed) -> list:
    checks = []
    entries = registry.named_witnesses()
    for name in LADDER_WITNESSES:
        entry = entries[name]
        w = entry.build()
        corpus = entry.corpus(gen.rng_for(f"{seed}:{name}"), entry.count)
        for depth in LADDER_RUNGS:
            # above the registry depth a check may stall or hit capacity;
            # a definite rejection of a registered witness is still wrong
            allowed = (("pass",) if depth <= entry.depth
                       else ("pass", "stall", "capacity"))
            checks += _witness_group(metric_name(name), w, name, corpus,
                                     depth, allowed)
    return checks


# ---------------------------------------------------------------------------
# weak-ternary: ternary realizers, the llpo swap, weak composition and the
# mind-change adversary

def _kleene_nand(a, b):
    if a is T0 or b is T0:
        return T1
    if a is T1 and b is T1:
        return T0
    return THALF


def _gatewise_reference(circuit, ts):
    vals = list(ts)
    for a, b in circuit.gates:
        vals.append(_kleene_nand(vals[a], vals[b]))
    return vals[circuit.output]


def _semantic_reference(table, ts):
    images = set()
    for combo in itertools.product(*[(0, 1) if t is THALF else (t.value,)
                                     for t in ts]):
        images.add(table[int("".join(map(str, combo)), 2)])
    if len(images) == 2:
        return THALF
    return T1 if images == {1} else T0


def _decode(machine, name):
    for depth in DECODE_DEPTHS:
        out = machines.run_on_point(machine, name, depth)
        v = ternary_of_word(out.output)
        if v is not None:
            return v
    return THALF


def _circuit_check(table, arity) -> Callable:
    def run() -> Outcome:
        circuit = ternary.synthesize(table, arity)
        ext = ternary.ternary_extend(circuit)
        gw, rz = ext.gatewise(), ext.realizer()
        bad = 0
        rows = 0
        for ts in itertools.product((T0, T1, THALF), repeat=arity):
            name = RowTuple({i: encode_ternary(t) for i, t in enumerate(ts)},
                            EvPeriodic((), (0,)))
            bad += _decode(gw, name) is not _gatewise_reference(circuit, ts)
            bad += _decode(rz, name) is not _semantic_reference(table, ts)
            rows += 1
        return Outcome("pass" if bad == 0 else "reject", bad > 0, rows,
                       note=f"{bad} wrong rows")
    return run


def _swap_machines():
    """The six machines of acceptance criterion 3, with their depths."""
    def flip(w):
        return tuple(1 - s if s in (0, 1) else 0 for s in w)

    def nand2(w):
        if len(w) < 2:
            return ()
        return (0 if (w[0] == 1 and w[1] == 1) else 1,) + (0,) * (len(w) - 2)

    def and_or(w):
        if len(w) < 4:
            return ()
        return (w[0] & w[1], w[2] | w[3]) + (0,) * (len(w) - 4)

    def parity5(w):
        if len(w) < 5:
            return ()
        return (sum(w[i] for i in range(5)) % 2,) + (0,) * (len(w) - 5)

    m = machines
    return [
        ("identity", m.identity(), 3),
        ("swap2", m.pair_machine(m.proj2(), m.proj1()), 2),
        ("flip", m.Machine("flip", flip), 3),
        ("nand2", m.Machine("nand2", nand2), 1),
        ("and-or", m.Machine("and-or", and_or), 2),
        ("parity5", m.Machine("parity5", parity5), 1),
    ]


def _swap_check(machine, point, depth) -> Callable:
    def run() -> Outcome:
        try:
            res = weakcomp.llpo_swap(machine, point, depth)
        except CAPACITY_ERRORS as exc:
            return Outcome("capacity", True, note=type(exc).__name__)
        ok = res.sides_equal()
        return Outcome("pass" if ok else "reject", not ok, len(res.left))
    return run


def _adversary_check(k) -> Callable:
    def run() -> Outcome:
        forced = limits.adversary(limits.lpo_k_machine(k), k).run.mind_changes
        return Outcome("pass" if forced == k else "reject", forced != k,
                       note=f"forced {forced}")
    return run


def build_weak_ternary(seed) -> list:
    checks = []
    rng = gen.rng_for(f"{seed}:ternary")
    tables = [(t, 1) for t in itertools.product((0, 1), repeat=2)]
    tables += [(t, 2) for t in itertools.product((0, 1), repeat=4)]
    tables += [(tuple(rng.randrange(2) for _ in range(8)), 3)
               for _ in range(ARITY3_TABLES)]
    for i, (table, arity) in enumerate(tables):
        bits = "".join(map(str, table))
        checks.append(Check(f"ternary.{i}.a{arity}.{bits}",
                            _circuit_check(table, arity)))

    rng = gen.rng_for(f"{seed}:swap")
    for label, machine, depth in _swap_machines():
        for i in range(SWAPS_PER_MACHINE):
            p = gen.free_heavy_rowtuple(rng, forced=rng.randrange(4))
            checks.append(Check(f"swap.{label}.{i}",
                                _swap_check(machine, p, depth)))

    entry = registry.named_witnesses()["parallel_extensive(llpo)"]
    w = weakcomp.weak_compose(entry.build(), entry.build())
    corpus = entry.corpus(gen.rng_for(f"{seed}:weak_compose"), WEAK_COMPOSE_COUNT)
    checks += _witness_group("weak_compose", w, "weak_compose", corpus,
                             WEAK_COMPOSE_DEPTH, ("pass",),
                             validate_width=WEAK_COMPOSE_VALIDATE)

    for k in ADVERSARY_KS:
        checks.append(Check(f"adversary.k{k}", _adversary_check(k)))
    return checks


BUILDERS = {
    "suite": build_suite,
    "depth-ladder": build_ladder,
    "weak-ternary": build_weak_ternary,
}
