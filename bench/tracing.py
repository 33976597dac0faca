"""Run-time tracing of the checker's layers, installed from outside.

`Tracer.install()` wraps public functions of the `weihrauchlab` modules in
place and `uninstall()` restores them; nothing under `src/` changes.
Wrapped boundaries record spans (name, start, end, parent, check id) in
flat arrays. `value_at`, `pair_decode` and `Point.prefix` run millions of
times per pass, so they only count. Self time is a span's duration minus
the time its direct children cover.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from array import array
from collections import defaultdict

from weihrauchlab import (
    corpus,
    errors,
    machines,
    points,
    problems,
    registry,
    spaces,
    ternary,
    weakcomp,
    witnesses,
)

# machine combinators, grouped by the qualname of the machine's fn
COMBINATORS = ("index_machine", "symbol_machine", "countable_tuple", "compose")
STRUCTURAL = ("identity", "pair_machine", "tensor", "proj1", "proj2", "diag")
MACHINE_GROUPS = COMBINATORS + ("structural", "custom")

VALUE_AT_CLASSES = (
    ("points.value_at.EvPeriodic.calls", points.EvPeriodic),
    ("points.value_at.Interleave.calls", points.Interleave),
    ("points.value_at.RowTuple.calls", points.RowTuple),
    ("points.value_at.LawPoint.calls", points.LawPoint),
    ("spaces.TreeChar.value_at.calls", spaces.TreeChar),
)

# Spans of one family nest (a PairSet's behaviors calls its parts'); a
# family's inclusive time sums only its outermost spans.
FAMILIES = {
    "problems.in_domain": "problems",
    "problems.value_set": "problems",
    "problems.behaviors": "problems",
    "problems.check_prefix": "problems",
}


def machine_group(fn) -> str:
    """Combinator of a machine, from its fn's qualname."""
    if getattr(fn, "__module__", "") != machines.__name__:
        return "custom"
    head = fn.__qualname__.split(".", 1)[0]
    if head in COMBINATORS:
        return head
    return "structural" if head in STRUCTURAL else "custom"


def eval_span_name(fn) -> str:
    return f"eval:{machine_group(fn)}:{fn.__module__}.{fn.__qualname__}"


def _family(name: str) -> str:
    if name.startswith("eval:"):
        # ternary realizers nest (gate-wise NAND words inside a circuit)
        return "ternary.realizer" if ".ternary." in name else ""
    return FAMILIES.get(name, name)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.counts: dict = defaultdict(int)
        self._undo: list = []
        self.reset()

    # -- spans ---------------------------------------------------------------

    def reset(self):
        self.s_name = array("i")
        self.s_parent = array("i")
        self.s_check = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        self.stack: list = []
        self.counts.clear()
        self.check_id = -1

    def name_id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, nid: int) -> int:
        idx = len(self.s_name)
        self.s_name.append(nid)
        self.s_parent.append(self.stack[-1] if self.stack else -1)
        self.s_check.append(self.check_id)
        self.s_end.append(0.0)
        self.stack.append(idx)
        self.s_start.append(time.perf_counter())
        return idx

    def close(self, idx: int):
        self.s_end[idx] = time.perf_counter()
        self.stack.pop()

    def in_problem_layer(self) -> bool:
        """Some open span belongs to the problems layer."""
        return any(self.names[self.s_name[i]] in FAMILIES for i in self.stack)

    @contextlib.contextmanager
    def span(self, name: str):
        """One span around the benchmark's own call."""
        idx = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(idx)

    def spanned(self, name: str, fn, on_exit=None):
        """fn wrapped in a span; on_exit(args, result) runs after it closes."""
        tracer, nid = self, self.name_id(name)

        def wrapper(*args, **kwargs):
            idx = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(idx)
                if (isinstance(exc, errors.CapacityExceeded)
                        and name in FAMILIES and not tracer.in_problem_layer()):
                    tracer.counts["problems.capacity.count"] += 1
                raise
            tracer.close(idx)
            if on_exit is not None:
                on_exit(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ----------------------------------------------------------

    def _patch(self, owner, attr, value):
        old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, old))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def install(self):
        counts = self.counts

        # pair_decode is imported by name: patch every module-level binding
        original = points.pair_decode

        def pair_decode(j):
            counts["points.pair_decode.calls"] += 1
            return original(j)

        for name, mod in list(sys.modules.items()):
            if (name.startswith("weihrauchlab")
                    and getattr(mod, "pair_decode", None) is original):
                self._patch(mod, "pair_decode", pair_decode)

        for key, cls in VALUE_AT_CLASSES:
            self._patch(cls, "value_at", _counted_value_at(cls, key, counts))

        point_prefix = points.Point.prefix

        def prefix(p, n):
            counts["points.prefix.symbols"] += n
            return point_prefix(p, n)

        self._patch(points.Point, "prefix", prefix)
        self._patch(machines.Machine, "eval", self._machine_eval())

        def widened(args, outcome):
            counts["machines.run_on_point.calls"] += 1
            counts["machines.run_on_point.kept"] += len(outcome.output)
            counts["machines.run_on_point.max_width"] = max(
                counts["machines.run_on_point.max_width"], outcome.width)

        run = self.spanned("machines.run_on_point", machines.run_on_point, widened)
        self._patch(witnesses, "run_on_point", run)
        self._patch(machines, "run_on_point", run)

        def compared(args, result):
            counts["witnesses.mirror.symbols_compared"] += args[1]

        self._patch(witnesses, "prefix",
                    self.spanned("witnesses.prefix", witnesses.prefix, compared))

        def replayed(args, report):
            counts["witnesses.branches"] += len(report.entries)
            counts["witnesses.stalls"] += sum(1 for e in report.entries
                                              if e.status == "stall")

        self._patch(witnesses, "check",
                    self.spanned("witnesses.check", witnesses.check, replayed))

        def enumerated(args, result):
            if not self.in_problem_layer():
                counts["problems.behaviors.branches"] += len(result)

        for cls in _subclasses(problems.ValueSet):
            if "behaviors" in cls.__dict__:
                self._patch(cls, "behaviors", self.spanned(
                    "problems.behaviors", cls.__dict__["behaviors"], enumerated))
            if "check_prefix" in cls.__dict__:
                self._patch(cls, "check_prefix", self.spanned(
                    "problems.check_prefix", cls.__dict__["check_prefix"]))

        for mod, attr in ((ternary, "synthesize"), (weakcomp, "llpo_swap"),
                          (weakcomp, "modulus"), (weakcomp, "extract_tables")):
            name = f"{mod.__name__.rsplit('.', 1)[1]}.{attr}"
            self._patch(mod, attr, self.spanned(name, getattr(mod, attr)))

        # set-up: the registry builds witnesses, the corpus module names
        self._patch(registry, "named_witnesses", self.spanned(
            "registry.build", registry.named_witnesses, self._entries_built))
        self._patch(registry, "corrupted_witnesses", self.spanned(
            "registry.build", registry.corrupted_witnesses, self._controls_built))
        self._patch(corpus, "free_heavy_rowtuple", self.spanned(
            "corpus.generate", corpus.free_heavy_rowtuple))

    def _entries_built(self, args, entries):
        for entry in entries.values():
            entry.build = self.spanned("registry.build", entry.build)
            entry.corpus = self.spanned("corpus.generate", entry.corpus)

    def _controls_built(self, args, controls):
        for name, (w, corpus_fn) in list(controls.items()):
            controls[name] = (w, self.spanned("corpus.generate", corpus_fn))

    def _machine_eval(self):
        tracer, counts = self, self.counts
        original = machines.Machine.eval
        widening_id = self.name_id("machines.run_on_point")
        ids: dict = {}

        def eval_(m, w):
            code = m.fn.__code__
            nid = ids.get(code)
            if nid is None:
                nid = ids[code] = tracer.name_id(eval_span_name(m.fn))
            stack = tracer.stack
            widening = bool(stack) and tracer.s_name[stack[-1]] == widening_id
            idx = tracer.open(nid)
            try:
                out = original(m, w)
            finally:
                tracer.close(idx)
            if widening:
                counts["machines.run_on_point.evals"] += 1
                counts["machines.run_on_point.emitted"] += len(out)
            return out

        return eval_

    def instrument_witness(self, w):
        """Wrap a built witness's k_point and its problems' domain tests and
        value sets; instance attributes, so only this witness is affected."""
        w.k_point = self.spanned("witnesses.k_point", w.k_point)
        for prob in {id(w.f): w.f, id(w.g): w.g}.values():
            if not hasattr(prob.in_domain, "__wrapped__"):
                prob.in_domain = self.spanned("problems.in_domain", prob.in_domain)
                prob.value_set = self.spanned("problems.value_set", prob.value_set)

    # -- aggregation -----------------------------------------------------------

    def aggregate(self) -> dict:
        """Per span name: calls, self seconds, and the inclusive seconds of
        spans with no ancestor of their family; plus the mirror time, the
        eval and prefix spans whose parent is a check span."""
        names = self.names
        fam_bit = {}
        bits = []
        for name in names:
            fam = _family(name)
            if fam and fam not in fam_bit:
                fam_bit[fam] = 1 << len(fam_bit)
            bits.append(fam_bit[fam] if fam else 0)
        check_id = self._ids.get("witnesses.check", -1)
        n = len(self.s_name)
        covered = [0.0] * n
        masks = [0] * n
        calls = defaultdict(int)
        total = defaultdict(float)
        selfs = defaultdict(float)
        mirror = 0.0
        s_name, s_parent = self.s_name, self.s_parent
        s_start, s_end = self.s_start, self.s_end
        for i in range(n):
            p = s_parent[i]
            nid = s_name[i]
            bit = bits[nid]
            dur = s_end[i] - s_start[i]
            if p >= 0:
                covered[p] += dur
                up = masks[p]
                masks[i] = up | bit
                if s_name[p] == check_id and (
                        names[nid].startswith("eval:")
                        or names[nid] == "witnesses.prefix"):
                    mirror += dur
            else:
                up = 0
                masks[i] = bit
            if not up & bit:
                total[names[nid]] += dur
        for i in range(n):
            name = names[s_name[i]]
            calls[name] += 1
            selfs[name] += s_end[i] - s_start[i] - covered[i]
        return {"calls": dict(calls), "total": dict(total), "self": dict(selfs),
                "mirror_s": mirror, "counts": dict(self.counts)}

    def write(self, path: str, meta: dict):
        """Spans as raw native-order arrays plus a JSON header."""
        with open(path + ".bin", "wb") as fh:
            for arr in (self.s_name, self.s_parent, self.s_check,
                        self.s_start, self.s_end):
                arr.tofile(fh)
        header = dict(meta, names=self.names, spans=len(self.s_name),
                      byteorder=sys.byteorder,
                      layout=[["name", "i"], ["parent", "i"], ["check", "i"],
                              ["start", "d"], ["end", "d"]])
        with open(path + ".json", "w") as fh:
            json.dump(header, fh)


def _counted_value_at(cls, key, counts):
    original = cls.__dict__["value_at"]
    if cls is points.LawPoint:
        def value_at(p, i):
            counts[key] += 1
            if p._cache.get(i) is not None:
                counts["points.lawpoint.hits"] += 1
            return original(p, i)
    else:
        def value_at(p, i):
            counts[key] += 1
            return original(p, i)
    return value_at
