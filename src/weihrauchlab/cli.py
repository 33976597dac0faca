"""Batch command-line front door.

Exit codes: 0 all pass, 1 any fail, 2 usage or parse error, 3 capacity
or fuel exhaustion.
"""

from __future__ import annotations

import argparse
import sys

from . import corpus as gen
from .errors import (
    ArityCap,
    CapacityExceeded,
    FuelExhausted,
    NonRepresentable,
    OutOfDomain,
    ParseError,
    WorkbenchError,
)
from .limits import adversary, lpo_k_machine, run_lpo_k
from .literals import (
    parse_input,
    parse_point,
    parse_tree,
    parse_mass,
    point_str,
)
from .machines import (
    const_machine,
    identity,
    pair_machine,
    proj1,
    proj2,
    run_on_point,
    shift_l,
)
from .medvedev import embed_forward, medvedev_check
from .points import Interleave, Point, RowTuple
from .problems import (
    CoordProductSet,
    FiniteNatsSet,
    SinglePointSet,
    UnionSet,
    c_problem,
    compact_choice_problem,
    id_problem,
    llpo_hat_problem,
    llpo_problem,
    llpo_real_problem,
    lpo_problem,
)
from .registry import corrupted_witnesses, named_witnesses
from .spaces import (
    ClopenCompact,
    Dyadic,
    FinTree,
    encode_clopen,
    encode_dyadic,
    encode_tree,
)
from .weakcomp import llpo_swap
from .witnesses import (
    check,
    compose_witness,
    cylindrify,
    parallelize_witness,
    product_witness,
    sum_witness,
)
from .wkl import wkl_problem

CAPACITY_ERRORS = (CapacityExceeded, FuelExhausted, ArityCap, NonRepresentable)


def _render_value_set(vs) -> str:
    if isinstance(vs, FiniteNatsSet):
        return "{" + ",".join(map(str, sorted(vs.values))) + "}"
    if isinstance(vs, SinglePointSet):
        return "point " + point_str(vs.point)
    if isinstance(vs, UnionSet) and all(isinstance(part, SinglePointSet)
                                        for part in vs.parts):
        return "{" + "; ".join(point_str(part.point) for part in vs.parts) + "}"
    if isinstance(vs, CoordProductSet):
        try:
            (only,) = vs.members(cap=1)    # an exact single answer
            return "point " + point_str(only)
        except (NonRepresentable, CapacityExceeded):
            pass
        bits = ("".join(map(str, sorted(vs.bits(i)))) for i in range(12))
        return "product[" + " ".join(bits) + " ...]"
    return repr(vs)


# the problems `eval` knows, each looked up by its rendered name
PROBLEMS = (lpo_problem, llpo_problem, c_problem, llpo_hat_problem,
            compact_choice_problem, llpo_real_problem, id_problem, wkl_problem)


def _problem(name: str):
    problems = {p.name: p for p in (build() for build in PROBLEMS)}
    if name not in problems:
        raise ParseError(f"unknown problem {name!r}; one of {sorted(problems)}")
    return problems[name]


def _as_name(problem_name: str, literal: str) -> Point:
    obj = parse_input(literal)
    if isinstance(obj, Point):
        return obj
    if isinstance(obj, FinTree):
        return encode_tree(obj)
    if isinstance(obj, ClopenCompact):
        return encode_clopen(obj)
    if isinstance(obj, Dyadic):
        return encode_dyadic(obj)
    raise ParseError(f"literal {literal!r} does not name an input for {problem_name}")


def cmd_eval(args) -> int:
    prob = _problem(args.problem)
    name = _as_name(args.problem, args.literal)
    vs = prob.require(name)
    print(f"{args.problem}({args.literal}) = {_render_value_set(vs)}")
    return 0


def _exit_code(report) -> int:
    """0 on a pass, 3 when branches only stalled at fuel or met a capacity
    of K, 1 on a failure."""
    if report.passed:
        return 0
    return 3 if report.unverified else 1


def _run_check(entry_name: str, entry, seed: str):
    w = entry.build()
    rng = gen.rng_for(f"{seed}:{entry_name}")
    corpus = entry.corpus(rng, entry.count)
    report = check(w, corpus, depth=entry.depth)
    print(f"{entry_name}: {report.verdict()}")
    return report


def cmd_check(args) -> int:
    entries = named_witnesses()
    if args.name not in entries:
        print(f"unknown witness {args.name!r}; see list-witnesses", file=sys.stderr)
        return 2
    entry = entries[args.name]
    if args.depth:
        entry.depth = args.depth
    if args.count:
        entry.count = args.count
    if args.corpus:
        with open(args.corpus) as fh:
            names = [_as_name(args.name, line) for line in fh
                     if line.strip() and not line.startswith("#")]
        report = check(entry.build(), names, depth=entry.depth)
        print(f"{args.name}: {report.verdict()}")
        return _exit_code(report)
    return _exit_code(_run_check(args.name, entry, args.seed))


# op -> (number of witness names, constructor)
DERIVABLE = {
    "compose": (2, compose_witness),
    "product": (2, product_witness),
    "sum": (2, sum_witness),
    "parallelize": (1, parallelize_witness),
    "cylindrify": (1, cylindrify),
}


def cmd_derive(args) -> int:
    arity, construct = DERIVABLE[args.op]
    if len(args.names) != arity:
        print(f"usage: derive {args.op} takes {arity} witness name(s), "
              f"got {len(args.names)}", file=sys.stderr)
        return 2
    entries = named_witnesses()
    for name in args.names:
        if name not in entries:
            print(f"unknown witness {name!r}; see list-witnesses", file=sys.stderr)
            return 2
    parents = [entries[name] for name in args.names]
    built = [e.build() for e in parents]
    derived = construct(*built)

    rng = gen.rng_for(f"{args.seed}:derive")
    count = args.count or min(e.count for e in parents)
    depth = args.depth or min(e.depth for e in parents)
    if args.op == "compose":
        corpus = parents[0].corpus(rng, count)
    elif args.op == "parallelize":
        # hat names whose default row and rows 0-2 are the parent's names:
        # the default one with a single answer where one is drawn, so that
        # the rows past row 2 are not free oracle coordinates
        corpus = []
        for _ in range(count):
            rows = parents[0].corpus(rng, 4)
            default = next((p for p in rows if len(built[0].f.answers(p)) == 1),
                           rows[0])
            rows.remove(default)
            corpus.append(RowTuple(dict(enumerate(rows)), default))
    else:
        # pairs: the two parents' names, or any point beside the parent's name
        first = gen.any_points if args.op == "cylindrify" else parents[0].corpus
        a = first(rng, count)
        b = parents[-1].corpus(rng, count)
        corpus = [Interleave(x, y) for x, y in zip(a, b)]
    report = check(derived, corpus, depth=depth)
    print(f"derived {derived.name}: {report.verdict()}")
    return _exit_code(report)


def cmd_list(args) -> int:
    for name in sorted(named_witnesses()):
        print(name)
    return 0


def cmd_suite(args) -> int:
    entries = named_witnesses()
    failures = capacity = 0
    for name in sorted(entries):
        entry = entries[name]
        if args.depth:
            entry.depth = min(entry.depth, args.depth)
        try:
            report = _run_check(name, entry, args.seed)
        except CAPACITY_ERRORS as exc:
            print(f"{name}: CAPACITY ({exc})")
            capacity += 1
            continue
        if report.unverified:   # a stall or a capacity is not a refutation
            capacity += 1
        elif not report.passed:
            failures += 1
    for name, (w, corpus_fn) in sorted(corrupted_witnesses().items()):
        rng = gen.rng_for(f"{args.seed}:{name}")
        report = check(w, corpus_fn(rng, 5), depth=8)
        rejected = not report.passed and any(
            e.coordinate is not None for e in report.failures())
        verdict = "REJECTED (as expected)" if rejected else "NOT REJECTED"
        print(f"negative {name}: {verdict}")
        failures += 0 if rejected else 1
    faults = [f"{failures} failures"] if failures else []
    if capacity:
        faults.append(f"{capacity} at capacity")
    print(f"suite: {', '.join(faults) or 'all pass'}")
    if capacity:
        return 3
    return 0 if failures == 0 else 1


def cmd_wkl(args) -> int:
    tree = parse_tree(args.tree)
    name = encode_tree(tree)
    if args.mode == "solve":
        prob = wkl_problem()
        vs = prob.require(name)
        print(f"paths = {_render_value_set(vs)}")
        return 0
    entries = named_witnesses()
    ok = True
    for key in ("wkl_to_llpo_hat", "llpo_hat_to_wkl"):
        entry = entries[key]
        ok = _run_check(key, entry, args.seed).passed and ok
    return 0 if ok else 1


def cmd_swap(args) -> int:
    machines = {
        "identity": identity(),
        "shift": shift_l(),
        "swap2": pair_machine(proj2(), proj1()),
    }
    if args.machine not in machines:
        print(f"unknown machine {args.machine!r}; one of {sorted(machines)}",
              file=sys.stderr)
        return 2
    point = parse_point(args.point)
    res = llpo_swap(machines[args.machine], point, args.depth)
    g_out = run_on_point(res.g_machine, point, 12)
    print(f"G(point) prefix = {' '.join(map(str, g_out.output))}")
    print(f"left  = {sorted(res.left)}")
    print(f"right = {sorted(res.right)}")
    print(f"sides {'agree' if res.sides_equal() else 'DIFFER'}")
    return 0 if res.sides_equal() else 1


def cmd_limit(args) -> int:
    if args.mode == "run":
        points = [parse_point(tok) for tok in args.inputs]
        run = run_lpo_k(len(points), points)
        print(f"answer = {run.answer}, mind changes = {run.mind_changes}")
        return 0
    result = adversary(lpo_k_machine(args.k), args.k)
    print(f"forced {result.run.mind_changes} mind changes; final answer "
          f"{result.run.answer}")
    return 0 if result.run.mind_changes >= args.k else 1


def cmd_medvedev(args) -> int:
    a = parse_mass(args.a)
    b = parse_mass(args.b)
    f = const_machine(a.members[0], "cli-const")
    if args.mode == "check":
        report = medvedev_check(a, b, f, depth=args.depth)
        ok = report.passed
        print(f"medvedev check (constant translation): "
              f"{'PASS' if ok else 'FAIL'}")
        return 0 if ok else 1
    w = embed_forward(f, a, b)
    rng = gen.rng_for(args.seed)
    report = check(w, gen.any_points(rng, 10), depth=args.depth)
    print(f"{w.name}: {report.verdict()}")
    return 0 if report.passed else 1


def natural(text: str) -> int:
    """A non-negative integer option; check, derive and suite read a
    --depth or --count of 0 as the registry's default."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"{n} is negative")
    return n


def positive(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"{n} is not positive")
    return n


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="weihrauchlab",
        description="desk-scale workbench for reduction witnesses")
    ap.add_argument("--seed", default="cli", help="corpus seed")
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("eval", help="evaluate a problem on a literal")
    p.add_argument("problem")
    p.add_argument("literal")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("check", help="check one registered witness")
    p.add_argument("name")
    p.add_argument("--depth", type=natural, default=0)
    p.add_argument("--count", type=natural, default=0)
    p.add_argument("--corpus", default="",
                   help="file of input literals, one per line")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("list-witnesses", help="list registered witnesses")
    p.set_defaults(fn=cmd_list)

    p = sub.add_parser("derive",
                       help="derive a witness from registered ones and check it")
    p.add_argument("op", choices=sorted(DERIVABLE))
    p.add_argument("names", nargs="+")
    p.add_argument("--depth", type=natural, default=0)
    p.add_argument("--count", type=natural, default=0)
    p.set_defaults(fn=cmd_derive)

    p = sub.add_parser("suite", help="run the whole acceptance corpus")
    p.add_argument("what", nargs="?", default="full", choices=["full"])
    p.add_argument("--depth", type=natural, default=0)
    p.set_defaults(fn=cmd_suite)

    p = sub.add_parser("wkl", help="tree choice operations")
    p.add_argument("mode", choices=["solve", "witness-check"])
    p.add_argument("tree")
    p.set_defaults(fn=cmd_wkl)

    p = sub.add_parser("swap", help="move a machine past the parallel oracle")
    p.add_argument("--machine", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--depth", type=natural, default=2)
    p.set_defaults(fn=cmd_swap)

    p = sub.add_parser("limit", help="limit machines and the adversary")
    p.add_argument("mode", choices=["run", "adversary"])
    p.add_argument("--k", type=positive, default=2)
    p.add_argument("--inputs", nargs="*", default=[])
    p.set_defaults(fn=cmd_limit)

    p = sub.add_parser("medvedev", help="mass problem operations")
    p.add_argument("mode", choices=["check", "embed"])
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--depth", type=natural, default=12)
    p.set_defaults(fn=cmd_medvedev)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except CAPACITY_ERRORS as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return 3
    except (OutOfDomain, WorkbenchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
