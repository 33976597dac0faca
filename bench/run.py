#!/usr/bin/env python3
"""Benchmark of the witness checker, end to end and layer by layer.

    python3 bench/run.py --workload suite --seed 1 --seconds 30 --trace 0

Workloads are built from a seed (see workloads.py). The run repeats
passes over the workload until --seconds have been spent, rebuilding the
witnesses and corpora before each pass so that no pass sees another's
caches. Every verdict is checked against its known answer; a wrong verdict
or an unexpected exception makes the run exit non-zero.

--trace 0 prints the end-to-end metrics; every pass must give the same
verdicts and branch counts. Times are scaled to a reference host (see
Reference): a shared host's own speed changes from moment to moment, and
a fixed loop timed around each check takes that change out. --trace 1
runs one untraced pass, then traced passes, and prints the per-layer
metrics; the traced verdicts and branch counts must equal the untraced
pass's and the exact counts must repeat from pass to pass. The last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics. A record of the run (host, Python version, nproc, metrics with
their sample counts) goes to .bench_out/ under the checkout root.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import namedtuple
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_PROBES = 15       # set-up probes a run takes at least
SETUP_PER_PASS = 3      # set-up probes before each pass
REF_LOOPS = 1200        # iterations of a reference sample, 2-4 ms on a shared VM
REF_EVERY_S = 0.1       # a reference sample after at least this much work
REF_NOMINAL_S = 0.0035  # a sample's mean time on the reference host
PROBE_LOOPS = 25        # iterations of the probe around each check
PROBE_NOMINAL_S = 7e-5  # a probe's mean time on the reference host
TRACED_PASSES_MIN = 2
TAIL_BEYOND = 10   # verdict_tail_s has exactly this many slower verdicts

# The ten slowest suite witnesses, fixed so that every run prints the same
# metric names. On seeds 301-310 these were the top ten in 27 of 30 places;
# llpo_hat_squared took the other three.
SLOWEST_SUITE = (
    "strong_on_cylinder",
    "wkl_to_llpo_hat",
    "llpo_hat_to_compact",
    "id_to_llpo_hat",
    "id_to_c",
    "parallel_idem_up(llpo)",
    "parallel_extensive(lpo)",
    "compact_to_llpo_hat",
    "parallel_extensive(llpo)",
    "cylinder(llpo_hat)",
)


# What a pass keeps of a check: the witness and corpus are dropped with
# the pass, so memory does not grow with the number of passes.
Meta = namedtuple("Meta", "name label depth group needs")
# One check of a pass: its seconds as measured and the factor that scales
# them to the reference host (see Reference).
Row = namedtuple("Row", "check outcome s local")


def _import_program():
    """Put the checkout's own source first on the path, or exit non-zero."""
    if not (SRC / "weihrauchlab" / "__init__.py").is_file():
        sys.exit(f"bench: no program source under {SRC}")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import weihrauchlab
    if Path(weihrauchlab.__file__).resolve().parent != (SRC / "weihrauchlab").resolve():
        sys.exit(f"bench: imported weihrauchlab from {weihrauchlab.__file__}")


# ---------------------------------------------------------------------------
# measurement

def reference_work(loops: int) -> int:
    """Fixed pure-Python work that calls nothing of the program: tuple
    building, dict memo lookups, a closure, a generator and integer
    arithmetic, the operations the checker spends its time in."""
    memo = {}

    def step(a, b):
        key = (a & 63, b)
        v = memo.get(key)
        if v is None:
            v = memo[key] = (a * 31 + b) % 97
        return v

    acc = 0
    for i in range(loops):
        t = tuple(j ^ i for j in range(8))
        acc += step(i, t[3] & 7) + sum(x & 1 for x in t[2:6])
    return acc


class Reference:
    """The host's speed, from the reference loop timed between checks.

    On a shared host a thread runs either at full speed or, while another
    tenant shares its core, at about half speed, and the two alternate
    many times a second. Each measured time is therefore scaled to what it
    would be on a reference host, by the loop's nominal time over its
    measured time at the moment of the measurement:

    - a pass's total, by REF_NOMINAL_S over the mean of the samples taken
      every REF_EVERY_S through the pass; the mean follows the share of
      the pass the host ran slow;
    - one check, and one set-up in a fresh interpreter, by
      PROBE_NOMINAL_S over the mean of the probes taken just before and
      just after it. The median and the tail of the checks' times need
      this: the median of times from a two-speed host otherwise jumps
      between the two speeds.

    A change to the program does not touch the loop, so it moves the
    scaled times as much as the raw ones."""

    def __init__(self):
        self.samples = []
        self.last = -REF_EVERY_S

    def sample(self):
        t = time.perf_counter()
        reference_work(REF_LOOPS)
        now = time.perf_counter()
        self.samples.append(now - t)
        self.last = now

    def sample_if_due(self) -> bool:
        if time.perf_counter() - self.last >= REF_EVERY_S:
            self.sample()
            return True
        return False

    @staticmethod
    def probe() -> float:
        t = time.perf_counter()
        reference_work(PROBE_LOOPS)
        return time.perf_counter() - t

    def scale(self, since: int) -> float:
        """The scale of the samples taken since the `since`-th."""
        return REF_NOMINAL_S / statistics.fmean(self.samples[since:])


def _setup_probe(workload: str, seed: str) -> tuple:
    """Seconds from the first program import to a built workload, in this
    fresh process, with a probe just before and just after."""
    before = Reference.probe()
    t0 = time.perf_counter()
    _import_program()
    import workloads
    workloads.BUILDERS[workload](seed)
    setup = time.perf_counter() - t0
    return setup, before, Reference.probe()


def measure_setup(workload: str, seed: str) -> float:
    """Set-up time of a fresh interpreter, scaled by its probes; CLI users
    pay this every run."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", seed, "--seconds", "0", "--trace", "0", "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    setup, before, after = map(float, proc.stdout.split()[-3:])
    return setup * PROBE_NOMINAL_S * 2 / (before + after)


def _guarded(check):
    from workloads import Outcome
    try:
        return check.run()
    except Exception as exc:   # an unexpected exception is a failed check
        traceback.print_exc()
        return Outcome("error", True, note=f"{type(exc).__name__}: {exc}")


def run_pass(workload: str, seed: str, ref: Reference, tracer=None) -> dict:
    import workloads
    if tracer is not None:
        tracer.reset()
    checks = workloads.BUILDERS[workload](seed)
    if tracer is not None:
        for check in checks:
            if check.witness is not None:
                tracer.instrument_witness(check.witness)
    gc.collect()   # every pass starts from a heap without the last one's cycles
    rows = []
    work = 0.0
    first_ref = len(ref.samples)
    before = None
    for i, check in enumerate(checks):
        if ref.sample_if_due() or before is None:
            before = ref.probe()
        t = time.perf_counter()
        if tracer is None:
            outcome = _guarded(check)
        else:
            tracer.check_id = i
            with tracer.span("bench.check"):
                outcome = _guarded(check)
        dt = time.perf_counter() - t
        after = ref.probe()
        work += dt
        rows.append(Row(Meta(check.name, check.label, check.depth, check.group,
                             check.needs), outcome, dt,
                        PROBE_NOMINAL_S * 2 / (before + after)))
        before = after
    ref.sample()
    return {"rows": rows, "wall": work,
            "scale": ref.scale(first_ref),
            "agg": tracer.aggregate() if tracer is not None else None}


def another_pass(passes: list, deadline: float, minimum: int) -> bool:
    """Run at least `minimum` passes, then more while the next one would
    end no later than half a pass past the deadline."""
    if len(passes) < minimum:
        return True
    return time.perf_counter() + passes[-1]["wall"] / 2 < deadline


def signature(p: dict) -> list:
    """What every pass on the same inputs must reproduce exactly."""
    return [(c.name, o.verdict, o.branches, o.stalls) for c, o, *_ in p["rows"]]


# ---------------------------------------------------------------------------
# metrics

def tail(values: list) -> float:
    """The value with exactly TAIL_BEYOND values above it."""
    return sorted(values, reverse=True)[TAIL_BEYOND]


def group_of(c: Meta) -> str:
    return c.group or c.name


def given(rows) -> dict:
    """The verdicts the checks of each group gave."""
    out = {}
    for c, o, *_ in rows:
        out.setdefault(group_of(c), set()).add(o.verdict)
    return out


def judge(rows) -> list:
    """Whether each check's verdict is wrong: its own verdict is not a
    known answer, or its group needs a verdict none of its checks gave."""
    gave = given(rows)
    return [o.wrong or bool(c.needs) and c.needs not in gave[group_of(c)]
            for c, o, *_ in rows]


def decided(verdicts: set) -> bool:
    """A group ends in a definite verdict: every check passes, or one
    rejects with a coordinate, as one `witnesses.check` call on the whole
    corpus would."""
    return verdicts == {"pass"} or "reject" in verdicts


def reach(rows) -> dict:
    """Deepest depth at which every corpus name of a witness passes
    (negative controls aside)."""
    passed = {}
    for c, o, *_ in rows:
        if c.label:
            key = (c.label, c.depth)
            passed[key] = passed.get(key, True) and o.verdict == "pass"
    out = {}
    for (label, depth), ok in passed.items():
        out[label] = max(out.get(label, 0), depth if ok else 0)
    return out


def end_to_end(passes: list, setups: list) -> dict:
    """A check's time is its median over the passes, each time scaled by
    the check's own probes. The time to a verdict is the sum over the
    checks of its group; wall_s scales each pass by its samples."""
    rows = passes[0]["rows"]
    to_verdict = {}
    for i, r in enumerate(rows):
        t = statistics.median(p["rows"][i].local * p["rows"][i].s for p in passes)
        to_verdict[group_of(r.check)] = to_verdict.get(group_of(r.check), 0.0) + t
    per_verdict = list(to_verdict.values())
    gave = given(rows)
    n = len(per_verdict)
    return {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "wall_s": (statistics.median(p["scale"] * p["wall"] for p in passes),
                   "s", len(passes)),
        "verdict_p50_s": (statistics.median(per_verdict), "s", n),
        "verdict_tail_s": (tail(per_verdict), "s", n),
        "decided_share": (sum(map(decided, gave.values())) / n, "share", n),
        "reach_depth_sum": (sum(reach(rows).values()), "depth", n),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB", 1),
    }


def layer_values(p: dict) -> dict:
    """Per-layer (value, unit) of one traced pass."""
    import workloads
    from tracing import MACHINE_GROUPS, VALUE_AT_CLASSES
    name_of = workloads.metric_name
    agg = p["agg"]
    c, calls, total, selfs = agg["counts"], agg["calls"], agg["total"], agg["self"]

    def share(num, den):
        return (c.get(num, 0) / c[den] if c.get(den) else 0.0, "ratio")

    def seconds(table, key):
        return (table.get(key, 0.0), "s")

    v = {"points.pair_decode.calls": (c.get("points.pair_decode.calls", 0), "count")}
    for key, _ in VALUE_AT_CLASSES:
        v[key] = (c.get(key, 0), "count")
    v["points.lawpoint.hit_ratio"] = share("points.lawpoint.hits",
                                           "points.value_at.LawPoint.calls")
    v["points.prefix.symbols"] = (c.get("points.prefix.symbols", 0), "count")

    for g in MACHINE_GROUPS:
        names = [k for k in calls if k.startswith(f"eval:{g}:")]
        v[f"machines.eval.{g}.calls"] = (sum(calls[k] for k in names), "count")
        v[f"machines.eval.{g}.self_s"] = (sum(selfs[k] for k in names), "s")
    for key in ("calls", "evals"):
        v[f"machines.run_on_point.{key}"] = (c.get(f"machines.run_on_point.{key}", 0),
                                             "count")
    v["machines.run_on_point.max_width"] = (
        c.get("machines.run_on_point.max_width", 0), "symbols")
    v["machines.run_on_point.s"] = seconds(total, "machines.run_on_point")
    v["machines.run_on_point.useful_ratio"] = share("machines.run_on_point.kept",
                                                    "machines.run_on_point.emitted")

    v["problems.in_domain.calls"] = (calls.get("problems.in_domain", 0), "count")
    v["problems.in_domain.s"] = seconds(total, "problems.in_domain")
    v["problems.value_set.s"] = seconds(total, "problems.value_set")
    v["problems.behaviors.calls"] = (calls.get("problems.behaviors", 0), "count")
    v["problems.behaviors.s"] = seconds(total, "problems.behaviors")
    v["problems.behaviors.branches"] = (c.get("problems.behaviors.branches", 0), "count")
    v["problems.check_prefix.calls"] = (calls.get("problems.check_prefix", 0), "count")
    v["problems.check_prefix.s"] = seconds(total, "problems.check_prefix")
    v["problems.capacity.count"] = (c.get("problems.capacity.count", 0), "count")

    v["witnesses.check.self_s"] = seconds(selfs, "witnesses.check")
    for key in ("branches", "stalls", "mirror.symbols_compared"):
        v[f"witnesses.{key}"] = (c.get(f"witnesses.{key}", 0), "count")
    v["witnesses.k_point.s"] = seconds(total, "witnesses.k_point")
    v["witnesses.mirror.s"] = (agg["mirror_s"], "s")
    for w in SLOWEST_SUITE:
        mine = [(o, dt) for chk, o, dt, _ in p["rows"] if chk.label == w]
        v[f"witnesses.check_s.{name_of(w)}"] = (sum(dt for _, dt in mine), "s")
        v[f"witnesses.branches.{name_of(w)}"] = (sum(o.branches for o, _ in mine),
                                                 "count")
    depths = reach(p["rows"])
    for w in workloads.LADDER_WITNESSES:
        v[f"witnesses.reach.{name_of(w)}"] = (depths.get(w, 0), "depth")

    v["wkl.path_extractor.self_s"] = (sum(
        s for k, s in selfs.items() if k.endswith("wkl.path_extractor.<locals>.fn")), "s")
    v["ternary.synthesize.s"] = seconds(total, "ternary.synthesize")
    v["ternary.realizer.s"] = (sum(
        s for k, s in total.items() if k.startswith("eval:") and ".ternary." in k), "s")
    for key in ("llpo_swap", "modulus", "extract_tables"):
        v[f"weakcomp.{key}.s"] = seconds(total, f"weakcomp.{key}")
    v["weakcomp.weak_compose_check.s"] = (sum(
        dt for chk, _, dt, _ in p["rows"] if chk.label == "weak_compose"), "s")
    v["registry.build.s"] = seconds(total, "registry.build")
    v["corpus.generate.s"] = seconds(total, "corpus.generate")
    return v


EXACT_UNITS = ("count", "depth", "symbols")


def exact_counts(v: dict) -> dict:
    return {k: x for k, (x, unit) in v.items() if unit in EXACT_UNITS}


def per_layer(untraced: dict, traced: list) -> tuple:
    """Exact counts from the first traced pass (every pass must repeat
    them), times (scaled) and ratios as medians over the traced passes."""
    values = [layer_values(p) for p in traced]
    m = {}
    for k, (first, unit) in values[0].items():
        xs = [v[k][0] * (p["scale"] if unit == "s" else 1)
              for v, p in zip(values, traced)]
        m[k] = (first if unit in EXACT_UNITS else statistics.median(xs), unit, len(xs))
    wall = statistics.median(p["scale"] * p["wall"] for p in traced)
    m["trace.wall_s"] = (wall, "s", len(traced))
    m["trace.overhead_s"] = (wall - untraced["scale"] * untraced["wall"], "s",
                             len(traced))
    repeat = all(exact_counts(v) == exact_counts(values[0]) for v in values)
    return m, repeat


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_only:
        print(*map(repr, _setup_probe(args.workload, args.seed)))
        return 0

    _import_program()
    import workloads
    if args.workload not in workloads.BUILDERS:
        sys.exit(f"bench: unknown workload {args.workload!r}; one of "
                 f"{sorted(workloads.BUILDERS)}")

    setups = []
    tracer = None
    passes = []
    ref = Reference()
    deadline = time.perf_counter() + args.seconds
    if args.trace:
        from tracing import Tracer
        untraced = run_pass(args.workload, args.seed, ref)
        tracer = Tracer()
        tracer.install()
        try:
            while another_pass(passes, deadline, TRACED_PASSES_MIN):
                passes.append(run_pass(args.workload, args.seed, ref, tracer))
                if len(passes) == 1:
                    OUT.mkdir(exist_ok=True)
                    tracer.write(str(OUT / f"spans-{args.workload}-seed{args.seed}"),
                                 {"workload": args.workload, "seed": args.seed})
        finally:
            tracer.uninstall()
        all_passes = [untraced] + passes
    else:
        # set-up probes alternate with the passes, so that their median
        # samples the whole run rather than its first second
        while another_pass(passes, deadline, 1):
            for _ in range(SETUP_PER_PASS):
                setups.append(measure_setup(args.workload, args.seed))
            passes.append(run_pass(args.workload, args.seed, ref))
        while len(setups) < SETUP_PROBES:
            setups.append(measure_setup(args.workload, args.seed))
        all_passes = passes

    wrong = [judge(p["rows"]) for p in all_passes]
    attempted = sum(len(p["rows"]) for p in all_passes)
    failed = sum(map(sum, wrong))
    for (c, o, *_), bad in zip(all_passes[0]["rows"], wrong[0]):
        if bad:
            print(f"WRONG {c.name}: {o.verdict} {o.note}", file=sys.stderr)

    consistent = all(signature(p) == signature(all_passes[0]) for p in all_passes)
    if args.trace:
        metrics, repeat = per_layer(untraced, passes)
        consistent = consistent and repeat
    else:
        metrics = end_to_end(passes, setups)
    if not consistent:
        print("bench: passes differ in verdicts, branch counts or exact counts",
              file=sys.stderr)

    host = {"host": platform.node(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "platform": platform.platform()}
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace} "
          f"passes {len(passes)} checks/pass {len(passes[0]['rows'])} "
          f"host {host['host']} python {host['python']} nproc {host['nproc']} "
          f"reference {statistics.fmean(ref.samples)!r} s (n={len(ref.samples)})")
    print(f"failed_share {failed / attempted!r} share (n={attempted})")
    for name, (value, unit, n) in metrics.items():
        print(f"{name} {value!r} {unit} (n={n})")

    OUT.mkdir(exist_ok=True)
    record = dict(host, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, passes=len(passes),
                  attempted=attempted, failed=failed,
                  metrics={k: {"value": v, "unit": u, "n": n}
                           for k, (v, u, n) in metrics.items()},
                  reference_s=ref.samples,
                  pass_walls=[p["wall"] for p in passes],
                  pass_scales=[p["scale"] for p in passes], setups=setups,
                  checks=[{"check": c.name, "verdict": o.verdict,
                           "branches": o.branches, "wrong": bad,
                           "s": [p["rows"][i].s for p in passes],
                           "locals": [p["rows"][i].local for p in passes]}
                          for i, ((c, o, *_), bad)
                          in enumerate(zip(passes[0]["rows"], wrong[-len(passes)]))])
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump(record, fh, indent=1)

    correct = failed == 0 and consistent
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u, _) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
