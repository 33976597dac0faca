"""Reduction witnesses and the bounded-depth checker.

A Witness claims f <= g (ordinary) or f <=sW g (strong) via an input
translation K and an output translation H.  The checker replays the claim
against every canonical oracle behavior of g at K(p) for each corpus name
p, forking an oracle coordinate only where H reads it: a reported failure
pins a definite coordinate, a pass is sound to the checked depth.  A
strong witness whose H only copies coordinates is decided without forking
where the answers form boxes: H(G(K(p))) within F(p) is then an inclusion
of coordinate boxes, which the explorer decides on its root run.  The
point action of K (k_point, taken from K.point) lets the oracle's value
set be computed on a finitely presented name; it is validated against the
machine on a prefix of the name once per witness, name and width, and
every later check of that name reuses the verdict.  The checks keep one
Name per name (label, status, the value sets F(p) and G of the validated
image, F(p)'s box masks and one problems.Frontier of H's runs) and H's
index law read so far, so a check at a new depth works out only what
that depth adds.  A name checked once (suite, check, derive) keeps only
an inclusion's root run, and a check that raises drops the runs it was
filling, since a run that raised cannot resume.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import count
from typing import Callable, Optional

from .errors import (
    CapacityExceeded,
    MiddleMismatch,
    NotACylinder,
    NotParallelizable,
    OutOfDomain,
    WorkbenchError,
)
from .literals import point_str
from .machines import (
    Machine,
    ReadView,
    RowView,
    compose,
    compose_all,
    const_machine,
    countable_tuple,
    diag,
    first_half,
    identity,
    index_machine,
    inject,
    interleave,
    pair_machine,
    proj1,
    proj2,
    row_machine,
    run_on_point,
    search_machine,
    second_half,
    shift_l,
    stream_machine,
    symbol_machine,
    tag_case,
    tensor,
)
from .points import (
    ONES,
    ZEROS,
    EvPeriodic,
    Interleave,
    LawPoint,
    Point,
    RowTuple,
    depair,
    half,
    min_zero,
    nonzero_census,
    pair_decode,
    pair_encode,
    pairing_row,
    point_map,
    prefix,
    pulse,
    pulse_bit,
    pulse_position,
    scan_bound,
    subsample,
)
from .problems import (
    BEHAVIOR_CAP,
    BoxMasks,
    CoordProductSet,
    Frontier,
    Problem,
    c_problem,
    double_hat_problem,
    flatten,
    hat_problem,
    id_problem,
    llpo_hat_problem,
    llpo_problem,
    llpo_real_problem,
    lpo_problem,
    product_problem,
    sum_problem,
)
from .spaces import Dyadic, decode_dyadic, dyadic_code, dyadic_from_code


@dataclass
class Witness:
    f: Problem
    g: Problem
    K: Machine
    H: Machine
    strong: bool
    name: str = ""
    k_point: Callable = field(init=False)
    # (id(p), width) -> what the checks keep of the name p (Name)
    _validated: dict = field(init=False, repr=False, compare=False,
                             default_factory=dict)
    # H's index law read so far: src(0), src(1), ...
    _src: list = field(init=False, repr=False, compare=False,
                       default_factory=list)

    def __post_init__(self):
        if self.K.point is None:
            raise ValueError(f"{self.K.name}: a witness's K needs a point action")
        self.k_point = self.K.point
        if not self.name:
            rel = "<=sW" if self.strong else "<=W"
            self.name = f"{self.f.name} {rel} {self.g.name}"

    def __repr__(self):
        return f"Witness({self.name})"


@dataclass(eq=False, slots=True)
class Name:
    """What a witness keeps of one corpus name at one validation width.
    The first check sets the label, the validation status and kept: (F(p),
    G(K(p))) when ok, the limit's message when K exceeds a capacity, else
    None.  The inclusion test adds F(p)'s box masks.  frontier holds H's
    runs (problems.Frontier): an inclusion's root run from the first check
    on, and from the second on the branches of the deepest depth explored
    since.  A check that raises drops it, and the next keeps new runs."""

    point: Point            # keeps id(point) unused
    label: str
    status: str
    kept: object
    masks: Optional[BoxMasks] = None
    frontier: Optional[Frontier] = None


@dataclass
class CheckEntry:
    point: str
    behavior: int
    status: str  # pass | fail | stall | capacity | error
    coordinate: Optional[int] = None
    note: str = ""
    # free oracle coordinates below depth that the run read, in read order;
    # None where the oracle's behaviors were enumerated
    use: Optional[tuple] = None


@dataclass
class Report:
    witness: str
    depth: int
    entries: list = field(default_factory=list)
    validated: int = 0      # names whose validation this check ran
    reused: int = 0         # ok names whose value sets an earlier check built
    resumed: int = 0        # branch runs filled on from a kept frontier

    @property
    def passed(self) -> bool:
        return bool(self.entries) and all(e.status == "pass" for e in self.entries)

    def failures(self) -> list:
        return [e for e in self.entries if e.status != "pass"]

    @property
    def unverified(self) -> bool:
        """No branch refutes the witness, yet some stalled at their fuel or
        met a capacity of K on their name: either bounds the run's budget,
        not the witness."""
        bad = self.failures()
        return bool(bad) and all(e.status in ("stall", "capacity") for e in bad)

    def verdict(self) -> str:
        if self.passed:
            return f"PASS (verified to depth {self.depth})"
        bad = self.failures()
        if not self.entries:
            return "EMPTY (no corpus entries)"
        if self.unverified:
            total = len(self.entries)
            stalls = sum(e.status == "stall" for e in bad)
            why = [f"{n}/{total} branches {what}" for n, what in (
                (stalls, "stall at fuel"),
                (len(bad) - stalls, "exceed a capacity of K")) if n]
            return f"UNVERIFIED ({', '.join(why)})"
        e = bad[0]
        where = f" at coordinate {e.coordinate}" if e.coordinate is not None else ""
        return f"FAIL ({len(bad)}/{len(self.entries)} branches, first {e.status}{where})"

    def render(self) -> str:
        return f"{self.witness}: {self.verdict()}"


VALIDATE_WIDTH = 64


def check(w: Witness, corpus, depth: int = 16,
          validate_width: int = VALIDATE_WIDTH) -> Report:
    """Replay the witness on every corpus name and oracle behavior branch.

    K is validated on the name's word: its first validate_width symbols,
    read once (p.prefix), and K's whole output on them is compared with
    the mirror's prefix of the same length.  The status (_validate) is
    kept per witness, name and width (Name), so later checks validate no
    more; an ok name keeps its value sets with it, F(p) and G of the
    validated image, and every later check explores those: their memos
    hold no depth.  The name's label is formatted on its first check.  A
    validation or value set that raises keeps nothing.

    The oracle's behaviors are explored along H's reads (ValueSet.explore):
    an entry stands for every behavior that agrees with its run on the
    coordinates it read, and its behavior index is the least of them.  A
    strong witness whose H copies by an index law, from a coordinate
    product into a union of boxes (_law), is decided by box inclusion
    first, on the explorer's root run: a proven inclusion is one passing
    entry that stands for every behavior (use=(), note="inclusion"), and
    otherwise the exploration goes on from that run.  The runs kept in
    Name.frontier are filled on by a deeper check (Report.resumed counts
    them); a shallower one serves an inclusion from the kept root and
    explores every branch afresh; one that raises drops the frontier."""
    report = Report(w.name, depth)
    for p in corpus:
        key = id(p), validate_width
        name = w._validated.get(key)
        first = name is None
        if first:
            try:
                label = point_str(p)
            except WorkbenchError:      # no symbol of the name can be read
                label = repr(p)
            name = Name(p, label, *_validate(w, p, validate_width))
            w._validated[key] = name
            report.validated += 1
        else:
            report.reused += name.status == "ok"
        label, status, kept = name.label, name.status, name.kept
        if status == "outdom":
            raise OutOfDomain(f"{w.name}: corpus name outside dom({w.f.name})")
        if status == "capacity":    # the memo keeps the limit's message
            report.entries.append(CheckEntry(label, -1, "capacity", note=kept))
            continue
        if status == "mismatch":
            report.entries.append(CheckEntry(label, -1, "error",
                                             note="K mirror mismatch"))
            continue
        if status == "outside":
            report.entries.append(CheckEntry(label, -1, "fail",
                                             note=f"K image outside dom({w.g.name})"))
            continue
        fv, gv = kept
        # a first check's frontier sits at its own depth, so that it keeps
        # no explored branch: it is kept only with an inclusion's root
        frontier = name.frontier or Frontier(depth if first else 0)

        def run(r, p=p):
            feed = r if w.strong else Interleave(p, r)
            return run_on_point(w.H, feed, depth)

        try:
            explored = gv.explore(depth, BEHAVIOR_CAP, run, frontier,
                                  _law(w, name, depth))
        except BaseException:
            # a run that raised cannot resume
            name.frontier = None
            raise
        name.frontier = frontier if frontier.branches or not first else None
        report.resumed += frontier.resumed
        for bi, use, outcome in explored:
            if outcome is None:     # the inclusion: no run to check
                entry = CheckEntry(label, bi, "pass", use=use, note="inclusion")
            elif (coord := fv.check_prefix(outcome.output)) is not None:
                entry = CheckEntry(label, bi, "fail", coord, use=use)
            elif not outcome.productive:
                entry = CheckEntry(label, bi, "stall", use=use,
                                   note=f"only {len(outcome.output)} symbols")
            else:
                entry = CheckEntry(label, bi, "pass", use=use)
            report.entries.append(entry)
    return report


def _validate(w: Witness, p: Point, width: int) -> tuple:
    """(status, kept): outdom, mismatch or outside (dom(g)) and None; ok
    and the value sets (F(p), G(q)) of K's image q; or capacity and the
    limit's message, when K's point action or its run on the name's word
    exceeds a capacity."""
    if not w.f.in_domain(p):
        return "outdom", None
    try:
        q = w.k_point(p)
        kout = tuple(w.K.eval(p.prefix(width)))
    except CapacityExceeded as exc:
        return "capacity", str(exc)
    if kout != prefix(q, len(kout)):
        return "mismatch", None
    if not w.g.in_domain(q):
        return "outside", None
    return "ok", (w.f.value_set(p), w.g.value_set(q))


def _law(w: Witness, name: Name, depth: int) -> Optional[tuple]:
    """The explorer's inclusion law, when a strong H copies by its index
    law into G's coordinate product: H's law coordinates to depth at least
    and F(p)'s box masks, both kept to serve every depth; else None."""
    src = w.H.src
    fv, gv = name.kept
    if not (w.strong and src is not None and isinstance(gv, CoordProductSet)):
        return None
    if name.masks is None:
        name.masks = BoxMasks(fv.boxes() or ())
    coords = w._src
    coords.extend(map(src, range(len(coords), depth)))
    return coords, name.masks


# ---------------------------------------------------------------------------
# basic witnesses

def reflexivity(f: Problem) -> Witness:
    return Witness(f, f, identity(), identity(), True,
                   name=f"refl({f.name})")


def as_ordinary(w: Witness) -> Witness:
    """Strong witnesses are ordinary ones that ignore the fed-through input."""
    if not w.strong:
        return w
    return Witness(w.f, w.g, w.K, compose(w.H, proj2()), False,
                   name=w.name + " [ord]")


def least_degree(f: Problem, f_realizer: Machine, g: Problem,
                 q: Point) -> Witness:
    """A computable problem reduces to anything with a point in its domain:
    the inner translation is constant, the outer one recomputes f."""
    return Witness(
        f, g,
        const_machine(q, "const-dom-point"),
        compose(f_realizer, proj1()),
        False,
        name=f"least({f.name} <=W {g.name})",
    )


def repr_transport(w: Witness, q_m: Machine, r_m: Machine, s_m: Machine,
                   t_m: Machine, new_f: Problem, new_g: Problem) -> Witness:
    """Transport a reduction along representation translations."""
    base = as_ordinary(w)
    h2 = compose_all(r_m, base.H, tensor(q_m, t_m))
    k2 = compose_all(s_m, base.K, q_m)
    return Witness(new_f, new_g, k2, h2, False,
                   name=f"transport({w.name})")


# ---------------------------------------------------------------------------
# composition, products, sums

def compose_witness(w1: Witness, w2: Witness) -> Witness:
    """From f <= m and m <= g derive f <= g."""
    if w1.g.key != w2.f.key:
        raise MiddleMismatch(f"{w1.g.name} vs {w2.f.name}")
    k = compose(w2.K, w1.K)
    if w1.strong and w2.strong:
        return Witness(w1.f, w2.g, k, compose(w1.H, w2.H), True,
                       name=f"{w1.name} ; {w2.name}")
    a, b = as_ordinary(w1), as_ordinary(w2)
    h = compose(a.H, pair_machine(proj1(),
                                  compose(b.H, tensor(a.K, identity()))))
    return Witness(w1.f, w2.g, k, h, False,
                   name=f"{w1.name} ; {w2.name}")


def product_witness(w1: Witness, w2: Witness) -> Witness:
    ff = product_problem(w1.f, w2.f)
    gg = product_problem(w1.g, w2.g)
    k = tensor(w1.K, w2.K)
    if w1.strong and w2.strong:
        return Witness(ff, gg, k, tensor(w1.H, w2.H), True,
                       name=f"({w1.name}) x ({w2.name})")
    a, b = as_ordinary(w1), as_ordinary(w2)
    shuffle = pair_machine(
        pair_machine(compose(proj1(), proj1()), compose(proj1(), proj2())),
        pair_machine(compose(proj2(), proj1()), compose(proj2(), proj2())),
    )
    h = compose(tensor(a.H, b.H), shuffle)
    return Witness(ff, gg, k, h, False, name=f"({w1.name}) x ({w2.name})")


def sum_witness(w1: Witness, w2: Witness) -> Witness:
    ff = sum_problem(w1.f, w2.f)
    gg = sum_problem(w1.g, w2.g)
    k = tensor(w1.K, w2.K)
    if w1.strong and w2.strong:
        h = tag_case(compose(inject(0), w1.H), compose(inject(1), w2.H))
        return Witness(ff, gg, k, h, True, name=f"({w1.name}) + ({w2.name})")

    a, b = as_ordinary(w1), as_ordinary(w2)

    # the input interleaves both instances with the tagged answer; copy the
    # tag to the front, then feed branch s instance s (input 2j + 2s at
    # even j) interleaved with the answer's rest (input j + 2 at odd j)
    def branch(s, h):
        feed = index_machine(f"feed{s}",
                             lambda j: 2 * j + 2 * s if j % 2 == 0 else j + 2)
        return compose_all(inject(s), h, feed)

    tag_first = index_machine("tag-first", lambda j: j - 1 if j else 1)
    h = compose(tag_case(branch(0, a.H), branch(1, b.H)), tag_first)
    return Witness(ff, gg, k, h, False, name=f"({w1.name}) + ({w2.name})")


def sum_idem(f: Problem) -> tuple:
    """f <=sW f+f (left shift) and f+f <=sW f (tag a fixed branch)."""
    ss = sum_problem(f, f)
    fwd = Witness(f, ss, diag(), shift_l(), True)
    bwd = Witness(ss, f, proj1(), inject(0), True)
    return fwd, bwd


def glb_witnesses(f: Problem, g: Problem) -> tuple:
    """f+g below both components, by answering a fixed tagged branch."""
    ss = sum_problem(f, g)
    to_f = Witness(ss, f, proj1(), inject(0), True)
    to_g = Witness(ss, g, proj2(), inject(1), True)
    return to_f, to_g


def glb_factor(wf: Witness, wg: Witness) -> Witness:
    """From h <= f and h <= g derive h <= f+g."""
    if wf.f.key != wg.f.key:
        raise MiddleMismatch("factoring needs a common lower problem")
    fwd, _ = sum_idem(wf.f)
    return compose_witness(fwd, sum_witness(wf, wg))


# ---------------------------------------------------------------------------
# cylindrification

def cylindrify(w: Witness) -> Witness:
    """f <=W g gives id x f <=sW id x g, with the fed-through input stored
    in the identity slot."""
    base = as_ordinary(w)
    ff = product_problem(id_problem(), base.f)
    gg = product_problem(id_problem(), base.g)
    k = pair_machine(identity(), compose(base.K, proj2()))
    h = pair_machine(
        compose(proj1(), proj1()),
        compose(base.H, pair_machine(compose(proj2(), proj1()), proj2())),
    )
    return Witness(ff, gg, k, h, True, name=f"cyl({w.name})")


def uncylindrify(w: Witness, f: Problem, g: Problem) -> Witness:
    """From id x f <=sW id x g recover f <=W g."""
    if not w.strong:
        raise MiddleMismatch("uncylindrify expects a strong witness")
    k = compose_all(proj2(), w.K, diag())
    h = compose_all(proj2(), w.H,
                    tensor(compose_all(proj1(), w.K, diag()), identity()))
    return Witness(f, g, k, h, False, name=f"uncyl({w.name})")


def to_own_cylinder(f: Problem) -> Witness:
    """f <=sW id x f: duplicate the input and read the second slot."""
    ff = product_problem(id_problem(), f)
    return Witness(f, ff, diag(), proj2(), True)


def strengthen_on_cylinder(w: Witness, cyl: Witness) -> Witness:
    """Upgrade f <=W g to f <=sW g when id x g <=sW g is witnessed."""
    if not cyl.strong or cyl.g.key != w.g.key:
        raise NotACylinder(f"need a strong id*{w.g.name} <=sW {w.g.name} witness")
    s0 = to_own_cylinder(w.f)
    out = compose_witness(compose_witness(s0, cylindrify(w)), cyl)
    return replace(out, name=f"strong({w.name})")


# ---------------------------------------------------------------------------
# parallelization

def parallel_extensive(f: Problem) -> Witness:
    """One instance answered by countably many copies on the diagonal.
    The outer translation reads the first flat answer bit, so the witness
    is even strong."""
    fh = hat_problem(f)
    # every row is the instance; the RowTuple keeps the exact row period
    k = index_machine("diag-tuple", point=lambda p: RowTuple({}, p))
    h = symbol_machine("first-answer",
                       lambda w, j: w[0] if j == 0 else 0,
                       lambda j: 1 if j == 0 else j + 1)
    return Witness(f, fh, k, h, True)


def parallelize_witness(w: Witness) -> Witness:
    """Apply a reduction between single-answer problems row by row; a
    reduction between any other problems is refused (NotParallelizable)."""
    if w.f.answers is None or w.g.answers is None:
        raise NotParallelizable(
            f"{w.name} reduces {w.f.name} to {w.g.name}: only a reduction "
            "between single-answer problems is parallelized row by row")
    fh, gh = hat_problem(w.f), hat_problem(w.g)
    k = countable_tuple(w.K)

    # a read past the input word ends the answers
    if w.strong:
        def answers(wd):
            for kk in count():
                yield w.H.view(_padded(wd[kk]))[0]
    else:
        base = as_ordinary(w)

        def answers(wd):
            rows, flat = first_half(wd), second_half(wd)
            for kk in count():
                a, instance = flat[kk], RowView(rows, kk)
                instance[0]     # an empty row ends them too
                res = base.H.view(interleave(instance, _padded(a)))
                if not res:
                    return
                yield res[0]
    return Witness(fh, gh, k, stream_machine("hatH", answers), w.strong,
                   name=f"hat({w.name})")


def _padded(a: int) -> ReadView:
    """The answer a followed by unboundedly many zeros: a row's answer,
    which the row's own H reads on demand."""
    return ReadView(EvPeriodic((a,), (0,)))


def parallel_idem(f: Problem) -> tuple:
    """Flattening and diagonal witnesses between the hat and the double hat."""
    fh = hat_problem(f)
    fhh = double_hat_problem(f)
    k_flat = index_machine("flatten", point=flatten)
    down = Witness(fhh, fh, k_flat, identity(), True)

    k_wide = index_machine("rediag", rows=lambda p: lambda j: p)
    up = Witness(fh, fhh, k_wide,
                 index_machine("row0", lambda k: pair_encode(0, k)),
                 True)
    return down, up


def parallel_absorb(f: Problem) -> tuple:
    """Even/odd merge between the hat and its square."""
    fh = hat_problem(f)
    pp = product_problem(fh, fh)

    def merge_rows(p):
        a, b = depair(p)
        return lambda n: pairing_row(a if n % 2 == 0 else b, n // 2)

    k_merge = index_machine("evenodd-merge", rows=merge_rows)
    absorb = Witness(pp, fh, k_merge, identity(), True)
    split = Witness(fh, pp, diag(), proj1(), True)
    return absorb, split


def parallel_product(f: Problem, g: Problem) -> tuple:
    """Both directions of hat(f x g) == hat(f) x hat(g)."""
    fh, gh = hat_problem(f), hat_problem(g)
    ph = hat_problem(product_problem(f, g))
    pp = product_problem(fh, gh)

    def split_point(p):
        def half_rows(par):
            return LawPoint(row_fn=lambda i: half(pairing_row(p, i), par),
                            label=f"half{par}")
        return Interleave(half_rows(0), half_rows(1))

    k_split = index_machine("split-rows", point=split_point)

    h_fwd = symbol_machine(
        "pair-up",
        lambda w, j: (w[2 * pair_decode(j)[0] + (0 if pair_decode(j)[1] == 0 else 1)]
                      if pair_decode(j)[1] <= 1 else 0),
        lambda j: 2 * pair_decode(j)[0] + 2,
    )
    fwd = Witness(ph, pp, k_split, h_fwd, True)

    def join_rows(p):
        a, b = depair(p)
        return lambda i: Interleave(pairing_row(a, i), pairing_row(b, i))

    k_join = index_machine("join-rows", rows=join_rows)

    h_bwd = index_machine(
        "pair-down", lambda j: pair_encode(j // 2, j % 2))
    bwd = Witness(pp, ph, k_join, h_bwd, True)
    return fwd, bwd


def parallel_sum(f: Problem, g: Problem) -> Witness:
    """Absorption: countably many (hat f + hat g) instances collapse into one."""
    rhs = sum_problem(hat_problem(f), hat_problem(g))
    lhs = hat_problem(rhs)

    def gather_point(p):
        def gathered(par):
            def row_of(ij):
                i, j = pair_decode(ij)
                return pairing_row(half(pairing_row(p, j), par), i)
            return LawPoint(row_fn=row_of, label=f"gather{par}")
        return Interleave(gathered(0), gathered(1))

    k_gather = index_machine("gather", point=gather_point)

    def h_src(t):
        j, u = pair_decode(t)
        if u == 0:
            return 0
        return 1 + pair_encode(u - 1, j)

    # row j of the answer repeats the tag, then reads its slice of the flat
    # answer; at most one output symbol per input symbol
    h = symbol_machine("scatter", lambda w, t: w[h_src(t)],
                       lambda t: max(t, h_src(t)) + 1)
    return Witness(lhs, rhs, k_gather, h, True)


# ---------------------------------------------------------------------------
# named witnesses from explicit constructions

def llpo_to_lpo() -> Witness:
    """Search the even positions for a nonzero; negate the verdict."""
    k = symbol_machine("even-scan",
                       lambda w, n: 1 if w[2 * n] == 0 else 0,
                       lambda n: 2 * n + 1,
                       point=lambda p: point_map(subsample(p, 2, 0),
                                                 lambda x: 1 if x == 0 else 0))
    h = symbol_machine("negate",
                       lambda w, j: (1 if w[0] == 0 else 0) if j == 0 else 0,
                       lambda j: j + 1)
    return Witness(llpo_problem(), lpo_problem(), k, h, True,
                   name="llpo_to_lpo")


def _min_search_h() -> Machine:
    """Emit, per output coordinate k, the least m whose cell <k,m> is zero."""
    def least_zeros(w):
        for k in count():
            m = 0
            while w[pair_encode(k, m)] != 0:
                m += 1
            yield m
    return stream_machine("min-search", least_zeros)


def _cell_guess(name: str, hit: Point, miss: Point) -> Machine:
    """Row <k,m> of the output guesses that input symbol k is m: it is
    hit where the guess holds and miss elsewhere."""
    def row_of(read, j):
        k, m = pair_decode(j)
        return hit if read(k) == m else miss
    return row_machine(name, row_of, lambda j: pair_decode(j)[0] + 1)


def id_to_c() -> Witness:
    """Recover a stream from zero-search answers over guessed cells."""
    k = _cell_guess("cell-guess", ZEROS, ONES)
    return Witness(id_problem(), c_problem(), k, _min_search_h(), True,
                   name="id_to_c")


def id_to_llpo_hat() -> Witness:
    """As id_to_c, with single-pulse rows signalling equality parity-wise."""
    k = _cell_guess("cell-guess-pulse", pulse(1), pulse(0))
    return Witness(id_problem(), llpo_hat_problem(), k, _min_search_h(), True,
                   name="id_to_llpo_hat")


def _double_absorb_rows(p: Point) -> Callable:
    """Row law of the absorb shuffle: row k interleaves the rows <k,2n>
    and the rows <k,2n+1>, each read at its even symbols."""
    def row_of(k):
        def even_rows(n):
            return half(pairing_row(p, pair_encode(k, 2 * n)), 0)

        def odd_rows(n):
            return half(pairing_row(p, pair_encode(k, 2 * n + 1)), 0)

        if isinstance(p, RowTuple):
            exc_even = {}
            exc_odd = {}
            for e in p.rows:
                k_, t = pair_decode(e)
                if k_ != k:
                    continue
                if t % 2 == 0:
                    exc_even[t // 2] = even_rows(t // 2)
                else:
                    exc_odd[(t - 1) // 2] = odd_rows((t - 1) // 2)
            base_e = half(p.default, 0)
            evens = RowTuple(exc_even, base_e)
            odds = RowTuple(exc_odd, base_e)
        else:
            evens = LawPoint(row_fn=even_rows, label="absorb-evens")
            odds = LawPoint(row_fn=odd_rows, label="absorb-odds")
        return Interleave(evens, odds)

    return row_of


def double_absorb_machine() -> Machine:
    """The index shuffle merging two nested universal quantifiers."""
    return index_machine("double-absorb", rows=_double_absorb_rows)


def llpo_hat_squared(composite: Problem) -> Witness:
    """Two rounds of parallelized LLPO collapse into one round."""
    return Witness(composite, llpo_hat_problem(), double_absorb_machine(),
                   identity(), True, name="llpo_hat_squared")


# real-number pair ----------------------------------------------------------

_ZERO_CODE = dyadic_code(Dyadic(0, 0))


def llpo_to_llpo_real() -> Witness:
    """Map a pulse position to a signed power of two."""
    def named(j):
        # the pulse at j names the sign of +-2^-(j // 2), from stage j // 2
        # on; no pulse names zero
        if j is None:
            return EvPeriodic((), (_ZERO_CODE,))
        x = Dyadic(1 if pulse_bit(j) else -1, j // 2)
        return EvPeriodic((_ZERO_CODE,) * (j // 2), (dyadic_code(x),))

    # zero codes while no pulse is read: code t once input 2t + 1 is read
    k = search_machine("pulse-to-dyadic", lambda i, x: i if x != 0 else None,
                       named, lambda n: n // 2,
                       lambda p: nonzero_census(p)[1])
    return Witness(llpo_problem(), llpo_real_problem(), k, identity(), True,
                   name="llpo_to_llpo_real")


def llpo_real_to_llpo() -> Witness:
    """Stage-search the sign; emit a pulse of the matching parity."""
    def pulse_at(i, code):
        # where the pulse naming the sign seen at stage i goes, or None
        num, den = dyadic_from_code(code).as_fraction()
        if num * (2 ** i) > den:
            return pulse_position(i, 1)
        if -num * (2 ** i) > den:
            return pulse_position(i, 0)
        return None

    def found(p):
        # the stages below this bound decide a nonzero sign
        x = decode_dyadic(p)
        stages = range(scan_bound(p) + x.exponent + 4) if x.sign() else ()
        return next((pos for i in stages
                     if (pos := pulse_at(i, p.value_at(i))) is not None), None)

    k = search_machine("sign-search", pulse_at,
                       lambda pos: ZEROS if pos is None else pulse(pos),
                       lambda n: n, found)
    return Witness(llpo_real_problem(), llpo_problem(), k, identity(), True,
                   name="llpo_real_to_llpo")


# discontinuity -------------------------------------------------------------

@dataclass
class DiscontinuityData:
    """Witness data for reducing zero-search to a discontinuous map:
    a limit point q, a family converging to it with a uniform output
    disagreement below cell_count, and a convergence modulus."""

    q: Point
    family: Callable  # n -> Point
    agree_bound: Callable  # L -> index M with family(n)[0:L] = q[0:L] for n >= M
    cell_count: int
    expected: tuple  # prefix of the map's value at q, length cell_count


def lpo_from_discontinuity(data: DiscontinuityData, g: Problem) -> Witness:
    def paced(n):
        # q's symbols as far as every family member a later zero could
        # select agrees with q
        return next((ell for ell in range(n) if data.agree_bound(ell + 1) > n), n)

    def ball_test(w, j):
        if j:
            return 0
        seen = tuple(w[i] for i in range(data.cell_count))
        return 1 if seen == tuple(data.expected) else 0

    # the zero at j selects its family member
    k = search_machine("select-family", lambda i, x: i if x == 0 else None,
                       lambda j: data.q if j is None else data.family(j),
                       paced, min_zero)
    h = symbol_machine("ball-test", ball_test, lambda j: data.cell_count + j)
    return Witness(lpo_problem(), g, k, h, True,
                   name=f"lpo_from_discontinuity({g.name})")


# cylinder witnesses for the parallelized principles -------------------------

def hat_is_cylinder(f: Problem, idf: Witness) -> Witness:
    """id x hat(f) <=sW hat(f) from a strong witness idf of id <=sW hat(f):
    pack the identity slot into extra rows."""
    fh = hat_problem(f)
    if not idf.strong or idf.f.key != id_problem().key:
        raise NotACylinder(f"need a strong id <=sW {fh.name} witness, got {idf.name}")
    absorb, _ = parallel_absorb(f)
    out = compose_witness(product_witness(idf, reflexivity(fh)), absorb)
    return replace(out, name=f"cylinder({fh.name})")
