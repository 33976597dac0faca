"""Textual literals for points, trees, clopen compacts, dyadics and mass
problems, shared by the CLI and the test fixtures.  Every format_* output
re-parses to an equal value; point_str prints any name for display.
"""

from __future__ import annotations

from .errors import ParseError, WorkbenchError
from .points import EvPeriodic, Interleave, Point, RowTuple, prefix
from .spaces import ClopenCompact, Dyadic, FinTree, TreeChar


def _split_top(s: str, sep: str) -> list:
    parts = []
    depth = 0
    cur = []
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def _nat_list(s: str) -> tuple:
    s = s.strip()
    if not s:
        return ()
    try:
        return tuple(int(tok) for tok in s.split())
    except ValueError as exc:
        raise ParseError(f"bad digits list {s!r}") from exc


def _body(s: str, head: str) -> str:
    s = s.strip()
    if not (s.startswith(head + "(") and s.endswith(")")):
        raise ParseError(f"expected {head}(...), got {s!r}")
    return s[len(head) + 1: -1]


def parse_point(s: str) -> Point:
    """point := evp(h;p) | pair(point,point) | rows(default=point; n:point ...)"""
    s = s.strip()
    if s.startswith("evp"):
        body = _body(s, "evp")
        halves = _split_top(body, ";")
        if len(halves) != 2:
            raise ParseError(f"evp needs head;period in {s!r}")
        head, period = _nat_list(halves[0]), _nat_list(halves[1])
        if not period:
            raise ParseError("period must be nonempty")
        return EvPeriodic(head, period)
    if s.startswith("pair"):
        body = _body(s, "pair")
        halves = _split_top(body, ",")
        if len(halves) != 2:
            raise ParseError(f"pair needs two points in {s!r}")
        return Interleave(parse_point(halves[0]), parse_point(halves[1]))
    if s.startswith("rows"):
        body = _body(s, "rows")
        fields = _split_top(body, ";")
        first = fields[0].strip()
        if not first.startswith("default="):
            raise ParseError(f"rows needs default= first in {s!r}")
        default = parse_point(first[len("default="):])
        rows = {}
        for f in fields[1:]:
            f = f.strip()
            if not f:
                continue
            idx, _, rest = f.partition(":")
            rows[int(idx)] = parse_point(rest)
        return RowTuple(rows, default)
    raise ParseError(f"unknown point literal {s!r}")


def format_point(p: Point) -> str:
    if isinstance(p, EvPeriodic):
        return f"evp({' '.join(map(str, p.head))};{' '.join(map(str, p.period))})"
    if isinstance(p, Interleave):
        return f"pair({format_point(p.first)},{format_point(p.second)})"
    if isinstance(p, RowTuple):
        inner = f"default={format_point(p.default)}"
        for n in sorted(p.rows):
            inner += f";{n}:{format_point(p.rows[n])}"
        return f"rows({inner})"
    raise ParseError(f"{type(p).__name__} has no literal form")


def _word(tok: str) -> tuple:
    tok = tok.strip()
    if tok in ("e", ""):
        return ()
    if any(ch not in "01" for ch in tok):
        raise ParseError(f"bad binary word {tok!r}")
    return tuple(int(ch) for ch in tok)


def _word_str(w) -> str:
    return "".join(map(str, w)) if w else "e"


def parse_tree(s: str) -> FinTree:
    """tree(depth=D; nodes: w1 w2 ...; live: point, point, ...)"""
    body = _body(s, "tree")
    depth = None
    nodes = set()
    live = []
    for f in _split_top(body, ";"):
        f = f.strip()
        if f.startswith("depth="):
            depth = int(f[len("depth="):])
        elif f.startswith("nodes:"):
            nodes = {_word(t) for t in f[len("nodes:"):].split()}
        elif f.startswith("live:"):
            rest = f[len("live:"):].strip()
            if rest:
                live = [parse_point(t) for t in _split_top(rest, ",")]
        elif f:
            raise ParseError(f"unknown tree field {f!r}")
    if depth is None:
        raise ParseError("tree needs depth=")
    return FinTree(depth, nodes, tuple(live))


def format_tree(t: FinTree) -> str:
    nodes = " ".join(_word_str(w) for w in sorted(t.explicit_nodes, key=lambda w: (len(w), w)))
    live = ",".join(format_point(q) for q in t.live_paths)
    return f"tree(depth={t.explicit_depth}; nodes: {nodes}; live: {live})"


def point_str(q: Point) -> str:
    """A name as text: its literal, a tree's characteristic stream as its
    tree, and a name with no literal as its first 12 symbols."""
    if isinstance(q, TreeChar):
        return format_tree(q.tree)
    try:
        return format_point(q)
    except WorkbenchError:
        return "prefix " + " ".join(map(str, prefix(q, 12))) + " ..."


def parse_clopen(s: str) -> ClopenCompact:
    """clopen(exclude: w1 w2 ...)"""
    body = _body(s, "clopen")
    body = body.strip()
    if not body.startswith("exclude:"):
        raise ParseError(f"clopen needs exclude: in {s!r}")
    toks = body[len("exclude:"):].split()
    return ClopenCompact({_word(t) for t in toks})


def format_clopen(k: ClopenCompact) -> str:
    words = " ".join(_word_str(w) for w in sorted(k.excluded, key=lambda w: (len(w), w)))
    return f"clopen(exclude: {words})"


def parse_dyadic(s: str) -> Dyadic:
    """dyadic(num,exp): the value num / 2^exp."""
    body = _body(s, "dyadic")
    parts = body.split(",")
    if len(parts) != 2:
        raise ParseError(f"dyadic needs num,exp in {s!r}")
    return Dyadic(int(parts[0]), int(parts[1]))


def format_dyadic(d: Dyadic) -> str:
    return f"dyadic({d.numerator},{d.exponent})"


def parse_mass(s: str):
    """mass(point, point, ...), labelled by its literal"""
    from .medvedev import MassProblem
    body = _body(s, "mass")
    body = body.strip()
    members = [parse_point(t) for t in _split_top(body, ",")] if body else []
    return MassProblem(members, s.strip())


def format_mass(m) -> str:
    return f"mass({','.join(format_point(p) for p in m.members)})"


def parse_input(s: str):
    """Dispatch on the literal head: point, tree, clopen, dyadic or mass."""
    s = s.strip()
    for head, parser in (("tree", parse_tree), ("clopen", parse_clopen),
                         ("dyadic", parse_dyadic), ("mass", parse_mass)):
        if s.startswith(head + "("):
            return parser(s)
    return parse_point(s)
