import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from references import audit_monotone

from weihrauchlab.corpus import rng_for
from weihrauchlab.errors import ArityCap
from weihrauchlab.machines import (
    DEFAULT_FUEL,
    PointView,
    RowView,
    compose,
    index_machine,
    run_on_point,
)
from weihrauchlab.points import (
    EvPeriodic,
    Interleave,
    LawPoint,
    RowTuple,
    first_nonzero,
    pair_encode,
    pulse,
    pulse_bit,
    pulse_position,
)
from weihrauchlab.spaces import (
    T0,
    T1,
    THALF,
    TernaryValue,
    encode_ternary,
    ternary_of_word,
)
from weihrauchlab import ternary
from weihrauchlab.ternary import (
    NandCircuit,
    circuit_table,
    extension_value,
    gatewise_realizer,
    nand_realizer,
    nand_value,
    nand_shape,
    nand_word,
    resolution_realizer,
    shape_of,
    synthesize,
    table_of,
    ternary_extend,
    word_of_shape,
)

TERNARY = (T0, T1, THALF)

# the nine rows of the three-valued table for the joint-denial-of-both gate
NAND_ROWS = [
    (T0, T0, T1), (T0, T1, T1), (T1, T0, T1), (T1, T1, T0),
    (T0, THALF, T1), (T1, THALF, THALF),
    (THALF, T0, T1), (THALF, T1, THALF), (THALF, THALF, THALF),
]


def _decode(word):
    v = ternary_of_word(word)
    return THALF if v is None else v


def _decode_stream(mach, name, caps=(16, 64, 512)):
    """Widen until the verdict pulse (if any) scrolls into view."""
    for depth in caps:
        out = run_on_point(mach, name, depth)
        v = ternary_of_word(out.output)
        if v is not None:
            return v
    return THALF


def test_nand_value_table():
    for a, b, want in NAND_ROWS:
        assert nand_value(a, b) is want


def test_nand_realizer_reproduces_all_nine_rows():
    n = nand_realizer()
    for a, b, want in NAND_ROWS:
        name = Interleave(encode_ternary(a), encode_ternary(b))
        out = run_on_point(n, name, 12)
        assert _decode(out.output) is want, (a, b)


def test_nand_realizer_noncanonical_names():
    n = nand_realizer()
    # pulses deep in the stream, both even: value zero
    a = EvPeriodic((0, 0, 0, 0, 9), (0,))       # even position 4: names 1
    b = EvPeriodic((0, 0, 3), (0,))             # even position 2: names 1
    out = run_on_point(n, Interleave(a, b), 16)
    assert _decode(out.output) is T0
    # mixed: the odd pulse decides regardless of the earlier even pulse
    c = EvPeriodic((0, 0, 0, 5), (0,))          # odd position 3: names 0
    out2 = run_on_point(n, Interleave(a, c), 16)
    assert _decode(out2.output) is T1


def test_nand_realizer_monotone():
    n = nand_realizer()
    rng = rng_for("nand-mono")
    for _ in range(40):
        pos_a = rng.randrange(6)
        pos_b = rng.randrange(6)
        a = EvPeriodic(tuple([0] * pos_a + [1]), (0,)) if rng.random() < 0.8 \
            else EvPeriodic((), (0,))
        b = EvPeriodic(tuple([0] * pos_b + [1]), (0,)) if rng.random() < 0.8 \
            else EvPeriodic((), (0,))
        p = Interleave(a, b)
        lengths = sorted(rng.sample(range(40), 8))
        assert audit_monotone(n, p, lengths)


def test_synthesize_constant_one():
    c = synthesize((1, 1), 1)
    assert [c.eval_bool((b,)) for b in (0, 1)] == [1, 1]


def test_synthesize_xor():
    c = synthesize((0, 1, 1, 0), 2)
    assert [c.eval_bool(bits)
            for bits in itertools.product((0, 1), repeat=2)] == [0, 1, 1, 0]


def test_synthesize_majority():
    table = table_of(lambda a, b, c: (a + b + c) >= 2, 3)
    circ = synthesize(table, 3)
    for bits in itertools.product((0, 1), repeat=3):
        assert circ.eval_bool(bits) == (1 if sum(bits) >= 2 else 0)


def test_synthesize_arity_cap():
    with pytest.raises(ArityCap):
        synthesize((0,) * (2 ** 9), 9)


def _tuple_name(ts):
    return RowTuple({i: encode_ternary(t) for i, t in enumerate(ts)},
                    EvPeriodic((), (0,)))


def all_tables(arity):
    for bits in itertools.product((0, 1), repeat=2 ** arity):
        yield bits


def test_gatewise_realizer_matches_gatewise_value_exhaustively():
    """Machine route vs value route for the substituted network, all
    unary and binary tables, and a spread of ternary ones."""
    tables = [(t, 1) for t in all_tables(1)] + [(t, 2) for t in all_tables(2)]
    rng = rng_for("three-tables")
    ternaries = [tuple(rng.randrange(2) for _ in range(8)) for _ in range(6)]
    tables += [(t, 3) for t in ternaries]
    tables.append((table_of(lambda a, b, c: (a + b + c) >= 2, 3), 3))
    for table, arity in tables:
        ext = ternary_extend(synthesize(table, arity))
        mach = ext.gatewise()
        for ts in itertools.product(TERNARY, repeat=arity):
            got = _decode_stream(mach, _tuple_name(ts))
            assert got is ext.gatewise_value(ts), (table, ts)


def test_resolution_realizer_matches_semantic_extension_exhaustively():
    tables = [(t, 1) for t in all_tables(1)] + [(t, 2) for t in all_tables(2)]
    tables.append((table_of(lambda a, b, c: (a + b + c) >= 2, 3), 3))
    tables.append(((1,) * 8, 3))
    for table, arity in tables:
        ext = ternary_extend(synthesize(table, arity))
        mach = ext.realizer()
        for ts in itertools.product(TERNARY, repeat=arity):
            got = _decode_stream(mach, _tuple_name(ts))
            assert got is ext.value(ts), (table, ts)


def test_extension_examples():
    not_ext = ternary_extend(synthesize((1, 0), 1))
    assert not_ext.value((THALF,)) is THALF
    and_ext = ternary_extend(synthesize((0, 0, 0, 1), 2))
    assert and_ext.value((T0, THALF)) is T0
    or_ext = ternary_extend(synthesize((0, 1, 1, 1), 2))
    assert or_ext.value((THALF, THALF)) is THALF


def test_restriction_law():
    """The extension agrees with the table on fully Boolean inputs."""
    for table, arity in [((1, 0), 1), ((0, 1, 1, 0), 2),
                         (table_of(lambda a, b, c: a & (b | c), 3), 3)]:
        circ = synthesize(table, arity)
        ext = ternary_extend(circ)
        for bits in itertools.product((0, 1), repeat=arity):
            ts = tuple(T1 if b else T0 for b in bits)
            want = T1 if circ.eval_bool(bits) else T0
            assert ext.value(ts) is want
            assert ext.gatewise_value(ts) is want


def test_circuit_table_roundtrip():
    table = (0, 1, 1, 1)
    circ = synthesize(table, 2)
    assert circuit_table(circ) == table


def test_gatewise_vs_semantic_divergence_is_real():
    """The two value routes genuinely differ on determination-despite-
    undetermined-inputs tables; both machines track their own route."""
    maj = ternary_extend(synthesize(table_of(lambda a, b, c: (a + b + c) >= 2, 3), 3))
    ts = (T1, T1, THALF)
    assert maj.value(ts) is T1
    assert maj.gatewise_value(ts) is THALF


def test_truth_table_line_format():
    from weihrauchlab.ternary import parse_table_line
    table, arity = parse_table_line("0110\n")
    assert table == (0, 1, 1, 0) and arity == 2
    table2, arity2 = parse_table_line("1 0")
    assert table2 == (1, 0) and arity2 == 1
    with pytest.raises(Exception):
        parse_table_line("011")
    circ = synthesize(*parse_table_line("0110"))
    assert [circ.eval_bool(b) for b in itertools.product((0, 1), repeat=2)] \
        == [0, 1, 1, 0]


def _nand_replay(u, v):
    """The NAND word by definition: replay the alternating reveal order
    stage by stage until the case split resolves."""
    a, b = len(u), len(v)
    for t in range(1, a + b + 1):
        av, bv = min((t + 1) // 2, a), min(t // 2, b)
        k = next((i for i in range(av) if u[i] != 0), None)
        n = next((i for i in range(bv) if v[i] != 0), None)
        odd = [j for j in (k, n) if j is not None and j % 2 == 1]
        if odd:
            pos = min(odd) + 1
        elif k is not None and n is not None:
            pos = max(k, n) + 1
        else:
            continue
        out = [0] * (pos + 1 + min(a, b))
        out[pos] = 1
        return tuple(out)
    return (0,) * min(a, b)


def test_nand_word_matches_definitional_replay():
    """The direct stage computation equals replaying the alternating
    reveal order stage by stage."""
    rng = rng_for("nand-ref")
    for _ in range(400):
        u = tuple(rng.randrange(3) if rng.random() < 0.2 else 0
                  for _ in range(rng.randrange(12)))
        v = tuple(rng.randrange(3) if rng.random() < 0.2 else 0
                  for _ in range(rng.randrange(12)))
        assert nand_word(u, v) == _nand_replay(u, v), (u, v)


def test_gatewise_network_monotone_componentwise():
    """Gate words grow unevenly inside substituted networks; outputs must
    still only extend."""
    rng = rng_for("gatewise-mono")
    tables = [tuple(rng.randrange(2) for _ in range(8)) for _ in range(4)]
    tables.append(table_of(lambda a, b, c: (a + b + c) >= 2, 3))
    for table in tables:
        mach = gatewise_realizer(synthesize(table, 3))
        for _ in range(6):
            ts = tuple(rng.choice("012") for _ in range(3))
            from weihrauchlab.spaces import T0, T1, THALF
            tv = {"0": T0, "1": T1, "2": THALF}
            name = _tuple_name(tuple(tv[c] for c in ts))
            lengths = sorted(rng.sample(range(1, 120), 10))
            assert audit_monotone(mach, name, lengths), (table, ts)


# gate-wise evaluation by wire shapes ----------------------------------------

@st.composite
def circuits(draw):
    arity = draw(st.integers(1, 3))
    gates = tuple((draw(st.integers(0, arity + g - 1)),
                   draw(st.integers(0, arity + g - 1)))
                  for g in range(draw(st.integers(0, 8))))
    return NandCircuit(arity, gates, draw(st.integers(0, arity + len(gates) - 1)))


# mostly zeros, so that the first nonzero of a row falls anywhere
SPARSE = st.sampled_from((0, 0, 0, 0, 0, 1, 2))
NAMES = st.builds(EvPeriodic, st.lists(SPARSE, max_size=12).map(tuple),
                  st.lists(SPARSE, min_size=1, max_size=3).map(tuple))
ROWS = st.builds(RowTuple, st.dictionaries(st.integers(0, 3), NAMES, max_size=3),
                 NAMES)
WORDS = st.one_of(
    st.lists(SPARSE, max_size=300).map(tuple),
    st.builds(PointView, st.one_of(
        ROWS,
        NAMES,
        ROWS.map(lambda q: LawPoint(row_fn=q.row, label="row-law")),
        ROWS.map(lambda q: LawPoint(fn=q.value_at, label="value-law")),
        st.builds(Interleave, NAMES, NAMES),
        st.builds(lambda q, r: Interleave(LawPoint(fn=q.value_at), r), NAMES, NAMES),
    ), st.integers(0, 3000)),
)


def _gatewise_fold(c, w):
    """Materialize every input row by pair addressing, then fold the NAND
    word through the gates."""
    words = []
    for i in range(c.arity):
        k, r = 0, []
        while pair_encode(i, k) < len(w):
            r.append(w[pair_encode(i, k)])
            k += 1
        words.append(tuple(r))
    for a, b in c.gates:
        words.append(_nand_replay(words[a], words[b]))
    return words[c.output]


@settings(max_examples=300, deadline=None)
@given(circuits(), WORDS)
def test_gatewise_shapes_match_the_word_fold(c, w):
    """Propagating wire shapes gives the word that folding the NAND word
    over materialized rows gives."""
    assert gatewise_realizer(c).eval(w) == _gatewise_fold(c, w)


# the realizers' rows read on demand, against window doubling ---------------

def _gatewise_window_fn(c):
    """The gatewise realizer as a function of its input window: the
    reference for its row rule."""
    def fn(w):
        rows = [RowView(w, i) for i in range(c.arity)]
        if c.output < c.arity:
            return tuple(rows[c.output])
        shapes = [shape_of(r) for r in rows]
        for a, b in c.gates:
            shapes.append(nand_shape(shapes[a], shapes[b]))
        return word_of_shape(shapes[c.output])
    return fn


def _resolution_window_fn(table, arity, floor=0):
    """The resolution realizer as a function of its input window: the
    reference for its row rule."""
    table = tuple(table)

    def settled(dets):
        ts = [THALF if d is None else d for d in dets]
        v = extension_value(table, ts)
        return v if v is not THALF else None

    def fn(w):
        L = len(w)
        pulses = []
        for i in range(arity):
            j = first_nonzero(RowView(w, i))
            if j is not None:
                pulses.append((pair_encode(i, j), i, TernaryValue(pulse_bit(j))))
        events = sorted({1} | {p + 1 for p, _, _ in pulses if p + 1 <= L})
        for stage in events:
            dets = [None] * arity
            for p, i, val in pulses:
                if p < stage:
                    dets[i] = val
            verdict = settled(dets)
            if verdict is None:
                continue
            pos = pulse_position(max(stage, floor), verdict.value)
            return pulse(pos).prefix(max(L, pos + 1))
        return (0,) * L
    return fn


def _windowed_run(fn, p, depth, fuel=DEFAULT_FUEL):
    """(output, productive) of a run of the window function fn on p: fn
    over windows of p that double from 16 up to the fuel, until one gives
    depth symbols."""
    out, width = (), 0
    while len(out) < depth:
        if width >= fuel:
            return tuple(out), False
        width = min(2 * width if width else 16, fuel)
        got = fn(PointView(p, width))
        if len(got) > len(out):
            out = got
    return tuple(out[:depth]), True


def _reference_tables():
    """All 20 arity-1 and arity-2 tables and 6 seeded arity-3 ones."""
    tables = [(t, 1) for t in all_tables(1)] + [(t, 2) for t in all_tables(2)]
    rng = rng_for("three-tables")
    return tables + [(tuple(rng.randrange(2) for _ in range(8)), 3)
                     for _ in range(6)]


def test_realizer_runs_emit_what_window_doubling_emitted():
    """run_on_point's output and productive flag, for both realizers on
    every ternary input, equal the window functions' read by doubling.
    One realizer per table serves every input and depth, so the gatewise
    one answers from its gate memo."""
    for table, arity in _reference_tables():
        ext = ternary_extend(synthesize(table, arity))
        for mach, fn in ((ext.gatewise(), _gatewise_window_fn(ext.circuit)),
                         (ext.realizer(), _resolution_window_fn(table, arity))):
            for ts in itertools.product(TERNARY, repeat=arity):
                name = _tuple_name(ts)
                for depth in (16, 64, 512):
                    out = run_on_point(mach, name, depth)
                    assert (out.output, out.productive) == \
                        _windowed_run(fn, name, depth), (mach, ts, depth)


def test_realizer_eval_is_the_window_function_on_short_words():
    """eval equals the window function on every word over {0,1,2} up to
    length 8, for identity, gate and resolution outputs and a floor."""
    cases = []
    for table, arity in (((0, 1), 1), ((1, 0), 1), ((0, 1, 1, 0), 2),
                         (table_of(lambda a, b, c: (a + b + c) >= 2, 3), 3)):
        ext = ternary_extend(synthesize(table, arity))
        cases.append((ext.gatewise(), _gatewise_window_fn(ext.circuit)))
        cases.append((ext.realizer(), _resolution_window_fn(ext.table, arity)))
    cases.append((resolution_realizer((0, 0, 0, 1), 2, floor=5),
                  _resolution_window_fn((0, 0, 0, 1), 2, floor=5)))
    words = [w for n in range(9) for w in itertools.product((0, 1, 2), repeat=n)]
    assert len(words) == 9841
    for mach, fn in cases:
        for w in words:
            assert mach.eval(w) == fn(w), (mach, w)


def test_gatewise_memo_is_the_realizers_own(monkeypatch):
    """A realizer read on every ternary input at depths 16, 64 and 512
    works out each pair of gate input shapes once, and none when read
    again; a second realizer of the same circuit shares none of the
    first's memo.  (The words it emits are compared with the window
    function, which keeps no memo, in the test above.)"""
    calls = []

    def counted(u, v):
        calls.append((u, v))
        return nand_shape(u, v)

    monkeypatch.setattr(ternary, "nand_shape", counted)
    for table, arity in _reference_tables():
        c = synthesize(table, arity)
        names = [_tuple_name(ts) for ts in itertools.product(TERNARY, repeat=arity)]

        def read(mach):
            return [run_on_point(mach, name, depth)
                    for name in names for depth in (16, 64, 512)]

        first = gatewise_realizer(c)
        calls.clear()
        got = read(first)
        worked = list(calls)
        assert len(set(worked)) == len(worked) and (worked or c.output < arity)
        calls.clear()
        assert read(first) == got and calls == []
        assert read(gatewise_realizer(c)) == got and calls == worked


def _all_half_gatewise():
    c = synthesize((0, 1, 1, 0, 1, 0, 0, 1), 3)
    return gatewise_realizer(c), _gatewise_window_fn(c), _tuple_name((THALF,) * 3)


def test_gatewise_run_reads_only_the_rows_it_needs():
    """512 output symbols of an open three-input circuit need 512 symbols
    of each row, not the 2^18-symbol window that doubling reached."""
    mach, _, name = _all_half_gatewise()
    out = run_on_point(mach, name, 512)
    assert out.productive and len(out.output) == 512
    assert out.width <= 1600


def test_gatewise_run_below_its_reads_stalls_on_a_prefix():
    mach, fn, name = _all_half_gatewise()
    reads = run_on_point(mach, name, 512).width
    want, _ = _windowed_run(fn, name, 512)
    for fuel in (reads - 1, reads // 2, 40):
        out = run_on_point(mach, name, 512, fuel=fuel)
        assert not out.productive and out.width <= fuel
        assert want[:len(out.output)] == out.output


def test_realizers_are_not_read_through_windows():
    """Over a point a realizer reads rows, not windows; over another
    machine's unbounded output it reads that output by index, and emits
    the same symbols."""
    name = _tuple_name((T1, THALF, T0))
    copy = index_machine("copy", lambda j: j)
    for mach in (gatewise_realizer(synthesize((0, 1) * 4, 3)),
                 resolution_realizer((0, 1) * 4, 3)):
        assert run_on_point(compose(mach, copy), name, 64).output == \
            run_on_point(mach, name, 64).output
