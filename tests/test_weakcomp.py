import itertools
import types
from functools import partial

import pytest
from references import (
    audit_monotone,
    emit_width_per_row,
    mirror_row_windowed,
    replay_per_row,
    truth_table_per_row,
)

from weihrauchlab.corpus import (
    clopen_names,
    free_heavy_rowtuple,
    rng_for,
    squared_inputs,
)
from weihrauchlab.errors import FuelExhausted, NonRepresentable
from weihrauchlab.machines import (
    Machine,
    RowView,
    compose,
    identity,
    pair_machine,
    proj1,
    proj2,
    run_on_point,
    shift_l,
)
from weihrauchlab.points import (
    ZEROS,
    EvPeriodic,
    RowTuple,
    first_nonzero,
    pulse,
    row_lengths,
)
from weihrauchlab.problems import llpo_hat_value
from weihrauchlab.spaces import T1, ClopenCompact, encode_clopen, encode_ternary
from weihrauchlab import weakcomp
from weihrauchlab.weakcomp import (
    DynamicSwap,
    DynamicSwapMirror,
    compact_choice_witnesses,
    compact_image,
    emit_width,
    extract_tables,
    llpo_swap,
    modulus,
    weak_compose,
)
from weihrauchlab.witnesses import (
    check,
    parallel_extensive,
    reflexivity,
    Witness,
)
from weihrauchlab.problems import llpo_hat_problem, llpo_problem
from weihrauchlab.registry import named_witnesses
from weihrauchlab.ternary import synthesize, ternary_extend


def test_compact_image_examples():
    free = RowTuple({}, EvPeriodic((), (0,)))
    assert compact_image(free).excluded == frozenset()
    forced2 = RowTuple({2: EvPeriodic((5,), (0,))}, EvPeriodic((), (0,)))
    k = compact_image(forced2)
    # coordinate 2 forced to one: the length-three cylinders ending in zero
    assert k.excluded == frozenset({(a, b, 0) for a in (0, 1) for b in (0, 1)})
    forcing_default = RowTuple({}, EvPeriodic((0, 5), (0,)))
    with pytest.raises(NonRepresentable):
        compact_image(forcing_default)


def test_compact_image_matches_hat_membership():
    rng = rng_for("ci")
    count = 0
    for _ in range(8):
        p = free_heavy_rowtuple(rng)
        k = compact_image(p)
        vs = llpo_hat_value(p)
        for _ in range(25):
            w = tuple(rng.randrange(2) for _ in range(8))
            inside = all(w[i] in vs.bits(i) for i in range(8))
            assert k.admits(w) == inside
            count += 1
    assert count == 200


def test_modulus_identity():
    k = ClopenCompact(set())
    mod = modulus(identity(), k, 6)
    for n in range(1, 7):
        assert mod(n) == n


def test_modulus_two_for_one():
    half = Machine("half", lambda w: tuple(w[2 * i] for i in range(len(w) // 2)))
    mod = modulus(half, ClopenCompact(set()), 4)
    for n in range(1, 5):
        assert mod(n) == 2 * n


def test_modulus_empty_compact_degenerate():
    k = ClopenCompact({(0,), (1,)})
    mod = modulus(identity(), k, 4)
    assert mod.degenerate
    assert mod(3) == 0


def test_extract_tables_identity_and_flip():
    k = ClopenCompact(set())
    mod = modulus(identity(), k, 3)
    fam = extract_tables(identity(), k, mod, 3)
    assert fam.table(0) == (0, 1)
    flip = Machine("flip", lambda w: tuple(1 - s for s in w))
    fam2 = extract_tables(flip, k, modulus(flip, k, 2), 2)
    assert fam2.table(0) == (1, 0)


def test_extract_tables_majority_machine():
    def fn(w):
        if len(w) < 3:
            return ()
        return (1 if w[0] + w[1] + w[2] >= 2 else 0,) + (0,) * (len(w) - 3)
    maj = Machine("maj", fn)
    k = ClopenCompact(set())
    mod = modulus(maj, k, 1)
    fam = extract_tables(maj, k, mod, 1)
    arity = fam.arity(0)
    table = fam.table(0)
    for idx, bits in enumerate(itertools.product((0, 1), repeat=arity)):
        want = 1 if sum(bits[:3]) >= 2 else 0
        assert table[idx] == want


def swap_fixture_points(rng, n):
    return [free_heavy_rowtuple(rng, forced=rng.randrange(3)) for _ in range(n)]


def test_llpo_swap_identity():
    rng = rng_for("swap-id")
    for p in swap_fixture_points(rng, 4):
        res = llpo_swap(identity(), p, 3)
        assert res.sides_equal(), (res.left, res.right)


def test_llpo_swap_coordinate_swap():
    swap2 = pair_machine(proj2(), proj1())
    rng = rng_for("swap-swap")
    for p in swap_fixture_points(rng, 4):
        res = llpo_swap(swap2, p, 2)
        assert res.sides_equal()
        want = {(b, a) for a in llpo_hat_value(p).bits(0)
                for b in llpo_hat_value(p).bits(1)}
        assert res.left == want


def test_llpo_swap_nand_of_two_bits():
    def fn(w):
        if len(w) < 2:
            return ()
        return (0 if (w[0] == 1 and w[1] == 1) else 1,) + (0,) * (len(w) - 2)
    nand2 = Machine("nand2", fn)
    p = RowTuple({}, EvPeriodic((), (0,)))   # two free coordinates and more
    res = llpo_swap(nand2, p, 1)
    assert res.left == {(0,), (1,)}
    assert res.sides_equal()


def test_llpo_swap_g_machine_consistent():
    """The assembled machine's rows decode to the right-side classes."""
    swap2 = pair_machine(proj2(), proj1())
    p = RowTuple({0: EvPeriodic((5,), (0,))}, EvPeriodic((), (0,)))
    res = llpo_swap(swap2, p, 4)
    out = run_on_point(res.g_machine, p, 40)
    from weihrauchlab.points import pair_encode
    # row one of the image carries the forced-one original first coordinate:
    # its name pulses at an even in-row position
    row1 = [out.output[pair_encode(1, k)]
            for k in range(6) if pair_encode(1, k) < len(out.output)]
    assert any(s != 0 for s in row1[0::2])
    assert all(s == 0 for s in row1[1::2])


def _replay(swap: DynamicSwap, symbol_at, length: int, max_rows: int) -> dict:
    """The first max_rows commits of the swap's replay, by row."""
    return dict(enumerate(itertools.islice(swap.replay(symbol_at, length),
                                           max_rows)))


def test_dynamic_swap_commits_the_llpo_swap_tables():
    """On a pulse-free name the replay sees no exclusion, so each row it
    commits has the width and the table that llpo_swap computes."""
    swap2 = pair_machine(proj2(), proj1())
    for p in (RowTuple({}, EvPeriodic((), (0,))), EvPeriodic((), (0,))):
        for m in (identity(), shift_l(), swap2):
            res = llpo_swap(m, p, 4)
            commits = _replay(DynamicSwap(m), p.value_at, 64, 4)
            assert sorted(commits) == [0, 1, 2, 3], m.name
            for n, (_, width, table) in commits.items():
                assert width == res.tables.arity(n), (m.name, n)
                assert table == res.tables.table(n), (m.name, n)


def test_single_valued_collapse_heuristic():
    """Fully forced inputs: one observable member, no branch divergence."""
    rng = rng_for("collapse")
    p = RowTuple({0: EvPeriodic((5,), (0,)), 1: EvPeriodic((0, 5), (0,))},
                 EvPeriodic((), (0,)))
    res = llpo_swap(identity(), p, 2)
    assert len(res.left) == 1 and res.sides_equal()


def test_compact_choice_witness_pair_and_round_trip():
    fwd, bwd = compact_choice_witnesses()
    rng = rng_for("cc")
    assert check(fwd, clopen_names(rng, 8), depth=12).passed
    assert check(bwd, [free_heavy_rowtuple(rng) for _ in range(8)],
                 depth=10).passed
    # the round trip composes through the choice problem and back
    from weihrauchlab.witnesses import compose_witness
    rt = compose_witness(bwd, fwd)
    rep = check(rt, [free_heavy_rowtuple(rng) for _ in range(4)], depth=6)
    assert rep.passed, rep.render()


def test_compact_choice_full_space_any_point():
    fwd, _ = compact_choice_witnesses()
    full = encode_clopen(ClopenCompact(set()))
    rep = check(fwd, [full], depth=6)
    assert rep.passed


def test_compact_choice_selected_point_respects_exclusion():
    fwd, _ = compact_choice_witnesses()
    name = encode_clopen(ClopenCompact({(1,)}))
    kp = fwd.k_point(name)
    vs = llpo_hat_value(kp)
    for r in vs.behaviors(8):
        out = run_on_point(fwd.H, r, 8)
        assert out.output[0] == 0


def test_weak_compose_identity_reductions():
    w = weak_compose(reflexivity(llpo_hat_problem()),
                     reflexivity(llpo_hat_problem()))
    rng = rng_for("wc-id")
    rep = check(w, squared_inputs(rng, 2), depth=4, validate_width=24)
    assert rep.passed, rep.render()


def test_weak_compose_llpo_chain(monkeypatch):
    """The chain passes, and its swap searches each (exclusions, row,
    start width) triple once over every replay of machine and mirror."""
    searched = []

    def counted(m, compact, n, start, k_cap):
        searched.append((compact.excluded, n, start))
        return emit_width(m, compact, n, start, k_cap)

    monkeypatch.setattr(weakcomp, "emit_width", counted)
    wf = parallel_extensive(llpo_problem())
    wg = parallel_extensive(llpo_problem())
    w = weak_compose(wf, wg)
    corpus = [EvPeriodic((), (0,)), EvPeriodic((0, 3), (0,)),
              EvPeriodic((2,), (0,))]
    rep = check(w, corpus, depth=4, validate_width=24)
    assert rep.passed, rep.render()
    assert searched and len(set(searched)) == len(searched)


def _lazy_first(w):
    """Every symbol once the first coordinate is 1, else a quarter of them:
    a swap commits its later rows only after exclusions force that."""
    n = len(w) if len(w) and w[0] == 1 else len(w) // 4
    return tuple(w[:n])


def _dynamic_swap_fixtures():
    """The replay fixtures: (middle machine, names)."""
    rng = rng_for("dyn-replay")
    # pulses at 0, 5 and 14 force coordinate 0 to 1, at 20 to 0
    names = [EvPeriodic((0,) * i + (1,), (0,)) for i in (0, 5, 14, 20)]
    names += [free_heavy_rowtuple(rng, forced=rng.randrange(4)) for _ in range(4)]
    w = parallel_extensive(llpo_problem())
    return [(Machine("lazy-first", _lazy_first), names),
            (compose(w.K, w.H), names)]


def test_dynamic_swap_replays_reuse_searches_without_changing_commits():
    """A swap that has replayed other prefixes commits what a fresh swap
    commits, at rising lengths and row budgets."""
    stages = {}
    for mid, names in _dynamic_swap_fixtures():
        shared = DynamicSwap(mid)
        for p in names:
            for length in (8, 32, 96):
                for max_rows in (2, 8, 24):
                    got = _replay(shared, p.value_at, length, max_rows)
                    want = _replay(DynamicSwap(mid), p.value_at, length,
                                   max_rows)
                    assert got == want, (mid.name, p, length, max_rows)
                    stages.setdefault(mid.name, set()).update(
                        ell for ell, _, _ in got.values())
    # lazy-first commits rows at the stages where exclusions arrive
    assert stages["lazy-first"] == {1, 6, 15}


def test_shared_search_commits_as_the_per_row_search():
    """Drains that share a compact and the middle machine's outputs commit
    the widths and tables of a fresh search per row, on the replay
    fixtures and on the parallel_extensive(llpo) chain's swap."""
    cases = [(mid, p, length, max_rows)
             for mid, names in _dynamic_swap_fixtures() for p in names
             for length in (8, 32, 96) for max_rows in (2, 8, 24)]
    wf = parallel_extensive(llpo_problem())
    chain = DynamicSwap(compose(wf.K, wf.H))
    corpus = [EvPeriodic((), (0,)), EvPeriodic((0, 3), (0,)),
              EvPeriodic((2,), (0,))]
    entry = named_witnesses()["parallel_extensive(llpo)"]
    corpus += entry.corpus(rng_for("per-row:parallel_extensive(llpo)"), 4)
    for p in corpus:
        q1 = wf.k_point(p)
        length = DynamicSwapMirror(chain, q1).length
        cases += [(chain.mid, q1, length, max_rows) for max_rows in (8, 32)]
    for mid, p, length, max_rows in cases:
        swap = DynamicSwap(mid)
        got = _replay(swap, p.value_at, length, max_rows)
        assert got == replay_per_row(swap, p.value_at, length, max_rows), \
            (mid.name, p, length, max_rows)


def test_a_stage_computes_each_admitted_words_output_once(monkeypatch):
    """Each stage of a replay builds one compact, and computes the middle
    machine's output on each word that compact admits at most once, by
    eval or by view."""
    log = []

    class Logged(ClopenCompact):
        def __init__(self, excluded):
            super().__init__(excluded)
            log.append(self)

    monkeypatch.setattr(weakcomp, "ClopenCompact", Logged)
    stages = 0
    for base, names in _dynamic_swap_fixtures():
        def logged(read, w):
            log.append(w)
            return read(w)

        mid = Machine("logged", partial(logged, base.eval),
                      view=partial(logged, base.view))
        for p in names:
            log.clear()
            _replay(DynamicSwap(mid), p.value_at, 96, 24)
            assert log and isinstance(log[0], Logged)
            for i, compact in enumerate(log):
                if not isinstance(compact, Logged):
                    continue
                end = next((j for j in range(i + 1, len(log))
                            if isinstance(log[j], Logged)), len(log))
                words = log[i + 1:end]
                assert len(set(words)) == len(words), (base.name, p)
                assert all(compact.admits(w) for w in words)
                stages += 1
    assert stages > 16


def test_llpo_swap_tables_as_the_per_row_search():
    """modulus and extract_tables over one kept_outputs machine give the
    per-row search's widths and tables."""
    swap2 = pair_machine(proj2(), proj1())
    rng = rng_for("swap-per-row")
    for m, depth in ((identity(), 3), (swap2, 2), (shift_l(), 3),
                     (Machine("lazy-first", _lazy_first), 2)):
        for p in swap_fixture_points(rng, 4):
            res = llpo_swap(m, p, depth)
            compact = compact_image(p)
            widths = [1]
            for n in range(depth):
                widths.append(emit_width_per_row(m, compact, n, widths[-1], 16))
            assert res.mod.values == widths, (m.name, p)
            for n in range(depth):
                arity = max(1, widths[n + 1])
                assert res.tables.entries[n] == (
                    arity, truth_table_per_row(m, compact, n, arity))


def _chain_names():
    """The parallel_extensive(llpo) witness and the names of the bench's
    weak_compose group (seed 1)."""
    entry = named_witnesses()["parallel_extensive(llpo)"]
    return (parallel_extensive(llpo_problem()),
            entry.corpus(rng_for("1:weak_compose"), 3))


def test_the_swap_machine_searches_only_the_rows_it_emits(monkeypatch):
    """On the chain's K images the swap machine searches exactly the rows
    it emits: each row's commit is read as emit_rows asks for the row."""
    searched = set()

    def counted(m, compact, n, start, k_cap):
        searched.add(n)
        return emit_width(m, compact, n, start, k_cap)

    monkeypatch.setattr(weakcomp, "emit_width", counted)
    pe, names = _chain_names()
    mid = compose(pe.K, pe.H)
    for p in names:
        searched.clear()
        out = DynamicSwap(mid).machine().eval(pe.K.eval(p.prefix(24)))
        assert len(out) == 324
        assert searched == set(range(len(row_lengths(len(out))))) == set(range(25))


def test_machine_and_mirror_compute_each_middle_output_once():
    """The swap machine at width 24 and then the mirror's rows 0-39 share
    one kept middle machine: each admitted word's middle output is
    computed once in all, by eval or by view."""
    log = []

    def logged(read, w):
        log.append(w)
        return read(w)

    pe, names = _chain_names()
    base = compose(pe.K, pe.H)
    mid = Machine("logged", partial(logged, base.eval),
                  view=partial(logged, base.view))
    for p in names:
        log.clear()
        swap = DynamicSwap(mid)
        swap.machine().eval(pe.K.eval(p.prefix(24)))
        by_machine = len(log)
        mirror = DynamicSwapMirror(swap, pe.k_point(p))
        for n in range(40):
            mirror.row(n)
        assert len(log) > by_machine > 0
        assert len(set(log)) == len(log), p


def test_mirror_rows_as_the_windowed_realizer():
    """The mirror's rows, placed from the census of the name's rows, are
    the rows a resolution realizer run over a window gave, on the chain's
    names and the replay fixtures wherever the window holds the pulse; a
    row commits in the mirror as in the per-row replay."""
    pe, names = _chain_names()
    chain = DynamicSwap(compose(pe.K, pe.H))
    corpus = [EvPeriodic((), (0,)), EvPeriodic((0, 3), (0,)),
              EvPeriodic((2,), (0,))] + names
    cases = [(chain, pe.k_point(p)) for p in corpus]
    cases += [(DynamicSwap(mid), p)
              for mid, fixture in _dynamic_swap_fixtures() for p in fixture]
    cases.append(_late_commit())
    compared = 0
    for swap, q1 in cases:
        mirror = DynamicSwapMirror(swap, q1)
        commits = replay_per_row(swap, q1.value_at, mirror.length, 64)
        for n, commit in commits.items():
            assert mirror.commit(n) == commit, (swap.mid.name, q1, n)
            try:
                want = mirror_row_windowed(commit, q1)
            except FuelExhausted:
                continue
            assert mirror.row(n) == want, (swap.mid.name, q1, n)
            compared += 1
        if len(commits) < 64:
            with pytest.raises(FuelExhausted):
                mirror.row(len(commits))
    assert compared > 400


def _late_commit():
    """lazy-first's swap and a name on which its row 2 commits at stage 15
    with a table decided from stage 1 on."""
    return (DynamicSwap(Machine("lazy-first", _lazy_first)),
            RowTuple({0: pulse(4), 2: pulse(1)}, ZEROS))


def test_a_late_commit_lifts_the_pulse_in_machine_and_mirror():
    """The commit stage is the floor of a row's pulse: row 2 pulses at 15,
    not 1, in the mirror and in the machine, which stays monotone."""
    swap, name = _late_commit()
    assert DynamicSwapMirror(swap, name).pulse(2) == 15
    m = swap.machine()
    assert first_nonzero(RowView(m.eval(name.prefix(256)), 2)) == 15
    assert audit_monotone(m, name, range(40))


def test_a_pulse_past_the_window_is_placed_from_the_census():
    """Row 0 of the identity's swap commits at stage 1 with width 1; its
    input pulse at 1,030 stands at <0, 1030> = 531,995, past the window,
    so its own pulse stands at the next stage, 531,996."""
    q1 = RowTuple({0: pulse(1030)}, ZEROS)
    mirror = DynamicSwapMirror(DynamicSwap(identity()), q1)
    assert mirror.commit(0) == (1, 1, (0, 1))
    with pytest.raises(FuelExhausted):
        mirror_row_windowed(mirror.commit(0), q1)
    assert mirror.pulse(0) == 531996
    assert mirror.row(0) == pulse(531996)


def test_the_weak_ternary_pieces_evaluate_plain_functions(monkeypatch):
    """Every machine evaluated by a ternary extension's two realizers,
    llpo_swap's G and a weak_compose check at width 24 has a plain function
    as its fn: a trace names each evaluation by its fn's code."""
    evaluated = []
    original = Machine.eval

    def recorded(m, w):
        evaluated.append(m.fn)
        return original(m, w)

    monkeypatch.setattr(Machine, "eval", recorded)
    ext = ternary_extend(synthesize((0, 1, 1, 1), 2))
    name = RowTuple({1: encode_ternary(T1)}, ZEROS)
    for m in (ext.realizer(), ext.gatewise()):
        m.eval(name.prefix(16))
        run_on_point(m, name, 16)
    p = RowTuple({1: EvPeriodic((0, 5), (0,))}, ZEROS)
    llpo_swap(identity(), p, 3).g_machine.eval(p.prefix(16))
    pe, names = _chain_names()
    rep = check(weak_compose(pe, pe), names, depth=4, validate_width=24)
    assert rep.passed, rep.render()
    assert all(isinstance(fn, types.FunctionType) for fn in evaluated)
    assert {"resolution_realizer.<locals>.rule", "gatewise_realizer.<locals>.rule",
            "swap_g_machine.<locals>.rule"} <= {fn.__qualname__ for fn in evaluated}


def test_weak_compose_negative_control():
    from weihrauchlab.machines import symbol_machine
    wf = parallel_extensive(llpo_problem())
    wg = parallel_extensive(llpo_problem())
    bad_h = symbol_machine(
        "flip",
        lambda wd, j: (1 - wd[0]) if (j == 0 and wd[0] in (0, 1))
        else (0 if j else wd[0]),
        lambda j: 1 if j == 0 else j + 1)
    wg_bad = Witness(wg.f, wg.g, wg.K, bad_h, True, name="bad")
    w = weak_compose(wf, wg_bad)
    rep = check(w, [EvPeriodic((2,), (0,))], depth=4, validate_width=24)
    assert not rep.passed
    assert any(e.coordinate is not None for e in rep.failures())


def test_extract_tables_arity_cap():
    from weihrauchlab.errors import ArityCap
    def nine_bits(w):
        if len(w) < 9:
            return ()
        return (w[0],) + (0,) * (len(w) - 9)
    slow = Machine("nine", nine_bits)
    k = ClopenCompact(set())
    mod = modulus(slow, k, 1, k_cap=12)
    with pytest.raises(ArityCap):
        extract_tables(slow, k, mod, 1)


def test_modulus_stall_raises_fuel_exhausted():
    from weihrauchlab.errors import FuelExhausted
    silent = Machine("silent", lambda w: ())
    with pytest.raises(FuelExhausted):
        modulus(silent, ClopenCompact(set()), 1, k_cap=6)
