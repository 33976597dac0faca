"""check validates each name once per witness, name object and width.

The validation status (dom(f), the K mirror on the name's first symbols,
dom(g) of the image) is kept on the witness; a later check of the same
name, at any depth, reuses it.  A name that passes validation keeps its
two value sets too, F(p) and G of the validated image, and every later
check explores those.  It keeps its label as well, F(p)'s box masks where
inclusion is tested, and one frontier of H's runs: from the first check
on, the root run that decided an inclusion, which the explorer runs
first, so that H runs once for it, and which a later check at a new depth
extends by what that depth adds; from its second check on, the explored
branches too, whose runs a deeper check fills on.  A fresh witness per
check, which validates every name again, builds its value sets again and
runs every branch afresh, is the reference.
"""

import dataclasses
import gc
import weakref

import pytest
from test_explore import LADDER

from weihrauchlab import cli, witnesses
from weihrauchlab.corpus import rng_for
from weihrauchlab import points, weakcomp
from weihrauchlab.errors import CapacityExceeded, NonRepresentable, OutOfDomain
from weihrauchlab.machines import (
    const_machine,
    identity,
    index_machine,
    row_rule_machine,
    stream_machine,
    symbol_machine,
)
from weihrauchlab.points import ONES, ZEROS, EvPeriodic
from weihrauchlab.problems import (
    BIT_ANSWERS,
    BOTH_ANSWERS,
    CoordProductSet,
    Problem,
    llpo_problem,
)
from weihrauchlab.registry import corrupted_witnesses, named_witnesses
from weihrauchlab.witnesses import (
    Witness,
    check,
    parallel_idem,
    reflexivity,
)

RUNGS = (8, 12, 16, 20)
# the registered witnesses that box inclusion decides
INCLUDED = (
    "llpo_hat_squared",
    "llpo_hat_to_compact",
    "llpo_hat_to_wkl",
    "parallel_idem_down(llpo)",
    "parallel_idem_up(llpo)",
)


def _entries(report):
    return [(e.point, e.behavior, e.status, e.coordinate, e.use, e.note)
            for e in report.entries]


def _counting_K(monkeypatch, w):
    """Count w.K.eval calls."""
    calls = []
    original = w.K.eval

    def eval_(word):
        calls.append(len(word))
        return original(word)

    monkeypatch.setattr(w.K, "eval", eval_)
    return calls


def _counting_value_sets(monkeypatch, problem):
    """Count problem.value_set calls."""
    calls = []
    original = problem.value_set

    def value_set(p):
        calls.append(p)
        return original(p)

    monkeypatch.setattr(problem, "value_set", value_set)
    return calls


@pytest.mark.parametrize("name", LADDER)
def test_ladder_on_one_witness_reports_as_a_fresh_witness_per_depth(
        monkeypatch, name):
    entry = named_witnesses()[name]
    corpus = entry.corpus(rng_for(f"cli:{name}"), entry.count)
    distinct = len({id(p) for p in corpus})
    assert distinct == len(corpus)
    shared = entry.build()
    g_sets = _counting_value_sets(monkeypatch, shared.g)
    for i, depth in enumerate(RUNGS):
        got = check(shared, corpus, depth=depth)
        want = check(entry.build(), corpus, depth=depth)
        assert _entries(got) == _entries(want), (name, depth)
        assert want.validated == distinct and want.reused == 0
        assert got.validated == (distinct if i == 0 else 0)
        assert got.reused == (distinct if i >= 1 else 0)
        assert len(g_sets) == distinct


@pytest.mark.parametrize("name", sorted(named_witnesses()))
def test_registry_on_one_witness_reports_as_a_fresh_witness_per_depth(name):
    """Depth 8, registry depth, then depth 8 again: the second and third
    checks explore the value sets that the first kept, the third at a
    smaller depth than the second."""
    entry = named_witnesses()[name]
    corpus = entry.corpus(rng_for(f"cli:{name}"), entry.count)
    shared = entry.build()
    want = {d: _entries(check(entry.build(), corpus, depth=d))
            for d in (8, entry.depth)}
    for i, depth in enumerate((8, entry.depth, 8)):
        got = check(shared, corpus, depth=depth)
        assert _entries(got) == want[depth], (name, depth)
        assert got.reused == (len(corpus) if i >= 1 else 0)


def test_K_evaluates_once_per_name_and_width(monkeypatch):
    entry = named_witnesses()["id_to_llpo_hat"]
    corpus = entry.corpus(rng_for("cli:id_to_llpo_hat"), 6)
    w = entry.build()
    calls = _counting_K(monkeypatch, w)
    first = check(w, corpus, depth=8)
    assert first.validated == len(corpus) and calls == [64] * len(corpus)
    again = check(w, corpus, depth=12)
    assert again.validated == 0 and len(calls) == len(corpus)
    narrow = check(w, corpus, depth=8, validate_width=24)
    assert narrow.validated == len(corpus)
    assert calls == [64] * len(corpus) + [24] * len(corpus)
    assert _entries(narrow) == _entries(first)


def test_a_name_held_twice_gives_two_identical_groups():
    entry = named_witnesses()["parallel_idem_up(llpo)"]
    p = entry.corpus(rng_for("cli:parallel_idem_up(llpo)"), 1)[0]
    w = entry.build()
    report = check(w, [p, p], depth=entry.depth)
    assert report.validated == 1
    got = _entries(report)
    half = len(got) // 2
    assert half > 0 and got[:half] == got[half:]
    assert got[:half] == _entries(check(entry.build(), [p], depth=entry.depth))


def test_mirror_negative_control_is_a_mismatch_at_every_depth(monkeypatch):
    up = parallel_idem(llpo_problem())[1]
    k = index_machine("rediag", up.K.src, rows=lambda p: lambda j: ZEROS)
    wrong = Witness(up.f, up.g, k, up.H, True, name="zero-rows")
    g_sets = _counting_value_sets(monkeypatch, wrong.g)
    entry = named_witnesses()["parallel_idem_up(llpo)"]
    corpus = entry.corpus(rng_for("cli:parallel_idem_up(llpo)"), entry.count)
    for depth in RUNGS:
        report = check(wrong, corpus, depth=depth)
        assert len(report.entries) == len(corpus) and report.reused == 0
        assert all(e.status == "error" and e.note == "K mirror mismatch"
                   for e in report.entries), depth
    assert g_sets == []


def test_an_image_outside_dom_g_keeps_no_value_sets(monkeypatch):
    w = Witness(llpo_problem(), llpo_problem(), const_machine(ONES, "ones"),
                identity(), True, name="to-ones")
    f_sets = _counting_value_sets(monkeypatch, w.f)
    corpus = [EvPeriodic((0, 1), (0,)), ZEROS]
    for depth in RUNGS:
        report = check(w, corpus, depth=depth)
        assert report.reused == 0
        assert [(e.status, e.note) for e in report.entries] == [
            ("fail", "K image outside dom(llpo)")] * len(corpus), depth
    assert f_sets == []


@pytest.mark.parametrize("name", sorted(corrupted_witnesses()))
def test_negative_controls_are_rejected_with_a_coordinate_at_every_depth(name):
    w, corpus_fn = corrupted_witnesses()[name]
    corpus = corpus_fn(rng_for("acc-neg:" + name), 5)
    for depth in RUNGS:
        report = check(w, corpus, depth=depth)
        assert _entries(report) == _entries(
            check(corrupted_witnesses()[name][0], corpus, depth=depth)), depth
        assert not report.passed
        assert any(e.coordinate is not None for e in report.failures()), depth


def test_a_name_outside_the_domain_raises_on_every_call(monkeypatch):
    w = reflexivity(llpo_problem())
    calls = _counting_K(monkeypatch, w)
    f_sets = _counting_value_sets(monkeypatch, w.f)
    for depth in RUNGS:
        with pytest.raises(OutOfDomain):
            check(w, [ONES], depth=depth)
    assert calls == [] and f_sets == []


def test_a_mirror_that_raises_raises_again():
    tried = []

    def mirror(p):
        tried.append(p)
        raise NonRepresentable("no finite presentation")

    w = Witness(llpo_problem(), llpo_problem(),
                dataclasses.replace(identity(), point=mirror),
                identity(), True)
    p = EvPeriodic((0, 1), (0,))
    for _ in range(2):
        with pytest.raises(NonRepresentable):
            check(w, [p], depth=8)
    assert tried == [p, p]


@pytest.mark.parametrize("name", LADDER)
def test_K_point_runs_once_per_name_over_the_ladder(name):
    entry = named_witnesses()[name]
    corpus = entry.corpus(rng_for(f"cli:{name}"), entry.count)
    w = entry.build()
    images = []
    k_point = w.k_point

    def counting(p):
        images.append(p)
        return k_point(p)

    w.k_point = counting
    for depth in RUNGS:
        check(w, corpus, depth=depth)
    assert sorted(map(id, images)) == sorted(map(id, corpus))


def test_a_value_set_that_raises_raises_again_and_keeps_nothing(monkeypatch):
    w = Witness(llpo_problem(), llpo_problem(), identity(), identity(), True,
                name="refl")
    p = EvPeriodic((0, 1), (0,))
    tried = []

    def value_set(q):
        tried.append(q)
        raise NonRepresentable("no finite presentation")

    monkeypatch.setattr(w.g, "value_set", value_set)
    for _ in range(2):
        with pytest.raises(NonRepresentable):
            check(w, [p], depth=8)
        assert w._validated == {}
    assert len(tried) == 2


def test_suite_full_leaves_no_witness_alive(monkeypatch, capsys):
    """`suite full` builds one witness per entry and drops it after its
    check, so the value sets a witness keeps live for one check only."""
    built = []

    def recording(entry):
        def build():
            w = entry.build()
            built.append(weakref.ref(w))
            return w
        return dataclasses.replace(entry, build=build)

    def entries():
        return {name: recording(entry)
                for name, entry in named_witnesses().items()}

    monkeypatch.setattr(cli, "named_witnesses", entries)
    assert cli.main(["suite", "full"]) == 0
    capsys.readouterr()
    gc.collect()
    assert len(built) == len(named_witnesses())
    assert [ref for ref in built if ref() is not None] == []


@pytest.mark.parametrize("name", INCLUDED)
def test_inclusion_over_rising_and_falling_depths_reports_as_a_fresh_witness(
        name):
    """The kept masks and canonical run serve every depth, deeper or
    shallower than the checks before."""
    entry = named_witnesses()[name]
    corpus = entry.corpus(rng_for(f"cli:{name}"), entry.count)
    shared = entry.build()
    included = 0
    for depth in (8, 20, 4, 16, 12, 20):
        got = _entries(check(shared, corpus, depth=depth))
        assert got == _entries(check(entry.build(), corpus, depth=depth)), depth
        included += sum(e[-1] == "inclusion" for e in got)
    assert included > 0


def _refusing_at_13():
    """A strong copying witness whose F refuses bit 1 at coordinate 13
    only, where G is free: inclusion holds below depth 14 and fails
    from there."""
    zero = BIT_ANSWERS[0]
    f = Problem("refuse13", lambda p: True, lambda p: CoordProductSet(
        lambda i: zero if i == 13 else BOTH_ANSWERS))
    g = Problem("free3and13", lambda p: True, lambda p: CoordProductSet(
        lambda i: BOTH_ANSWERS if i in (3, 13) else zero))
    return Witness(f, g, identity(), identity(), True, name="refuse13")


def test_a_refusal_past_the_first_depth_fails_on_the_kept_witness():
    corpus = [ZEROS, EvPeriodic((0, 0, 1), (0,))]
    w = _refusing_at_13()
    first = check(w, corpus, depth=8)
    assert first.passed
    assert [e.note for e in first.entries] == ["inclusion"] * len(corpus)
    again = check(w, corpus, depth=16)
    want = check(_refusing_at_13(), corpus, depth=16)
    assert _entries(again) == _entries(want)
    assert {e.coordinate for e in again.failures()} == {13}
    assert len(again.failures()) == 2 * len(corpus)     # bit 3 either way


def test_a_shallower_inclusion_after_a_refusal_reads_the_kept_root():
    """Inclusion at 8 keeps the root run; 16 refuses, explores and keeps
    the root filled on; 12 then decides inclusion from the root's kept
    symbols, as a fresh witness does, and 20 explores from the kept runs."""
    corpus = [ZEROS, EvPeriodic((0, 0, 1), (0,))]
    w = _refusing_at_13()
    notes = []
    for depth in (8, 16, 12, 20, 4):
        got = check(w, corpus, depth=depth)
        assert _entries(got) == _entries(check(_refusing_at_13(), corpus,
                                               depth=depth)), depth
        notes.append({e.note for e in got.entries})
    assert notes == [{"inclusion"}, {""}, {"inclusion"}, {""}, {"inclusion"}]


def _flipping(at, free):
    """id : anything <=sW free, answered by an H that claims the identity
    law but flips output symbol at (copies every symbol when at is None)."""
    h = symbol_machine(f"flip{at}",
                       lambda w, j: 1 - w[j] if j == at else w[j],
                       lambda j: j + 1)
    return _strong(dataclasses.replace(h, src=lambda j: j), free)


def test_a_run_that_leaves_its_law_past_the_first_depth_is_explored():
    """H claims the identity law but flips output symbol 13: its kept
    canonical run copies to depth 8, and at depth 16 on the same witness
    the new symbols refute the law, so the behaviors are explored."""
    def build():
        return _flipping(13, {3})

    w = build()
    assert [e.note for e in check(w, [ZEROS], depth=8).entries] == ["inclusion"]
    again = check(w, [ZEROS], depth=16)
    assert _entries(again) == _entries(check(build(), [ZEROS], depth=16))
    assert again.passed and [e.use for e in again.entries] == [(3,), (3,)]


def test_the_root_runs_H_once(monkeypatch):
    """The inclusion test's run of H is the explorer's root: where the
    flip at 13 refutes the law at depth 16, H runs for the root and for
    the one branch that sets coordinate 3, not once more for inclusion."""
    w = _flipping(13, {3})
    views = []
    view = w.H.view

    def counting(v):
        views.append(v)
        return view(v)

    monkeypatch.setattr(w.H, "view", counting)
    report = check(w, [ZEROS], depth=16)
    assert [e.use for e in report.entries] == [(3,), (3,)]
    assert len(views) == 2


@pytest.mark.parametrize("at,depths", [
    (None, (16, 20)),
    (3, (16,)), (3, (20,)), (15, (16,)), (15, (20,)),
    (15, (8, 16)),
])
def test_the_root_reads_uncapped_and_explores_capped(at, depths):
    """G free at every coordinate: the root reads depth free coordinates,
    past the bound of 12, so the law is decided without the cap; where the
    flip refutes it below the depth, the exploration that goes on from the
    root raises as a fresh capped run does, also after an inclusion at a
    smaller depth kept the root."""
    w = _flipping(at, None)
    for depth in depths:
        got = _outcome(w, [ZEROS], depth)
        assert got == _outcome(_flipping(at, None), [ZEROS], depth), depth
        if at is None or at >= depth:
            assert [e[-1] for e in got] == ["inclusion"], depth
        else:
            assert got == ("capacity", f"a run reads 13 free coordinates "
                           f"below depth {depth}, beyond the behavior bound 4096")


def _stop5():
    """H claims the identity law but emits five symbols only, and G is
    free at coordinate 1."""
    stop5 = dataclasses.replace(
        stream_machine("stop5", lambda w: (w[i] for i in range(5))),
        src=lambda j: j)
    return _strong(stop5, {1})


def test_a_canonical_run_that_stalls_decides_as_a_fresh_run_at_each_depth():
    """Inclusion holds to depth 5, and past it every depth explores and
    stalls."""
    w = _stop5()
    notes = []
    for depth in (4, 8, 5, 12, 3):
        got = check(w, [ZEROS], depth=depth)
        assert _entries(got) == _entries(check(_stop5(), [ZEROS], depth=depth))
        notes.append({(e.status, e.note.split()[0] if e.note else "")
                      for e in got.entries})
    assert notes == [{("pass", "inclusion")}, {("stall", "only")},
                     {("pass", "inclusion")}, {("stall", "only")},
                     {("pass", "inclusion")}]


def test_an_inclusion_or_a_first_check_resumes_no_branch():
    """Report.resumed counts only runs filled on from a frontier an
    earlier check kept: the root an inclusion kept at 4 resumes at 8, and
    both branches at 12, while the inclusions between them and a first
    check, which explores from its own root, resume none."""
    assert check(_flipping(3, None), [ZEROS], depth=8).resumed == 0
    assert check(_flipping(13, {3}), [ZEROS], depth=16).resumed == 0
    w = _stop5()
    assert [check(w, [ZEROS], depth=depth).resumed
            for depth in (4, 8, 5, 12, 3)] == [0, 1, 0, 2, 0]


@pytest.mark.parametrize("name", INCLUDED)
def test_an_inclusion_witness_resumes_no_branch_on_the_ladder(name):
    entry = named_witnesses()[name]
    corpus = entry.corpus(rng_for(f"cli:{name}"), entry.count)
    w = entry.build()
    assert [check(w, corpus, depth=depth).resumed
            for depth in RUNGS + RUNGS[::-1]] == [0] * 2 * len(RUNGS)


def test_a_label_is_formatted_once_per_name_over_the_ladder(monkeypatch):
    entry = named_witnesses()["llpo_hat_squared"]
    corpus = entry.corpus(rng_for("cli:llpo_hat_squared"), entry.count)
    labelled = []
    point_str = witnesses.point_str

    def counting(p):
        labelled.append(p)
        return point_str(p)

    monkeypatch.setattr(witnesses, "point_str", counting)
    w = entry.build()
    reports = [check(w, corpus, depth=depth) for depth in RUNGS]
    assert sorted(map(id, labelled)) == sorted(map(id, corpus))
    assert all([e.point for e in r.entries] == [e.point for e in reports[0].entries]
               for r in reports)



# resuming explored branches across depths -----------------------------------

# rising, mixed and repeating depth sequences checked on one witness
SEQUENCES = ((8, 12, 16, 20), (8, 20, 12, 16, 24), (4, 8, 5, 12, 3, 16))


def _outcome(w, corpus, depth, **kwargs):
    """A check's entries, or the error it raised."""
    try:
        return _entries(check(w, corpus, depth=depth, **kwargs))
    except CapacityExceeded as exc:
        return "capacity", str(exc)


def _sequences_report_as_fresh_witnesses(build, corpus, **kwargs):
    for seq in SEQUENCES:
        shared = build()
        for depth in seq:
            got = _outcome(shared, corpus, depth, **kwargs)
            assert got == _outcome(build(), corpus, depth, **kwargs), (seq, depth)


@pytest.mark.parametrize("name", sorted(named_witnesses()))
def test_depth_sequences_on_one_witness_report_as_fresh_witnesses(name):
    entry = named_witnesses()[name]
    corpus = entry.corpus(rng_for(f"cli:{name}"), entry.count)
    _sequences_report_as_fresh_witnesses(entry.build, corpus)


@pytest.mark.parametrize("name", sorted(corrupted_witnesses()))
def test_depth_sequences_on_a_negative_control_report_as_fresh_ones(name):
    corpus = corrupted_witnesses()[name][1](rng_for("acc-neg:" + name), 5)
    _sequences_report_as_fresh_witnesses(
        lambda: corrupted_witnesses()[name][0], corpus)


def test_depth_sequences_on_a_weak_composition_report_as_fresh_ones():
    entry = named_witnesses()["parallel_extensive(llpo)"]
    corpus = entry.corpus(rng_for("weak_compose"), 3)
    _sequences_report_as_fresh_witnesses(
        lambda: weakcomp.weak_compose(entry.build(), entry.build()), corpus,
        validate_width=24)


def test_a_rising_ladder_resumes_every_branch_of_the_depth_before():
    entry = named_witnesses()["wkl_to_llpo_hat"]
    corpus = entry.corpus(rng_for("cli:wkl_to_llpo_hat"), entry.count)
    w = entry.build()
    reports = [check(w, corpus, depth=depth) for depth in RUNGS]
    assert [r.resumed for r in reports] == [0, 0, 200, 200]
    assert [len(r.entries) for r in reports[1:3]] == [200, 200]
    # a check not above the kept depth runs afresh and keeps the frontier
    again = check(w, corpus, depth=16)
    assert again.resumed == 0
    assert _entries(again) == _entries(reports[2])
    assert check(w, corpus, depth=24).resumed == 200


def _free_product(free):
    """A problem that allows both bits at the coordinates in free (every
    coordinate when free is None) and 0 elsewhere."""
    zero = BIT_ANSWERS[0]
    return Problem("free", lambda p: True, lambda p: CoordProductSet(
        lambda i: BOTH_ANSWERS if free is None or i in free else zero))


def _strong(h, free=None):
    """id : anything <=sW free, answered by h."""
    anything = _free_product(None)
    return Witness(anything, _free_product(free), identity(), h, True,
                   name=h.name)


def _block_first(pulled=None):
    """Symbol 0 reads coordinates 0-15; symbol j > 0 copies coordinate j.
    Each symbol pulled is appended to pulled, when given."""
    pulled = [] if pulled is None else pulled

    def symbols(w):
        pulled.append(0)
        yield sum(w[i] for i in range(16)) % 2
        j = 1
        while True:
            pulled.append(j)
            yield w[j]
            j += 1

    return _strong(stream_machine("block-first", symbols))


@pytest.mark.parametrize("build,depths", [
    # the kept runs read 10 free coordinates and raise reading on
    (lambda: _strong(dataclasses.replace(identity(), src=None)),
     (8, 10, 13, 12, 14)),
    # the kept root run has read 16 already: it raises as it resumes
    (_block_first, (1, 2, 14, 12, 14)),
])
def test_a_resumed_depth_past_the_bound_raises_as_a_fresh_witness(build, depths):
    """A raising check drops the frontier: the next check runs afresh and
    keeps a new one, from which the last check resumes, and raises."""
    w = build()
    want = [_outcome(build(), [ZEROS], depth) for depth in depths]
    got = [_outcome(w, [ZEROS], depth) for depth in depths]
    assert got == want
    assert got[2] == ("capacity", f"a run reads 13 free coordinates below "
                      f"depth {depths[2]}, beyond the behavior bound 4096")
    w = build()
    for depth in depths[:2]:
        check(w, [ZEROS], depth=depth)
    (name,) = w._validated.values()
    assert name.frontier.depth == depths[1]
    with pytest.raises(CapacityExceeded):
        check(w, [ZEROS], depth=depths[2])
    assert name.frontier is None
    assert check(w, [ZEROS], depth=depths[3]).resumed == 0
    assert name.frontier.depth == depths[3]


def test_a_kept_run_past_the_bound_raises_as_it_resumes():
    """The kept root run read coordinates 0-15 for its first symbol: at
    depth 14 it is past the bound before it reads on, so the check raises
    before any run pulls a symbol."""
    pulled = []
    w = _block_first(pulled)
    for depth in (1, 2):
        check(w, [ZEROS], depth=depth)
    before = len(pulled)
    with pytest.raises(CapacityExceeded, match="below depth 14"):
        check(w, [ZEROS], depth=14)
    assert len(pulled) == before


def test_a_rule_machine_H_runs_afresh_at_every_depth():
    """A rule reads its prefix from the end: run afresh at 12 it reads
    coordinate 9 before 5, filled on from depth 8 it would read 5 first."""
    def backwards(w):
        return tuple(reversed([w[i] for i in reversed(range(len(w)))]))

    def build():
        return _strong(row_rule_machine("backwards", backwards), {1, 5, 9, 14})

    w = build()
    uses = {}
    for depth in (4, 8, 12, 16, 10, 20):
        report = check(w, [ZEROS], depth=depth)
        assert _entries(report) == _entries(check(build(), [ZEROS], depth=depth))
        assert report.resumed == 0
        uses[depth] = {e.use for e in report.entries}
    (name,) = w._validated.values()
    assert name.frontier.branches == {}
    assert uses[12] == {(9, 5, 1)}


def test_a_stalled_branch_stalls_at_the_same_symbol_when_resumed():
    """H copies coordinates 1 and 3, then stops where coordinate 3 is 1."""
    def symbols(w):
        yield w[1]
        yield w[3]
        if w[3]:
            return
        j = 2
        while True:
            yield w[j]
            j += 1

    def build():
        return _strong(stream_machine("stop-at-3", symbols), {1, 3, 6, 11})

    w = build()
    for depth in (4, 8, 12, 16):
        report = check(w, [ZEROS], depth=depth)
        assert _entries(report) == _entries(check(build(), [ZEROS], depth=depth))
    assert report.resumed > 0
    stalls = [e for e in report.entries if e.status == "stall"]
    assert stalls and {e.note for e in stalls} == {"only 2 symbols"}


@pytest.mark.parametrize("name", sorted(named_witnesses()))
def test_a_first_check_keeps_no_explored_runs(name):
    """Only an inclusion's root run is kept: an inclusion witness's names
    keep a frontier that holds the root branch alone, every other name
    keeps no frontier."""
    entry = named_witnesses()[name]
    w = entry.build()
    check(w, entry.corpus(rng_for(f"cli:{name}"), entry.count),
          depth=entry.depth)
    assert w._validated
    for n in w._validated.values():
        if name in INCLUDED:
            assert list(n.frontier.branches) == [frozenset()]
        else:
            assert n.frontier is None


def test_the_zero_rows_of_an_image_are_one_point_with_one_census(monkeypatch):
    entry = named_witnesses()["wkl_to_llpo_hat"]
    corpus = entry.corpus(rng_for("cli:wkl_to_llpo_hat"), entry.count)
    w = entry.build()
    rows = [w.k_point(p).law_row(n) for p in corpus for n in range(64)]
    zero = [r for r in rows if r == ZEROS]
    assert zero and all(r is ZEROS for r in zero)
    counted = []
    census = points._nonzero_census

    def counting(p):
        counted.append(p)
        return census(p)

    monkeypatch.setattr(points, "_nonzero_census", counting)
    object.__setattr__(ZEROS, "_facts", None)   # forget what earlier tests asked
    for depth in RUNGS:
        check(w, corpus, depth=depth)
    assert [p for p in counted if p == ZEROS] == [ZEROS]
