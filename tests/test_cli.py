from pathlib import Path

import pytest

from weihrauchlab.cli import main
from weihrauchlab.corpus import rng_for, thin_tree, mixed_clopen, any_points
from weihrauchlab.literals import (
    format_clopen,
    format_dyadic,
    format_mass,
    format_point,
    format_tree,
    parse_clopen,
    parse_dyadic,
    parse_mass,
    parse_point,
    parse_tree,
)
from weihrauchlab.medvedev import MassProblem
from weihrauchlab.points import EvPeriodic, Interleave, RowTuple
from weihrauchlab.spaces import Dyadic


def test_point_literal_roundtrip():
    pts = [
        EvPeriodic((1,), (0,)),
        EvPeriodic((), (0, 1)),
        Interleave(EvPeriodic((), (0,)), EvPeriodic((2,), (1,))),
        RowTuple({2: EvPeriodic((), (7,))}, EvPeriodic((0, 1), (0,))),
    ]
    for p in pts:
        assert parse_point(format_point(p)) == p
    rng = rng_for("literal")
    for p in any_points(rng, 50):
        assert parse_point(format_point(p)) == p


def test_point_literal_examples():
    assert parse_point("evp(;0)") == EvPeriodic((), (0,))
    assert parse_point("evp(1 1 0;1)") == EvPeriodic((1, 1, 0), (1,))
    p = parse_point("pair(evp(;0),evp(;1))")
    assert isinstance(p, Interleave)
    r = parse_point("rows(default=evp(;0);2:evp(5;0))")
    assert isinstance(r, RowTuple) and 2 in r.rows


def test_tree_literal_roundtrip():
    rng = rng_for("tree-lit")
    for _ in range(20):
        t = thin_tree(rng)
        again = parse_tree(format_tree(t))
        assert again.explicit_nodes == t.explicit_nodes
        assert again.explicit_depth == t.explicit_depth
        assert tuple(again.live_paths) == tuple(t.live_paths)


def test_clopen_and_dyadic_and_mass_roundtrip():
    rng = rng_for("cl-lit")
    for _ in range(20):
        k = mixed_clopen(rng)
        assert parse_clopen(format_clopen(k)) == k
    for x in (Dyadic(0, 0), Dyadic(-3, 2), Dyadic(5, 1)):
        assert parse_dyadic(format_dyadic(x)) == x
    m = MassProblem([EvPeriodic((), (0,)), EvPeriodic((1,), (0,))])
    again = parse_mass(format_mass(m))
    assert tuple(again.members) == tuple(m.members)


def test_cli_eval_llpo_free_point(capsys):
    code = main(["eval", "llpo", "evp(;0)"])
    out = capsys.readouterr().out
    assert code == 0
    assert "{0,1}" in out


def test_cli_eval_lpo(capsys):
    assert main(["eval", "lpo", "evp(;1)"]) == 0
    assert "{1}" in capsys.readouterr().out


def test_cli_eval_refuses_the_compact_that_excludes_everything(capsys):
    """Code 1 names the empty word, whose exclusion leaves no point."""
    assert main(["eval", "compact_choice", "evp(1;0)"]) == 2
    captured = capsys.readouterr()
    assert "name outside the domain" in captured.err + captured.out
    assert "Traceback" not in captured.err + captured.out


def test_cli_eval_lpo_hat_prints_the_product(capsys):
    assert main(["eval", "lpo_hat", "rows(default=evp(;1);3:evp(;0))"]) == 0
    assert capsys.readouterr().out == (
        "lpo_hat(rows(default=evp(;1);3:evp(;0))) = "
        "point evp(1 1 1 0;1)\n")


def test_cli_eval_hat_of_eventually_periodic_name(capsys):
    """A constant answer tail from the stabilized rows on is exact; a free
    tail is not."""
    for problem, literal, want in (
            ("lpo_hat", "evp(;1)", "point evp(;1)"),
            ("lpo_hat", "evp(0;1)", "point evp(0;1)"),
            ("llpo_hat", "evp(;0)", "product[" + " ".join(["01"] * 12) + " ...]")):
        assert main(["eval", problem, literal]) == 0
        assert capsys.readouterr().out == f"{problem}({literal}) = {want}\n"


def test_cli_eval_prints_a_periodic_hat_answer_exactly(capsys):
    """Rows of evp(0 1 1;1 1 0) answer 0 0, then repeat 1 0 0: the answer
    is one eventually periodic point, not a product."""
    assert main(["eval", "lpo_hat", "evp(0 1 1;1 1 0)"]) == 0
    assert capsys.readouterr().out == (
        "lpo_hat(evp(0 1 1;1 1 0)) = point evp(0 0;1 0 0)\n")


def test_cli_suite_capacity_stays_local(monkeypatch, capsys):
    """A witness that hits capacity is reported on its own line; the later
    witnesses and the negative controls still run, and the exit code is 3."""
    from weihrauchlab import cli, registry
    from weihrauchlab.errors import CapacityExceeded

    def refuse():
        raise CapacityExceeded("refused for the test")

    def patched_registry():
        entries = registry.named_witnesses()
        entries["compact_to_llpo_hat"].build = refuse
        return entries

    monkeypatch.setattr(cli, "named_witnesses", patched_registry)
    code = main(["suite", "full", "--depth", "4"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 3
    at = lines.index("compact_to_llpo_hat: CAPACITY (refused for the test)")
    later = [line.split(":")[0] for line in lines[at + 1:]]
    assert "wkl_to_llpo_hat" in later and "uncyl(llpo_to_lpo)" in later
    negatives = [line for line in lines if line.startswith("negative ")]
    assert len(negatives) == len(registry.corrupted_witnesses())
    assert lines[-1].startswith("suite: ") and lines[-1].endswith("1 at capacity")


def test_cli_suite_refuses_an_unknown_corpus(capsys):
    """`suite` runs only the full corpus: any other word is a usage error
    that runs nothing."""
    assert main(["suite", "bogus"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "invalid choice: 'bogus'" in captured.err


def test_cli_eval_llpo_real(capsys):
    assert main(["eval", "llpo_real", "dyadic(-1,1)"]) == 0
    assert "{0}" in capsys.readouterr().out


def test_cli_check_pass(capsys):
    code = main(["check", "llpo_to_lpo", "--depth", "8", "--count", "6"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS (verified to depth 8)" in out


def test_cli_list(capsys):
    assert main(["list-witnesses"]) == 0
    out = capsys.readouterr().out
    assert "llpo_to_lpo" in out and "wkl_to_llpo_hat" in out


def test_cli_parse_error_exit_code(capsys):
    assert main(["eval", "llpo", "evp(;)"]) == 2
    assert main(["eval", "nonsense", "evp(;0)"]) == 2


def test_cli_out_of_domain(capsys):
    assert main(["eval", "llpo", "evp(1 1;0)"]) == 2


def test_cli_swap(capsys):
    code = main(["swap", "--machine", "identity",
                 "--point", "rows(default=evp(;0);0:evp(5;0))",
                 "--depth", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "agree" in out


def test_cli_swap_on_a_pair_literal(capsys):
    """A pair literal names an llpo_hat instance by its row normal form."""
    code = main(["swap", "--machine", "swap2",
                 "--point", "pair(evp(1;0),evp(;0))"])
    out = capsys.readouterr().out
    assert code == 0
    assert "sides agree" in out


def test_cli_swap_capacity_exit(capsys):
    code = main(["swap", "--machine", "identity",
                 "--point", "rows(default=evp(0 5;0);0:evp(;0))",
                 "--depth", "2"])
    assert code == 3   # forcing tail: infinite negative information


def test_cli_limit_run(capsys):
    code = main(["limit", "run", "--inputs", "evp(;1)", "evp(;0)"])
    out = capsys.readouterr().out
    assert code == 0
    assert "answer = (1, 0)" in out


def test_cli_limit_run_counts_equal_indices_once(capsys):
    assert main(["limit", "run", "--inputs", "evp(0;1)", "evp(0;1)"]) == 0
    assert capsys.readouterr().out == "answer = (0, 0), mind changes = 1\n"


def test_cli_limit_adversary(capsys):
    assert main(["limit", "adversary", "--k", "2"]) == 0
    assert "forced 2 mind changes" in capsys.readouterr().out


@pytest.mark.parametrize("argv, option", [
    (["check", "llpo_to_lpo", "--depth", "-1"], "--depth: -1 is negative"),
    (["check", "llpo_to_lpo", "--count", "-1"], "--count: -1 is negative"),
    (["derive", "parallelize", "llpo_to_lpo", "--depth", "-1"],
     "--depth: -1 is negative"),
    (["suite", "--depth", "-2"], "--depth: -2 is negative"),
    (["medvedev", "check", "mass(evp(;0))", "mass(evp(;1))", "--depth", "-1"],
     "--depth: -1 is negative"),
    (["limit", "adversary", "--k", "0"], "--k: 0 is not positive"),
    (["limit", "adversary", "--k", "-1"], "--k: -1 is not positive"),
])
def test_cli_refuses_a_numeric_option_out_of_range(capsys, argv, option):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument {option}" in captured.err


def test_cli_wkl_solve(capsys):
    code = main(["wkl", "solve",
                 "tree(depth=1; nodes: e 0; live: evp(;0))"])
    out = capsys.readouterr().out
    assert code == 0
    assert "paths" in out


def test_cli_medvedev(capsys):
    code = main(["medvedev", "embed", "mass(evp(;0))", "mass(evp(;1))"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out
    assert "mass(evp(;0))" in out and "mass(evp(;1))" in out


def test_cli_check_with_corpus_file(tmp_path, capsys):
    f = tmp_path / "corpus.txt"
    f.write_text("evp(5;0)\nevp(0 5;0)\n# comment\nevp(;0)\n")
    code = main(["check", "llpo_to_lpo", "--depth", "8",
                 "--corpus", str(f)])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS (verified to depth 8)" in out


def test_cli_derive_subcommands(capsys):
    assert main(["derive", "compose", "llpo_real_to_llpo", "llpo_to_lpo",
                 "--depth", "8", "--count", "5"]) == 0
    assert "derived" in capsys.readouterr().out
    assert main(["derive", "product", "llpo_to_lpo", "llpo_to_lpo",
                 "--depth", "8", "--count", "5"]) == 0
    assert main(["derive", "sum", "llpo_to_lpo", "llpo_to_lpo",
                 "--depth", "8", "--count", "5"]) == 0
    assert main(["derive", "parallelize", "llpo_to_lpo",
                 "--depth", "8", "--count", "5"]) == 0
    assert main(["derive", "cylindrify", "llpo_to_lpo",
                 "--depth", "8", "--count", "5"]) == 0
    capsys.readouterr()
    # a wrong number of witness names is a usage error
    assert main(["derive", "compose", "llpo_to_lpo"]) == 2
    assert main(["derive", "parallelize", "llpo_to_lpo", "llpo_to_lpo"]) == 2
    err = capsys.readouterr().err
    assert "compose takes 2" in err and "parallelize takes 1" in err


def test_cli_derive_parallelize_refuses_multi_answer_problems(capsys):
    """Parallelization is monotone, so no parallelized reduction may FAIL:
    one it cannot apply row by row is refused as an error."""
    for name in ("id_to_c", "prod_comm(lpo,llpo)"):
        assert main(["derive", "parallelize", name]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "single-answer problems" in captured.err


def test_cli_derive_parallelize_draws_rows_from_the_parent_corpus(capsys):
    """A parallelization is checked on hat names whose rows are names of
    the parent's own corpus, so a parent on real names is in its domain."""
    for name in ("llpo_real_to_llpo", "llpo_real_to_lpo"):
        assert main(["derive", "parallelize", name, "--depth", "12"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("derived hat(llpo_real_to_llpo")
        assert out.endswith("): PASS (verified to depth 12)\n")


def test_cli_derive_parallelize_real_pair_at_registry_depth(capsys):
    """The default row of each hat name is a parent name with a single
    answer, so the rows past row 2 are not free oracle coordinates and
    the check fits the behavior bound at the parents' depth."""
    for name in ("llpo_real_to_llpo", "llpo_to_llpo_real"):
        assert main(["derive", "parallelize", name]) == 0
        out = capsys.readouterr().out
        assert out == f"derived hat({name}): PASS (verified to depth 16)\n"


def test_cli_swap_g_prefixes_are_pinned(capsys):
    """G, the swapped machine, is read on demand over the point: its first
    symbols on these names are the ones its windows gave."""
    for machine, point, depth, g in (
            ("identity", "rows(default=evp(;0);0:evp(5;0))", 2, "0 0 0"),
            ("shift", "rows(default=evp(;0);0:evp(5;0);1:evp(0 1;0))", 3,
             "0 0 1 0 0 0"),
            ("swap2", "pair(evp(;0),evp(1;0))", 2, "0 0 0"),
            ("swap2", "pair(evp(0 1;0),evp(;0))", 3, "0 0 0 0 1 0")):
        code = main(["swap", "--machine", machine, "--point", point,
                     "--depth", str(depth)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == f"G(point) prefix = {g}", point


def test_cli_swap_prints_machine_evaluation(capsys):
    code = main(["swap", "--machine", "identity",
                 "--point", "rows(default=evp(;0);0:evp(5;0))",
                 "--depth", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "G(point) prefix" in out


def test_cli_check_stall_is_unverified(monkeypatch, capsys):
    """Runs that reach their fuel refute nothing: the verdict names the
    stall and the exit code is 3, as for capacity.  Here the registered
    wkl_to_llpo_hat gets an H that never emits."""
    from weihrauchlab import cli, registry
    from weihrauchlab.machines import stream_machine
    from weihrauchlab.witnesses import Witness

    def patched_registry():
        entries = registry.named_witnesses()
        entry = entries["wkl_to_llpo_hat"]
        build = entry.build

        def silent():
            w = build()
            return Witness(w.f, w.g, w.K, stream_machine("silent", lambda wd: iter(())),
                           True, name=w.name)
        entry.build = silent
        return entries

    monkeypatch.setattr(cli, "named_witnesses", patched_registry)
    code = main(["check", "wkl_to_llpo_hat", "--depth", "24"])
    out = capsys.readouterr().out
    assert code == 3
    assert out == "wkl_to_llpo_hat: UNVERIFIED (25/25 branches stall at fuel)\n"


def test_cli_check_path_extraction_deep(capsys):
    """The path extractor reads its d answer bits near coordinate 2^d on
    demand, so it passes past the depth where a finite window of the
    answer would have to outgrow the fuel."""
    for depth in (24, 32):
        code = main(["check", "wkl_to_llpo_hat", "--depth", str(depth)])
        assert capsys.readouterr().out == (
            f"wkl_to_llpo_hat: PASS (verified to depth {depth})\n")
        assert code == 0


def test_cli_check_copying_witnesses_deep(capsys):
    """A copying H is decided by box inclusion, so depth 64 passes where
    forking every oracle coordinate hits the behavior cap."""
    for name in ("llpo_hat_to_compact", "llpo_hat_squared"):
        code = main(["check", name, "--depth", "64"])
        assert capsys.readouterr().out == f"{name}: PASS (verified to depth 64)\n"
        assert code == 0


def test_suite_full_output_is_pinned(capsys):
    """`suite full` prints the recorded output and exits 0 at three seeds;
    the records under tests/data pin every verdict line."""
    data = Path(__file__).parent / "data"
    for seed, argv in (("default", []), ("3", ["--seed", "3"]),
                       ("7", ["--seed", "7"])):
        code = main(argv + ["suite", "full"])
        out = capsys.readouterr().out
        assert code == 0, seed
        assert out == (data / f"suite-full-{seed}.txt").read_text(), seed
