"""The witness registry: every named construction, the derived lattice and
parallelization families, corpus builders sized for depth-16 checking, and
the deliberately corrupted negative controls."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import corpus as gen
from .machines import (
    Machine,
    compose,
    const_machine,
    diag,
    inject,
    pair_machine,
    proj1,
    proj2,
    symbol_machine,
    tag_case,
)
from .points import ZEROS, EvPeriodic, Interleave, RowTuple
from .problems import (
    compose_problems,
    id_problem,
    llpo_hat_problem,
    llpo_problem,
    lpo_problem,
    product_problem,
    sum_problem,
)
from .medvedev import MassProblem, embed_forward, set_ops_correspondence
from .spaces import FinTree, TreeChar
from .weakcomp import compact_choice_witnesses
from .witnesses import (
    Witness,
    compose_witness,
    cylindrify,
    glb_witnesses,
    hat_is_cylinder,
    id_to_c,
    id_to_llpo_hat,
    llpo_hat_squared,
    llpo_real_to_llpo,
    llpo_to_llpo_real,
    llpo_to_lpo,
    parallel_absorb,
    parallel_extensive,
    parallel_idem,
    parallel_product,
    parallel_sum,
    parallelize_witness,
    product_witness,
    reflexivity,
    strengthen_on_cylinder,
    sum_idem,
    sum_witness,
    uncylindrify,
)
from .wkl import llpo_hat_to_wkl, wkl_round_trip, wkl_to_llpo_hat


@dataclass
class Entry:
    build: Callable            # () -> Witness
    corpus: Callable           # (rng, n) -> list of names
    depth: int = 16
    count: int = 25


def _fixture_mass():
    a = MassProblem([EvPeriodic((), (0,)), EvPeriodic((1,), (0,))], "A")
    b = MassProblem([EvPeriodic((), (1,)), EvPeriodic((0, 1), (1,))], "B")
    return a, b


def _pairs(a, b):
    """A corpus of pairs, each of a point of a and a point of b."""
    return lambda rng, n: gen.pair_points(rng, a, b, n)


def _pair(a, b):
    """A point generator drawing one pair of a point of a and one of b."""
    return lambda rng: Interleave(a(rng), b(rng))


def _llpo_forced(rng, n):
    return gen.llpo_points(rng, n, allow_free=False)


def _compact_backward(rng, n):
    return [gen.compact_backward_input(rng) for _ in range(n)]


def named_witnesses() -> dict:
    """Name -> Entry for every registered witness family."""
    entries = {}

    entries["refl(lpo)"] = Entry(lambda: reflexivity(lpo_problem()),
                                 gen.any_points)
    entries["refl(llpo)"] = Entry(lambda: reflexivity(llpo_problem()),
                                  gen.llpo_points)
    entries["llpo_to_lpo"] = Entry(llpo_to_lpo, gen.llpo_points)
    entries["id_to_c"] = Entry(id_to_c, gen.any_points)
    entries["id_to_llpo_hat"] = Entry(id_to_llpo_hat, gen.any_points)
    entries["llpo_hat_squared"] = Entry(
        lambda: llpo_hat_squared(
            compose_problems(llpo_hat_problem(), llpo_hat_problem())),
        gen.squared_inputs)
    entries["llpo_to_llpo_real"] = Entry(llpo_to_llpo_real, gen.llpo_points)
    entries["llpo_real_to_llpo"] = Entry(llpo_real_to_llpo, gen.dyadic_names)
    entries["wkl_to_llpo_hat"] = Entry(wkl_to_llpo_hat, gen.tree_names)
    entries["llpo_hat_to_wkl"] = Entry(llpo_hat_to_wkl, gen.llpo_hat_inputs)
    entries["wkl_round_trip"] = Entry(wkl_round_trip, gen.llpo_hat_inputs,
                                      depth=8, count=6)
    entries["compact_to_llpo_hat"] = Entry(
        lambda: compact_choice_witnesses()[0], gen.clopen_names)
    entries["llpo_hat_to_compact"] = Entry(
        lambda: compact_choice_witnesses()[1], _compact_backward)

    # composition / transitivity
    entries["llpo_real_to_lpo"] = Entry(
        lambda: compose_witness(llpo_real_to_llpo(), llpo_to_lpo()),
        gen.dyadic_names)

    # lattice laws: sums
    entries["sum_idem_fwd(lpo)"] = Entry(
        lambda: sum_idem(lpo_problem())[0], gen.any_points)
    entries["sum_idem_bwd(lpo)"] = Entry(
        lambda: sum_idem(lpo_problem())[1],
        _pairs(gen.any_point, gen.any_point))
    entries["glb_left(lpo,llpo)"] = Entry(
        lambda: glb_witnesses(lpo_problem(), llpo_problem())[0],
        _pairs(gen.any_point, gen.llpo_point))
    entries["glb_right(lpo,llpo)"] = Entry(
        lambda: glb_witnesses(lpo_problem(), llpo_problem())[1],
        _pairs(gen.any_point, gen.llpo_point))
    entries["sum_mono(llpo_to_lpo)"] = Entry(
        lambda: sum_witness(llpo_to_lpo(), llpo_to_lpo()),
        _pairs(gen.llpo_point, gen.llpo_point))
    entries["sum_comm(lpo,llpo)"] = Entry(
        _sum_comm, _pairs(gen.any_point, gen.llpo_point))
    entries["sum_comm_rev(llpo,lpo)"] = Entry(
        lambda: _sum_comm(reverse=True),
        _pairs(gen.llpo_point, gen.any_point))
    entries["sum_assoc(lpo)"] = Entry(
        _sum_assoc, _pairs(_pair(gen.any_point, gen.any_point), gen.any_point))
    entries["sum_assoc_rev(lpo)"] = Entry(
        lambda: _sum_assoc(reverse=True),
        _pairs(gen.any_point, _pair(gen.any_point, gen.any_point)))

    # lattice laws: products
    entries["prod_mono(llpo_to_lpo)"] = Entry(
        lambda: product_witness(llpo_to_lpo(), llpo_to_lpo()),
        _pairs(gen.llpo_point, gen.llpo_point))
    entries["prod_comm(lpo,llpo)"] = Entry(
        _prod_comm, _pairs(gen.any_point, gen.llpo_point))
    entries["prod_comm_rev(llpo,lpo)"] = Entry(
        lambda: _prod_comm(reverse=True),
        _pairs(gen.llpo_point, gen.any_point))
    entries["prod_assoc(lpo)"] = Entry(
        _prod_assoc, _pairs(_pair(gen.any_point, gen.any_point), gen.any_point))
    entries["prod_assoc_rev(lpo)"] = Entry(
        lambda: _prod_assoc(reverse=True),
        _pairs(gen.any_point, _pair(gen.any_point, gen.any_point)))
    entries["prod_id_intro(lpo)"] = Entry(_prod_id_intro, gen.any_points)
    entries["prod_id_elim(lpo)"] = Entry(
        _prod_id_elim, _pairs(gen.any_point, gen.any_point))

    # cylinders
    entries["cyl(llpo_to_lpo)"] = Entry(
        lambda: cylindrify(llpo_to_lpo()),
        _pairs(gen.any_point, gen.llpo_point))
    entries["uncyl(llpo_to_lpo)"] = Entry(
        lambda: uncylindrify(cylindrify(llpo_to_lpo()),
                             llpo_problem(), lpo_problem()),
        gen.llpo_points)
    entries["cylinder(llpo_hat)"] = Entry(
        _llpo_hat_cylinder, _pairs(gen.any_point, gen.llpo_hat_input))
    entries["strong_on_cylinder"] = Entry(
        lambda: strengthen_on_cylinder(parallel_extensive(llpo_problem()),
                                       _llpo_hat_cylinder()),
        _llpo_forced)

    # parallelization family
    entries["parallel_extensive(lpo)"] = Entry(
        lambda: parallel_extensive(lpo_problem()), gen.any_points)
    entries["parallel_extensive(llpo)"] = Entry(
        lambda: parallel_extensive(llpo_problem()), _llpo_forced)
    entries["parallelize(llpo_to_lpo)"] = Entry(
        lambda: parallelize_witness(llpo_to_lpo()), gen.llpo_hat_inputs)
    entries["parallel_idem_down(llpo)"] = Entry(
        lambda: parallel_idem(llpo_problem())[0], _hat_of_hat)
    entries["parallel_idem_up(llpo)"] = Entry(
        lambda: parallel_idem(llpo_problem())[1], gen.llpo_hat_inputs)
    entries["parallel_absorb(llpo)"] = Entry(
        lambda: parallel_absorb(llpo_problem())[0],
        _pairs(gen.llpo_hat_input, gen.llpo_hat_input))
    entries["parallel_split(llpo)"] = Entry(
        lambda: parallel_absorb(llpo_problem())[1], gen.llpo_hat_inputs)
    entries["parallel_product(lpo,llpo)"] = Entry(
        lambda: parallel_product(lpo_problem(), llpo_problem())[0],
        _pairhat_inputs)
    entries["parallel_product_rev(lpo,llpo)"] = Entry(
        lambda: parallel_product(lpo_problem(), llpo_problem())[1],
        # the first slot feeds the zero-searching function: rows must extract
        _pairs(gen.rowable_point, gen.llpo_hat_input))
    entries["parallel_sum(llpo,llpo)"] = Entry(
        lambda: parallel_sum(llpo_problem(), llpo_problem()),
        _sumhat_inputs)

    # Medvedev set operations
    entries["medvedev_sum_to_prod"] = Entry(
        lambda: _med_ops()["sum_to_prod"], gen.any_points)
    entries["medvedev_prod_to_sum"] = Entry(
        lambda: _med_ops()["prod_to_sum"],
        _pairs(gen.any_point, gen.any_point))
    entries["medvedev_tensor_to_sum"] = Entry(
        lambda: _med_ops()["tensor_to_sum"], gen.any_points)
    entries["medvedev_sum_to_tensor"] = Entry(
        lambda: _med_ops()["sum_to_tensor"],
        _pairs(gen.any_point, gen.any_point))
    entries["medvedev_embed"] = Entry(_med_embed, gen.any_points)

    return entries


def _llpo_hat_cylinder():
    return hat_is_cylinder(llpo_problem(), id_to_llpo_hat())


def _med_ops():
    return set_ops_correspondence(*_fixture_mass())


def _med_embed():
    a, b = _fixture_mass()
    f = const_machine(EvPeriodic((), (0,)), "to-A")
    return embed_forward(f, a, b)


def _hat_of_hat(rng, n):
    return [RowTuple({0: gen.llpo_hat_input(rng), 2: gen.llpo_hat_input(rng)},
                     gen.llpo_hat_input(rng)) for _ in range(n)]


def _pairhat_inputs(rng, n):
    out = []
    for _ in range(n):
        rows = {k: Interleave(gen.any_point(rng),
                              gen.llpo_point(rng, allow_free=False))
                for k in range(rng.randrange(1, 3))}
        default = Interleave(gen.ev_periodic(rng),
                             EvPeriodic((0, 2), (0,)))
        out.append(RowTuple(rows, default))
    return out


def _sumhat_inputs(rng, n):
    def hat(r):
        return gen.llpo_hat_input(r, max_free=0)
    return [RowTuple(
        {0: Interleave(hat(rng), hat(rng))},
        Interleave(hat(rng), hat(rng)))
        for _ in range(n)]


def _swap() -> Machine:
    """Exchange the two slots of a pair."""
    return pair_machine(proj2(), proj1())


def _renesting() -> tuple:
    """(to_right, to_left): re-nest a triple ((a,b),c) <-> (a,(b,c))."""
    to_right = pair_machine(compose(proj1(), proj1()),
                            pair_machine(compose(proj2(), proj1()), proj2()))
    to_left = pair_machine(pair_machine(proj1(), compose(proj1(), proj2())),
                           compose(proj2(), proj2()))
    return to_right, to_left


def _sum_comm(reverse=False):
    """f+g reduces to g+f by swapping slots and re-tagging."""
    f, g = lpo_problem(), llpo_problem()
    if reverse:
        f, g = g, f
    return Witness(sum_problem(f, g), sum_problem(g, f), _swap(),
                   tag_case(inject(1), inject(0)), True, name="sum_comm")


def _sum_assoc(reverse=False):
    """(f+f)+f reduces to f+(f+f) by re-nesting, and back."""
    f = lpo_problem()
    left = sum_problem(sum_problem(f, f), f)
    right = sum_problem(f, sum_problem(f, f))
    to_right, to_left = _renesting()

    # re-tag: right-nested n.(m.)r <-> left-nested (n.m.)r
    h_fwd = tag_case(compose(inject(0), inject(0)),
                     tag_case(compose(inject(0), inject(1)), inject(1)))
    h_bwd = tag_case(tag_case(inject(0), compose(inject(1), inject(0))),
                     compose(inject(1), inject(1)))
    if reverse:
        return Witness(right, left, to_left, h_bwd, True, name="sum_assoc_rev")
    return Witness(left, right, to_right, h_fwd, True, name="sum_assoc")


def _prod_comm(reverse=False):
    f, g = lpo_problem(), llpo_problem()
    if reverse:
        f, g = g, f
    return Witness(product_problem(f, g), product_problem(g, f), _swap(),
                   _swap(), True, name="prod_comm")


def _prod_assoc(reverse=False):
    f = lpo_problem()
    left = product_problem(product_problem(f, f), f)
    right = product_problem(f, product_problem(f, f))
    to_right, to_left = _renesting()
    if reverse:
        return Witness(right, left, to_left, to_right, True,
                       name="prod_assoc_rev")
    return Witness(left, right, to_right, to_left, True, name="prod_assoc")


def _prod_id_intro():
    """f reduces to f x id: duplicate, answer from the first slot."""
    f = lpo_problem()
    fi = product_problem(f, id_problem())
    return Witness(f, fi, diag(), proj1(), True, name="prod_id_intro")


def _prod_id_elim():
    """f x id reduces to f: query the first slot, copy the second through."""
    f = lpo_problem()
    fi = product_problem(f, id_problem())
    h = pair_machine(proj2(), compose(proj2(), proj1()))
    return Witness(fi, f, proj1(), h, False, name="prod_id_elim")


# ---------------------------------------------------------------------------
# negative controls

def _one_path_tree() -> TreeChar:
    """The tree whose only path is 0^ω.  A seeded covering tree can be
    closed under the bitwise flip, and there the flipped extractor is
    right; here it answers 1^ω, which leaves the tree at symbol 0."""
    return TreeChar(FinTree(3, [(0,) * n for n in range(4)], (ZEROS,)))


def corrupted_witnesses() -> dict:
    """Deliberately broken witnesses; every one must fail with a coordinate."""
    out = {}

    w = llpo_to_lpo()
    copy_h = symbol_machine("copy-not-negate",
                            lambda wd, j: wd[0] if j == 0 else 0,
                            lambda j: j + 1)
    out["llpo_to_lpo_swapped"] = (
        Witness(w.f, w.g, w.K, copy_h, True, name="broken-llpo_to_lpo"),
        lambda rng, n: [EvPeriodic((5,), (0,))] * max(1, n // 5),
    )

    base = wkl_to_llpo_hat()
    flip = compose(symbol_machine(
        "flip-path", lambda wd, j: 1 - wd[j] if wd[j] in (0, 1) else wd[j],
        lambda j: j + 1), base.H)
    out["wkl_flipped_path"] = (
        Witness(base.f, base.g, base.K, flip, True, name="broken-wkl"),
        lambda rng, n: gen.tree_names(rng, max(1, n // 5)) + [_one_path_tree()],
    )

    bad_half = Witness(llpo_to_lpo().f, llpo_to_lpo().g, llpo_to_lpo().K,
                       copy_h, True, name="bad-half")
    broken_prod = product_witness(llpo_to_lpo(), bad_half)
    out["product_with_broken_half"] = (
        Witness(broken_prod.f, broken_prod.g, broken_prod.K, broken_prod.H,
                broken_prod.strong, name="broken-product"),
        lambda rng, n: [Interleave(EvPeriodic((5,), (0,)),
                                   EvPeriodic((0, 5), (0,)))] * max(1, n // 5),
    )

    a, b = _fixture_mass()
    wrong = const_machine(b.members[0], "to-B-not-A")
    out["medvedev_wrong_target"] = (
        embed_forward(wrong, a, b),
        lambda rng, n: gen.any_points(rng, max(1, n // 5)),
    )

    return out
