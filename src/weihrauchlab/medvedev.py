"""Mass problems at desk scale and their embedding into the reduction
lattice as constant multi-valued problems; a recovered translation keeps
its composite's view."""

from __future__ import annotations

from dataclasses import dataclass, replace

from .machines import (
    Machine,
    compose,
    const_machine,
    diag,
    identity,
    pair_machine,
    proj1,
    proj2,
)
from .points import Interleave, ZEROS, point_prepend
from .problems import Problem, const_problem, product_problem, sum_problem
from .witnesses import Report, Witness, as_ordinary, check


@dataclass
class MassProblem:
    """A finite set of finitely presented points (empty = the bottom object)."""

    members: tuple
    name: str = "A"

    def __post_init__(self):
        self.members = tuple(self.members)

    def problem(self) -> Problem:
        return const_problem(self.members, label=self.name)

    def __repr__(self):
        return f"mass[{self.name}]({len(self.members)})"


def medvedev_check(a: MassProblem, b: MassProblem, f: Machine,
                   depth: int) -> Report:
    """Does f carry every member of b into a, to the checked depth?  The
    check of the embedded reduction c_A <=W c_B on one name: its oracle
    behaviors are b's members, and each run of f on one must match some
    member of a and be productive."""
    return check(embed_forward(f, a, b), [ZEROS], depth)


def embed_forward(f: Machine, a: MassProblem, b: MassProblem) -> Witness:
    """From a translation machine, the reduction between the constant problems:
    ignore the input, push the oracle's member through the machine."""
    return Witness(
        a.problem(), b.problem(),
        identity(),
        compose(f, proj2()),
        False,
        name=f"embed({a.name} <= {b.name})",
    )


def embed_backward(w: Witness) -> Machine:
    """Recover the translation machine: feed a constant input through the
    outer translation alongside the member."""
    base = as_ordinary(w)
    m = compose(base.H, pair_machine(const_machine(ZEROS, "zeros"), identity()))
    return replace(m, name=f"extract({w.name})")


def set_sum(a: MassProblem, b: MassProblem) -> MassProblem:
    """Pairwise pairing of members (the lattice join carrier)."""
    return MassProblem(
        tuple(Interleave(p, q) for p in a.members for q in b.members),
        name=f"({a.name}(+){b.name})",
    )


def set_tensor(a: MassProblem, b: MassProblem) -> MassProblem:
    """Tagged union of members (the lattice meet carrier)."""
    return MassProblem(
        tuple(point_prepend(0, p) for p in a.members)
        + tuple(point_prepend(1, q) for q in b.members),
        name=f"({a.name}(x){b.name})",
    )


def set_ops_correspondence(a: MassProblem, b: MassProblem) -> dict:
    """The four tupling/tagging witnesses tying the set operations to the
    problem operations."""
    ca, cb = a.problem(), b.problem()
    c_sum = set_sum(a, b).problem()
    c_tensor = set_tensor(a, b).problem()
    prod = product_problem(ca, cb)
    summ = sum_problem(ca, cb)
    ident = identity()

    return {
        "sum_to_prod": Witness(c_sum, prod, diag(), ident, True),
        "prod_to_sum": Witness(prod, c_sum, proj1(), ident, True),
        "tensor_to_sum": Witness(c_tensor, summ, diag(), ident, True),
        "sum_to_tensor": Witness(summ, c_tensor, proj1(), ident, True),
    }
