"""Kleene's strong ternary logic as computable machinery.

The NAND stream realizer implements the monotone case split over pairs of
ternary names; circuits synthesized from Boolean truth tables come with two
value-level evaluators (gate-wise Kleene evaluation and the semantic
extension by resolution enumeration) and a stream realizer for each, so
both routes can be cross-checked machine-against-table.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

from .errors import ArityCap, InvariantViolation
from .machines import Machine, RowView, first_half, row_rule_machine, second_half
from .points import (
    first_nonzero,
    pair_encode,
    pulse,
    pulse_bit,
    pulse_position,
)
from .spaces import T0, T1, THALF, TernaryValue

ARITY_CAP = 8


# ---------------------------------------------------------------------------
# truth values

def nand_value(a: TernaryValue, b: TernaryValue) -> TernaryValue:
    if a is T0 or b is T0:
        return T1
    if a is T1 and b is T1:
        return T0
    return THALF


def resolutions(t: TernaryValue):
    if t is THALF:
        return (0, 1)
    return (t.value,)


def classify(t: TernaryValue) -> frozenset:
    """L: the bits a ternary value licenses."""
    return frozenset(resolutions(t))


def lift(bits) -> TernaryValue:
    """L': collapse a set of bits back to a ternary value."""
    bits = frozenset(bits)
    if bits == frozenset({0}):
        return T0
    if bits == frozenset({1}):
        return T1
    return THALF


# ---------------------------------------------------------------------------
# circuits

@dataclass(frozen=True)
class NandCircuit:
    """Acyclic NAND network; operands 0..arity-1 are inputs, arity+i is gate i."""

    arity: int
    gates: tuple
    output: int

    def __post_init__(self):
        for gi, (a, b) in enumerate(self.gates):
            if not (0 <= a < self.arity + gi and 0 <= b < self.arity + gi):
                raise InvariantViolation(f"gate {gi} references a later node")
        if not (0 <= self.output < self.arity + len(self.gates)):
            raise InvariantViolation("dangling output reference")

    def eval_bool(self, bits: Sequence) -> int:
        vals = list(bits)
        for a, b in self.gates:
            vals.append(0 if (vals[a] == 1 and vals[b] == 1) else 1)
        return vals[self.output]

    def eval_kleene(self, ts: Sequence) -> TernaryValue:
        vals = list(ts)
        for a, b in self.gates:
            vals.append(nand_value(vals[a], vals[b]))
        return vals[self.output]


class _Builder:
    def __init__(self, arity):
        self.arity = arity
        self.gates = []

    def gate(self, a, b):
        self.gates.append((a, b))
        return self.arity + len(self.gates) - 1

    def nots(self, a):
        return self.gate(a, a)

    def ands(self, a, b):
        g = self.gate(a, b)
        return self.gate(g, g)

    def ors(self, a, b):
        return self.gate(self.nots(a), self.nots(b))


def table_of(fn: Callable, arity: int) -> tuple:
    """Row order is binary counting on the inputs."""
    rows = []
    for bits in itertools.product((0, 1), repeat=arity):
        rows.append(1 if fn(*bits) else 0)
    return tuple(rows)


def synthesize(table: Sequence, arity: int) -> NandCircuit:
    """Disjunctive normal form over NAND; verified exhaustively."""
    if arity < 1:
        raise ArityCap("tables need at least one input")
    if arity > ARITY_CAP:
        raise ArityCap(f"arity {arity} beyond the cap {ARITY_CAP}")
    table = tuple(table)
    if len(table) != 2 ** arity:
        raise InvariantViolation(f"table needs {2 ** arity} rows")
    b = _Builder(arity)
    minterms = []
    for idx, out in enumerate(table):
        if not out:
            continue
        bits = [(idx >> (arity - 1 - j)) & 1 for j in range(arity)]
        ref = None
        for j, bit in enumerate(bits):
            lit = j if bit else b.nots(j)
            ref = lit if ref is None else b.ands(ref, lit)
        minterms.append(ref)
    if not minterms:
        taut = b.gate(0, b.nots(0))     # constant 1
        out_ref = b.nots(taut)          # constant 0
    else:
        out_ref = minterms[0]
        for m in minterms[1:]:
            out_ref = b.ors(out_ref, m)
    circuit = NandCircuit(arity, tuple(b.gates), out_ref)
    for idx, want in enumerate(table):
        bits = [(idx >> (arity - 1 - j)) & 1 for j in range(arity)]
        if circuit.eval_bool(bits) != want:
            raise InvariantViolation(f"synthesis mismatch at row {idx}")
    return circuit


def circuit_table(c: NandCircuit) -> tuple:
    return table_of(lambda *bits: c.eval_bool(bits), c.arity)


def extension_value(table: Sequence, ts: Sequence) -> TernaryValue:
    """Semantic ternary extension: image over all Boolean resolutions."""
    table = tuple(table)
    arity = len(ts)
    images = set()
    for combo in itertools.product(*[resolutions(t) for t in ts]):
        idx = 0
        for bit in combo:
            idx = 2 * idx + bit
        images.add(table[idx])
    return lift(images)


# ---------------------------------------------------------------------------
# stream realizers

def nand_shape(u: tuple, v: tuple) -> tuple:
    """The shape of nand_word's output from the shapes of its inputs.

    A word's shape is (length, index of its first nonzero or None); the
    NAND word reads nothing else of its inputs, and its own output is
    zeros with at most one 1, so its shape determines it.  Zeros are
    emitted while the verdict is open; a pulse of the correct parity is
    committed at the replay stage where the case split first resolves.
    Pair symbols are revealed alternately, so the first nonzero of u at
    index j becomes visible at stage 2j+1 and of v at stage 2j+2; the
    earliest resolving stage is computed directly.
    """
    (a, k), (b, n) = u, v
    events = []
    if k is not None and k % 2 == 1:
        events.append(2 * k + 1)
    if n is not None and n % 2 == 1:
        events.append(2 * n + 2)
    if (k is not None and k % 2 == 0 and n is not None and n % 2 == 0):
        events.append(max(2 * k + 1, 2 * n + 2))
    if not events:
        return min(a, b), None
    t = min(events)
    if t > a + b:
        # the evidence sits outside the alternating reveal window of the
        # current lengths; using it early would break monotonicity under
        # componentwise extension
        return min(a, b), None
    vis_k = k if (k is not None and 2 * k + 1 <= t) else None
    vis_n = n if (n is not None and 2 * n + 2 <= t) else None
    odd = [j for j in (vis_k, vis_n) if j is not None and j % 2 == 1]
    if odd:
        pos = min(odd) + 1          # even position: names 1
    else:
        pos = max(vis_k, vis_n) + 1  # both even: odd position names 0
    return pos + 1 + min(a, b), pos


def shape_of(w) -> tuple:
    """A word's shape: its length and the index of its first nonzero."""
    return len(w), first_nonzero(w)


def word_of_shape(shape: tuple) -> tuple:
    """The word of zeros with a 1 at its first-nonzero index, if any."""
    length, pos = shape
    if pos is None:
        return (0,) * length
    return (0,) * pos + (1,) + (0,) * (length - pos - 1)


def nand_word(u, v) -> tuple:
    """Monotone word function underlying the NAND realizer: the word of
    nand_shape's rule."""
    return word_of_shape(nand_shape(shape_of(u), shape_of(v)))


def nand_realizer() -> Machine:
    """NAND on interleaved pairs of ternary names: the rule reads its
    input's two halves.  Its output is never shorter than the shorter
    half, so n symbols need 2n input symbols."""
    def rule(w):
        return nand_word(first_half(w), second_half(w))
    return row_rule_machine("nand", rule, lambda n: 2 * n)


def gatewise_realizer(c: NandCircuit) -> Machine:
    """Substitute the NAND realizer through the circuit, row-tupled input.

    Each wire carries the shape of its word through nand_shape's rule;
    only the output word is built, and each gate's output shape is kept
    per realizer by its input shapes.  An output is never shorter than its
    shortest input row, so n symbols need every row n long."""
    gate_shapes: dict = {}   # (u, v) -> nand_shape(u, v)

    def rule(w):
        row = partial(RowView, w)
        if c.output < c.arity:
            return tuple(row(c.output))
        shapes = [shape_of(row(i)) for i in range(c.arity)]
        for a, b in c.gates:
            key = shapes[a], shapes[b]
            if key not in gate_shapes:
                gate_shapes[key] = nand_shape(*key)
            shapes.append(gate_shapes[key])
        return word_of_shape(shapes[c.output])
    return row_rule_machine(f"gatewise[{c.arity}]", rule,
                            lambda n: pair_encode(c.arity - 1, n - 1) + 1)


def resolution_realizer(table: Sequence, arity: int, floor: int = 0) -> Machine:
    """Realizer of the semantic extension: emits once every completion of
    the currently determined inputs yields the same Boolean value.  The
    pulse never lands below floor (callers use this to keep row streams
    consistent with zeros emitted before the table was committed).

    Determinations only change when an input row's pulse scrolls into
    view, so the earliest settled stage is found among those events.  On
    an input of length L the output has at least L symbols.
    """
    table = tuple(table)

    def settled(dets):
        # every completion agrees iff the all-open-as-half extension is decided
        ts = [THALF if d is None else d for d in dets]
        v = extension_value(table, ts)
        return v if v is not THALF else None

    def rule(w):
        L, row = len(w), partial(RowView, w)
        pulses = []   # (flat position, row, value), each below L
        for i in range(arity):
            j = first_nonzero(row(i))
            if j is not None:
                pulses.append((pair_encode(i, j), i, TernaryValue(pulse_bit(j))))
        for stage in sorted({1} | {p + 1 for p, _, _ in pulses}):
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

    return row_rule_machine(f"resolution[{arity}]", rule, lambda n: n)


@dataclass
class TernaryExtension:
    """Both routes from a circuit to ternary machinery."""

    circuit: NandCircuit
    table: tuple

    def value(self, ts: Sequence) -> TernaryValue:
        return extension_value(self.table, ts)

    def gatewise_value(self, ts: Sequence) -> TernaryValue:
        return self.circuit.eval_kleene(ts)

    def realizer(self) -> Machine:
        return resolution_realizer(self.table, self.circuit.arity)

    def gatewise(self) -> Machine:
        return gatewise_realizer(self.circuit)


def ternary_extend(c: NandCircuit) -> TernaryExtension:
    return TernaryExtension(c, circuit_table(c))


def parse_table_line(line: str) -> tuple:
    """Truth-table file format: one line of 2^n bits, rows in binary
    counting order on the inputs.  Returns (table, arity)."""
    text = line.strip().replace(" ", "")
    bits = tuple(int(ch) for ch in text)
    if any(b not in (0, 1) for b in bits):
        raise InvariantViolation(f"non-bit entry in table line {line!r}")
    n = len(bits).bit_length() - 1
    if 2 ** n != len(bits) or n < 1:
        raise InvariantViolation(f"table needs a power-of-two row count, got {len(bits)}")
    return bits, n
