"""Brute-force oracles used only by the tests.

These enumerate all 2^m orientations, colorings or edge assignments
directly, with no cycle-space shortcut and no frontier contraction, so
they check the package's exact routes independently; the reference chain
recomputes whole weights instead of local ratios, and the reference census
counts the Gray walk's profiles one state at a time instead of in blocks.
Keep them dumb.
"""
from collections import Counter
from fractions import Fraction
from random import Random

from eightvertex.graphs import LabeledGraph
from eightvertex.states import (
    CLASS_BY_MASK,
    DEFAULT_DIM_CAP,
    CycleKernel,
    in_masks,
    red_masks,
    reference_even_orientation,
)


def even_orientations_naive(graph: LabeledGraph):
    m = graph.edge_count
    out = []
    for state in range(1 << m):
        bits = tuple((state >> i) & 1 for i in range(m))
        if all(mask in CLASS_BY_MASK for mask in in_masks(graph, bits)):
            out.append(bits)
    return out


def even_colorings_naive(graph: LabeledGraph):
    m = graph.edge_count
    out = []
    for state in range(1 << m):
        bits = tuple((state >> i) & 1 for i in range(m))
        if all(mask in CLASS_BY_MASK for mask in red_masks(graph, bits)):
            out.append(bits)
    return out


def _profile_weight(masks, params) -> Fraction:
    w = Fraction(1)
    for mask in masks:
        w *= params[CLASS_BY_MASK[mask]]
    return w


def z8v_naive(graph: LabeledGraph, params) -> Fraction:
    p = tuple(Fraction(x) for x in params)
    total = Fraction(0)
    for bits in even_orientations_naive(graph):
        total += _profile_weight(in_masks(graph, bits), p)
    return total


def zec_naive(graph: LabeledGraph, params) -> Fraction:
    p = tuple(Fraction(x) for x in params)
    total = Fraction(0)
    for bits in even_colorings_naive(graph):
        total += _profile_weight(red_masks(graph, bits), p)
    return total


def census_per_state(graph: LabeledGraph, model: str) -> dict:
    """Class-profile counts of the kernel's full Gray walk, one Counter update per state.

    ``model`` is "8v" (start: the reference orientation) or "ec" (start:
    everything red), the starts of ``census_8v`` and ``census_ec``.
    """
    kernel = CycleKernel(graph)
    start = list(kernel.reference_masks) if model == "8v" else [0b1111] * graph.vertex_count
    return dict(Counter(map(tuple, kernel.walk(start, DEFAULT_DIM_CAP))))


def holant_naive(graph: LabeledGraph, table):
    """Sum over all 2^m edge 0/1-assignments, visited in Gray-code order.

    ``table`` is indexed by (x1, x2, x3, x4) with x1 the most significant
    bit; a value-1 edge sets its label bit at both ends.
    """
    rev = [int(f"{m:04b}"[::-1], 2) for m in range(16)]
    ends = [(e.u, 1 << (e.label_u - 1), e.v, 1 << (e.label_v - 1)) for e in graph.edges]
    masks = [0] * graph.vertex_count
    total = table[0] * 0
    for state in range(1 << graph.edge_count):
        if state:
            j = (state & -state).bit_length() - 1  # the edge this Gray step toggles
            u, bu, v, bv = ends[j]
            masks[u] ^= bu
            masks[v] ^= bv
        w = table[rev[masks[0]]]
        for mask in masks[1:]:
            if w == 0:
                break
            w = w * table[rev[mask]]
        total = total + w
    return total


def random_rationals(rng: Random, signed: bool = False, span: int = 64):
    vals = [Fraction(rng.randrange(0, span + 1), span) for _ in range(4)]
    if signed:
        vals = [v if rng.random() < 0.5 else -v for v in vals]
    return tuple(vals)


def metropolis_reference(graph: LabeledGraph, params, moves, seed: int, laziness, steps: int):
    """Plain lazy Metropolis chain from the reference orientation; yields each state.

    Flips orientation bits directly and recomputes the full Gibbs weight as
    a Fraction per proposal.  Draw order: laziness coin, move, acceptance
    coin (drawn only for a ratio below 1).
    """
    p = tuple(Fraction(x) for x in params)
    rng = Random(seed)
    bits = reference_even_orientation(graph)
    for _ in range(steps):
        if rng.random() >= laziness:
            move = moves[rng.randrange(len(moves))]
            proposed = tuple(b ^ (eid in move) for eid, b in enumerate(bits))
            ratio = _profile_weight(in_masks(graph, proposed), p) / _profile_weight(
                in_masks(graph, bits), p
            )
            if ratio >= 1 or rng.random() < ratio:
                bits = proposed
        yield bits
