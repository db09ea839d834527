"""Brute-force oracles used only by the tests.

These enumerate all 2^m orientations or colorings directly, with no
cycle-space shortcut, so they check the package's enumeration route
independently; the reference chain recomputes whole weights instead of
local ratios.  Keep them dumb.
"""
from fractions import Fraction
from random import Random

from eightvertex.graphs import LabeledGraph
from eightvertex.states import (
    CLASS_BY_MASK,
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
