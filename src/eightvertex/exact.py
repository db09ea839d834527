"""Exact partition functions by enumeration, in rational arithmetic.

This module is the ground-truth oracle for everything else, so it never
touches floating point.  The censuses follow the cycle-space kernel's
Gray walk, which reclassifies only the vertices on each flipped basis
cycle.  Signed and zero parameters are allowed throughout.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .graphs import LabeledGraph
from .states import CycleKernel

ParamVec = tuple[Fraction, Fraction, Fraction, Fraction]

DEFAULT_DIM_CAP = 30
HOLANT_EDGE_CAP = 24


def as_params(values: Sequence) -> ParamVec:
    """Coerce a 4-sequence of ints / strings / Fractions to exact rationals."""
    if len(values) != 4:
        raise ValueError("parameter vector needs exactly 4 entries")
    return tuple(Fraction(v) for v in values)  # type: ignore[return-value]


def format_rational(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class Census:
    """Counts of states per class profile (n_A, n_B, n_C, n_D).

    Evaluating the census at a parameter vector reproduces the partition
    function exactly; the counts sum to 2^(m - n + components).
    """

    vertex_count: int
    dimension: int
    counts: Mapping[tuple[int, int, int, int], int]

    def total(self) -> int:
        return sum(self.counts.values())

    def evaluate(self, params: Sequence) -> Fraction:
        a, b, c, d = as_params(params)
        acc = Fraction(0)
        for (na, nb, nc, nd), count in self.counts.items():
            acc += count * a**na * b**nb * c**nc * d**nd
        return acc


def _census(kernel: CycleKernel, start_masks: list[int], dim_cap: int) -> Census:
    counts = Counter(map(tuple, kernel.walk(start_masks, dim_cap)))
    return Census(kernel.graph.vertex_count, kernel.dimension, dict(counts))


def census_8v(graph: LabeledGraph, dim_cap: int = DEFAULT_DIM_CAP) -> Census:
    """Class census over all even orientations."""
    kernel = CycleKernel(graph)
    return _census(kernel, list(kernel.reference_masks), dim_cap)


def census_ec(graph: LabeledGraph, dim_cap: int = DEFAULT_DIM_CAP) -> Census:
    """Class census over all even colorings (start: everything red)."""
    return _census(CycleKernel(graph), [0b1111] * graph.vertex_count, dim_cap)


def z8v_exact(
    graph: LabeledGraph, params: Sequence, dim_cap: int = DEFAULT_DIM_CAP
) -> Fraction:
    """Eight-vertex partition function, exact; signs and zeros allowed."""
    return census_8v(graph, dim_cap).evaluate(params)


def zec_exact(
    graph: LabeledGraph, params: Sequence, dim_cap: int = DEFAULT_DIM_CAP
) -> Fraction:
    """Even-coloring partition function, exact; signs and zeros allowed."""
    return census_ec(graph, dim_cap).evaluate(params)


# bit-reversal of a 4-bit label mask -> (x1 x2 x3 x4) truth-table index
_REV4 = tuple(
    ((m & 1) << 3) | ((m & 2) << 1) | ((m & 4) >> 1) | ((m & 8) >> 3)
    for m in range(16)
)


def holant_exact(graph: LabeledGraph, table: Sequence, edge_cap: int = HOLANT_EDGE_CAP):
    """Sum over all 2^m edge 0/1-assignments of the per-vertex function values.

    Independent of the cycle-space shortcut, so it cross-checks the census
    route.  ``table`` has 16 entries indexed by (x1, x2, x3, x4) with x1 the
    most significant bit; entries may be any ring elements (complex,
    Fraction, int).
    """
    if len(table) != 16:
        raise ValueError("arity-4 truth table needs 16 entries")
    m = graph.edge_count
    if m > edge_cap:
        raise ValueError(f"edge count {m} exceeds enumeration cap {edge_cap}")
    n = graph.vertex_count

    ends = [
        (e.u, 1 << (e.label_u - 1), e.v, 1 << (e.label_v - 1)) for e in graph.edges
    ]
    masks = [0] * n
    rev = _REV4
    total = table[0] * 0  # zero of the entry type
    for state in range(1 << m):
        if state:
            j = (state & -state).bit_length() - 1  # Gray-code edge toggle
            u, bu, v, bv = ends[j]
            masks[u] ^= bu
            masks[v] ^= bv
        w = table[rev[masks[0]]]
        for vtx in range(1, n):
            w = w * table[rev[masks[vtx]]]
            if w == 0:
                break
        total = total + w
    return total
