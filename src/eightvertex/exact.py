"""Exact partition functions in rational arithmetic, by two independent routes.

This module is the ground-truth oracle for everything else, so it never
touches floating point; signed and zero parameters are allowed throughout.
``z8v_exact``, ``zec_exact`` and ``holant_exact`` share one frontier
(transfer-matrix) contraction along a greedy vertex order: one matmul per
vertex over the frontier's nonzero exact entries, at most 2^width of them,
so at most about 2^width * n products.  The censuses enumerate all 2^k
even states over the cycle space, independently of the contraction, which
they cross-check when evaluated at a point: they count the class profiles
of each block of states that the cycle-space kernel lists
(``states.CycleKernel.blocks``) with one ``bincount``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .graphs import LabeledGraph
from .states import CLASS16, DEFAULT_DIM_CAP, CycleKernel

ParamVec = tuple[Fraction, Fraction, Fraction, Fraction]

FRONTIER_CAP = 20


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


def _census(kernel: CycleKernel, start: Sequence[int], dim_cap: int) -> Census:
    """Count the class profiles of all 2^k states, one block of the kernel's at a time.

    Each state's profile is coded n_A + D*n_B + D^2*n_C with D = n + 1
    (n_D is the rest) and counted by ``bincount``; a bin holds at most 2^k
    states, so int64 is exact.
    """
    n = kernel.graph.vertex_count
    blocks = kernel.blocks(start, dim_cap)  # refuses k > dim_cap before any table
    D = n + 1
    place = np.array([(1, D, D * D, 0)[c] for c in CLASS16], np.intp)
    hist = np.zeros(D**3, np.int64)
    for block in blocks:
        hist += np.bincount(place[block].sum(axis=0), minlength=D**3)
    counts = {}
    for code in np.flatnonzero(hist).tolist():
        na, nb, nc = code % D, code // D % D, code // (D * D)
        counts[(na, nb, nc, n - na - nb - nc)] = int(hist[code])
    return Census(n, kernel.dimension, counts)


def census_8v(graph: LabeledGraph, dim_cap: int = DEFAULT_DIM_CAP) -> Census:
    """Class census over all even orientations."""
    kernel = CycleKernel(graph)
    return _census(kernel, kernel.reference_masks, dim_cap)


def census_ec(graph: LabeledGraph, dim_cap: int = DEFAULT_DIM_CAP) -> Census:
    """Class census over all even colorings (start: everything red)."""
    return _census(CycleKernel(graph), [0b1111] * graph.vertex_count, dim_cap)


def _frontier_plan(graph: LabeledGraph):
    """Greedy vertex order and the edges each step closes and opens; returns (steps, width).

    Next comes the unvisited vertex with the most edges into the visited
    set, ties broken by id.  A step is (vertex, closed, opened, loops): the
    (edge id, label - 1) of each edge it closes and opens, and each
    self-loop's label bits.  The width is the most edges open between steps.
    """
    n = graph.vertex_count
    into = [0] * n  # per unvisited vertex, its edges into the visited set
    visited = [False] * n
    steps, open_count, width = [], 0, 0
    for _ in range(n):
        v = max((u for u in range(n) if not visited[u]), key=lambda u: (into[u], -u))
        visited[v] = True
        closed, opened, loops = [], [], {}
        for label, (eid, slot) in enumerate(graph.half_edges[v]):
            e = graph.edges[eid]
            other = e.v if slot == 0 else e.u
            if other == v:
                loops[eid] = loops.get(eid, 0) | 1 << label
            elif visited[other]:
                closed.append((eid, label))
            else:
                into[other] += 1
                opened.append((eid, label))
        open_count += len(opened) - len(closed)
        width = max(width, open_count)
        steps.append((v, closed, opened, list(loops.values())))
    return steps, width


def _contract(graph: LabeledGraph, tables: Sequence[Sequence]):
    """Sum over all 0/1 edge assignments of the product of ``tables[v][mask_v]``.

    ``mask_v`` has bit label-1 set where the edge at that label of v has
    value 1; entries may be any ring elements, kept exact in ``object``
    arrays.  The frontier keeps its nonzero entries only, keyed by their flat
    index in an array with one axis per open edge, in the order opened.  A
    vertex's table, summed over its self-loops, maps its closed edges to its
    opened ones: one matmul on a row per value of the staying axes, then zero
    sums are dropped, so the work follows the nonzero support.  A greedy
    order wider than ``FRONTIER_CAP`` is refused before any work.
    """
    steps, width = _frontier_plan(graph)
    if width > FRONTIER_CAP:
        raise ValueError(f"frontier width {width} exceeds cap {FRONTIER_CAP}")
    keys, vals, live = np.zeros(1, np.int64), np.ones(1, dtype=object), []
    for v, closed, opened, loops in steps:
        table = np.zeros((2,) * (len(closed) + len(opened)), dtype=object)
        for mask, w in enumerate(tables[v]):
            if all(mask & pair in (0, pair) for pair in loops):
                table[tuple(mask >> label & 1 for _, label in closed + opened)] += w
        gone = [eid for eid, _ in closed]
        shut = [len(live) - 1 - live.index(eid) for eid in gone]  # their bits in a key
        col = sum((keys >> p & 1) << i for i, p in enumerate(reversed(shut)))
        for p in sorted(shut, reverse=True):  # squeeze the closed axes out
            keys = keys >> (p + 1) << p | keys & (1 << p) - 1
        rest, row = np.unique(keys, return_inverse=True)
        rows = np.zeros((len(rest), 1 << len(shut)), dtype=object)
        rows[row, col] = vals
        vals = (rows @ table.reshape(1 << len(shut), -1)).ravel()
        keys = (rest[:, None] << len(opened) | np.arange(1 << len(opened))).ravel()
        nonzero = vals != 0
        keys, vals = keys[nonzero], vals[nonzero]
        live = [eid for eid in live if eid not in gone] + [eid for eid, _ in opened]
    return vals[0] if len(vals) else 0


def _class_sum(graph: LabeledGraph, params: Sequence, twists: Sequence[int]) -> Fraction:
    """Sum over even states of the class weights, v's class read at ``mask ^ twists[v]``.

    The contraction runs on the weights times the lcm L of their
    denominators, in Python ints; the sum is its result over L^n.
    """
    p = as_params(params)
    scale = math.lcm(*(x.denominator for x in p))
    a = [x.numerator * (scale // x.denominator) for x in p]
    weights = [a[c] if c >= 0 else 0 for c in CLASS16]
    tables = [[weights[m ^ t] for m in range(16)] for t in twists]
    return Fraction(_contract(graph, tables), scale**graph.vertex_count)


def z8v_exact(graph: LabeledGraph, params: Sequence) -> Fraction:
    """Eight-vertex partition function, exact; signs and zeros allowed."""
    # value 1 points an edge at its slot-1 end: in-mask = value mask ^ slot-0 labels
    slot0 = [0] * graph.vertex_count
    for e in graph.edges:
        slot0[e.u] |= 1 << (e.label_u - 1)
    return _class_sum(graph, params, slot0)


def zec_exact(graph: LabeledGraph, params: Sequence) -> Fraction:
    """Even-coloring partition function, exact; signs and zeros allowed."""
    return _class_sum(graph, params, [0] * graph.vertex_count)


# bit-reversal of a 4-bit label mask -> (x1 x2 x3 x4) truth-table index
_REV4 = tuple(
    ((m & 1) << 3) | ((m & 2) << 1) | ((m & 4) >> 1) | ((m & 8) >> 3)
    for m in range(16)
)


def holant_exact(graph: LabeledGraph, table: Sequence):
    """Sum over all 2^m edge 0/1-assignments of the per-vertex function values.

    ``table`` has 16 entries indexed by (x1, x2, x3, x4) with x1 the most
    significant bit; entries may be any ring elements (complex, Fraction,
    int).  The frontier contraction takes about 2^width * n steps for the
    greedy order's frontier width (refused above ``FRONTIER_CAP``), not 2^m.
    """
    if len(table) != 16:
        raise ValueError("arity-4 truth table needs 16 entries")
    by_mask = [table[r] for r in _REV4]
    # table[0] * 0 gives the sum the entry type even when every term is 0
    return table[0] * 0 + _contract(graph, [by_mask] * graph.vertex_count)
