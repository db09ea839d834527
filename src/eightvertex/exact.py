"""Exact partition functions in rational arithmetic, by two independent routes.

This module is the ground-truth oracle for everything else, so it never
touches floating point; signed and zero parameters are allowed throughout.
``z8v_exact``, ``zec_exact`` and ``holant_exact`` share one frontier
(transfer-matrix) contraction along a vertex order: one matmul per vertex
over the frontier's nonzero exact entries, at most 2^width of them, so at
most about 2^width * n products.  The order is the narrowest of several
greedy tries from different starts (``_frontier_plan``), which finds the
short way round a long torus: width 10 on 4xM for every M.  The censuses
count the 2^k even states over the cycle space, independently of the
contraction, which they cross-check when evaluated at a point.  Reversing
every arrow of a component keeps each vertex's class, and flipping a class
swap's edge set (one per consistent pairing of the labels, such as a
torus's horizontal edges) permutes every vertex's class alike, so they
enumerate one state of each orbit, 2^(k - c - s) states for c components
and s independent swaps, and count each state's profile 2^c times under
each of the 2^s class permutations.  They read the blocks of states that the
cycle-space kernel lists (``states.CycleKernel.blocks``) and code each
block's class profiles as a sum of per-vertex rows, one row per (vertex,
block start) pair that occurs, then count a batch of blocks per
``bincount``.
"""
from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .graphs import LabeledGraph
from .states import CLASS16, DEFAULT_DIM_CAP, CycleKernel, _gf2_raises, _gf2_rank

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


# an even edge set and the class permutation its flip applies at every vertex
Swap = tuple[frozenset[int], tuple[int, ...]]


def _class_swaps(graph: LabeledGraph) -> list[Swap]:
    """The even edge sets whose flip permutes every vertex's class alike, with
    that permutation (class -> class), one per consistent pairing of the labels.

    A pairing (1,3|2,4, 1,2|3,4 or 2,3|1,4) splits the labels by a mask xm.
    Pick one pair at every vertex: x_v = 1 picks the labels in xm, 0 the
    rest.  If each edge is picked at both ends or at neither, the picked
    edges form a set S whose flip xors xm or its complement onto every
    mask, which maps each class c to ``CLASS16[m ^ xm]`` for any mask m of
    c.  A BFS per component sets x = 1 at the root and
    x_v = x_u ^ side(label_u) ^ side(label_v) along each edge it first
    crosses; a pairing that some edge, self-loops included, then picks at
    one end only gives no set.
    """
    n, edges = graph.vertex_count, graph.edges
    swaps = []
    for xm in (0b0101, 0b0011, 0b0110):
        x = [-1] * n
        for root in range(n):
            if x[root] < 0:
                x[root], queue = 1, [root]
                for u in queue:
                    for label, (eid, slot) in enumerate(graph.half_edges[u]):
                        v, label_v = edges[eid].endpoint(1 - slot)
                        if x[v] < 0:
                            x[v] = x[u] ^ (xm >> label & 1) ^ (xm >> (label_v - 1) & 1)
                            queue.append(v)
        picked = [x[e.u] == xm >> (e.label_u - 1) & 1 for e in edges]
        if all(p == (x[e.v] == xm >> (e.label_v - 1) & 1) for p, e in zip(picked, edges)):
            edge_set = frozenset(eid for eid, p in enumerate(picked) if p)
            swaps.append((edge_set, tuple(CLASS16[CLASS16.index(c) ^ xm] for c in range(4))))
    return swaps


def _orbit_moves(kernel: CycleKernel) -> tuple[list[int], list[frozenset[int]], list[Swap]]:
    """The moves to keep, each component's edge set, and the class swaps kept
    with their permutations: ``(keep, components, swaps)``.

    Reversing every edge of a component flips each of its vertices' masks
    by 1111, which keeps every class; flipping a swap set (``_class_swaps``)
    permutes every vertex's class alike.  One GF(2) elimination adds the
    component edge sets, then the swap sets that still raise the rank (at
    most two: the third is their sum up to components), then keeps the
    basis cycles that still raise it, so the kept moves span one state of
    each orbit of the group the others generate.
    """
    roots, edges = kernel.roots, kernel.graph.edges
    by_root: dict[int, set[int]] = {}
    for eid, e in enumerate(edges):
        by_root.setdefault(roots[e.u], set()).add(eid)
    components = [frozenset(ids) for ids in by_root.values()]
    found = _class_swaps(kernel.graph)
    raised = _gf2_raises([*components, *(s for s, _ in found), *kernel.moves])[len(components):]
    swaps = [swap for swap, up in zip(found, raised) if up]
    keep = [j for j, up in enumerate(raised[len(found):]) if up]
    return keep, components, swaps


def _census(kernel: CycleKernel, start: Sequence[int], dim_cap: int) -> Census:
    """Count the class profiles of all 2^k states, one block of the kernel's at a time.

    Reversing any set of the c components keeps every class, and each of
    the s swap sets of ``_orbit_moves`` permutes every class alike, so the
    2^k states fall into orbits of 2^(c + s): the 2^(k - c - s) states the
    kept moves span are counted into a histogram h, and a profile p gets
    2^c times the sum of h over the profiles that the 2^s class
    permutations the swaps generate carry to p.  Refused unless the kept
    moves, the components' edge sets and the swap sets form a basis, so
    that each orbit has one state in the span.

    Each state's profile is coded n_A + D*n_B + D^2*n_C with D = n + 1
    (n_D is the rest) and counted by ``bincount``; a bin holds at most 2^k
    states, so int64 is exact.  One call counts a batch of blocks, at least
    D^3 codes, so the D^3-bin histogram it allocates and adds costs no more
    than the codes it counts.  Vertex v's masks in a block are
    ``low[v] ^ x`` for the block's start x at v, so its codes there are a
    row that depends on (v, x) alone: each row is built the first time its
    pair occurs, and a block's codes are the sum of its n rows, in the
    smallest unsigned type that holds D^3, above every code.
    """
    n = kernel.graph.vertex_count
    keep, components, swaps = _orbit_moves(kernel)
    low, starts = kernel.blocks(start, dim_cap, keep)  # refuses k > dim_cap before any table
    basis = [kernel.moves[j] for j in keep] + components + [edge_set for edge_set, _ in swaps]
    if not len(basis) == _gf2_rank(basis) == kernel.dimension:
        raise ValueError(
            "the kept moves, the components and the swaps do not span one state per class"
        )
    D = n + 1
    place = np.array([(1, D, D * D, 0)[c] for c in CLASS16], np.min_scalar_type(D**3))
    rows: dict[tuple[int, int], np.ndarray] = {}
    batch = -(-(D**3) // low.shape[1])
    codes = np.empty((batch, low.shape[1]), place.dtype)
    hist = np.zeros(D**3, np.int64)
    while chunk := list(itertools.islice(starts, batch)):
        for block_codes, block_start in zip(codes, chunk):
            block_codes[:] = 0
            for pair in enumerate(block_start.tolist()):
                row = rows.get(pair)
                if row is None:
                    v, x = pair
                    row = rows[pair] = place[low[v] ^ x]
                block_codes += row
        hist += np.bincount(codes[: len(chunk)].ravel(), minlength=D**3)
    group = [(0, 1, 2, 3)]  # the class permutations the swaps generate
    for _, perm in swaps:
        group += [tuple(perm[c] for c in sigma) for sigma in group]
    counts: dict[tuple[int, int, int, int], int] = {}
    for code in np.flatnonzero(hist).tolist():
        na, nb, nc = code % D, code // D % D, code // (D * D)
        profile, count = (na, nb, nc, n - na - nb - nc), int(hist[code]) << len(components)
        for sigma in group:  # each is its own inverse: class sigma[c] goes to c
            image = tuple(profile[c] for c in sigma)
            counts[image] = counts.get(image, 0) + count
    return Census(n, kernel.dimension, counts)


def census_8v(graph: LabeledGraph, dim_cap: int = DEFAULT_DIM_CAP) -> Census:
    """Class census over all even orientations."""
    kernel = CycleKernel(graph)
    return _census(kernel, kernel.reference_masks, dim_cap)


def census_ec(graph: LabeledGraph, dim_cap: int = DEFAULT_DIM_CAP) -> Census:
    """Class census over all even colorings (start: everything red)."""
    return _census(CycleKernel(graph), [0b1111] * graph.vertex_count, dim_cap)


def _greedy_order(ends: Sequence[Sequence[int]], start: int, recent: bool = False,
                  bound: float = math.inf):
    """One greedy vertex order from ``start``; returns (order, width, cost),
    or None once its width passes ``bound``.

    Next comes the unvisited vertex with the most edges into the visited
    set, ties broken by id, or with ``recent`` by the latest edge to reach
    it (unreached vertices still by id).  The candidates sit in a heap of
    (-edges in, tie, id) entries whose stale ones are skipped, so a try
    costs O(m log n).  ``ends[v]`` lists v's neighbours once per edge,
    self-loops left out.  The width is the most edges open between steps;
    the cost sums 2^(edges open once a step has opened its own), the
    products in that step's matmul when the frontier is dense.
    """
    n = len(ends)
    into, visited = [0] * n, [False] * n
    heap = [(0, u, u) for u in range(n)]  # sorted, so already a heap
    order, open_count, width, cost, ticks, v = [], 0, 0, 0, 0, start
    for step in range(n):
        if step:
            key, _, v = heapq.heappop(heap)
            while visited[v] or -key != into[v]:  # stale: visited, or reached again since
                key, _, v = heapq.heappop(heap)
        visited[v] = True
        order.append(v)
        opened = closed = 0
        for u in ends[v]:
            if visited[u]:
                closed += 1
            else:
                opened += 1
                into[u] += 1
                ticks += 1
                heapq.heappush(heap, (-into[u], -ticks if recent else u, u))
        cost += 1 << open_count + opened
        open_count += opened - closed
        width = max(width, open_count)
        if width > bound:
            return None
    return order, width, cost


def _frontier_plan(graph: LabeledGraph):
    """The narrowest of several greedy vertex orders, and the edges each step
    closes and opens; returns (steps, width).

    The greedy runs with ties by id from vertex 0 and from starts spread
    over the ids (``i * n // 8`` for i < 8, and n - 1), and with ties to
    the latest reached from vertex 0.  The narrowest order wins, then the
    cheapest, then the earliest try; so a try stops once it is wider than
    the narrowest so far, and one as wide runs on.  On a long torus the
    start at 0 sweeps along the rows (width 130 on 4x64) where a start
    further in goes the short way round (width 10); on a torus with
    shuffled ids the ties by id scatter the frontier (20-24 on 8x8) where
    ties to the latest reached keep it a band (18).  A step is (vertex, closed, opened, loops): the
    (edge id, label - 1) of each edge it closes and opens, and each
    self-loop's label bits.
    """
    n = graph.vertex_count
    ends = [
        [u for eid, slot in hs if (u := graph.edges[eid].endpoint(1 - slot)[0]) != v]
        for v, hs in enumerate(graph.half_edges)
    ]
    starts = dict.fromkeys([i * n // 8 for i in range(8)] + [n - 1])
    best = None
    for start, recent in [(s, False) for s in starts] + [(0, True)]:
        tried = _greedy_order(ends, start, recent, best[1] if best else math.inf)
        if tried is not None and (best is None or tried[1:] < best[1:]):
            best = tried
    order, width, _ = best
    visited = [False] * n
    steps = []
    for v in order:
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
                opened.append((eid, label))
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
    sums are dropped, so the work follows the nonzero support: a table is
    filled at its nonzero weights only.  A plan wider than ``FRONTIER_CAP`` is refused before any work.
    """
    steps, width = _frontier_plan(graph)
    if width > FRONTIER_CAP:
        raise ValueError(f"frontier width {width} exceeds cap {FRONTIER_CAP}")
    keys, vals, live = np.zeros(1, np.int64), np.ones(1, dtype=object), []
    for v, closed, opened, loops in steps:
        table = np.zeros((2,) * (len(closed) + len(opened)), dtype=object)
        for mask, w in enumerate(tables[v]):
            if w != 0 and all(mask & pair in (0, pair) for pair in loops):
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
    frontier width of the narrowest greedy order that ``_frontier_plan``
    finds over its starts (refused above ``FRONTIER_CAP``), not 2^m.
    """
    if len(table) != 16:
        raise ValueError("arity-4 truth table needs 16 entries")
    by_mask = [table[r] for r in _REV4]
    # table[0] * 0 gives the sum the entry type even when every term is 0
    return table[0] * 0 + _contract(graph, [by_mask] * graph.vertex_count)
