"""Exact partition functions in rational arithmetic, by two independent routes.

This module is the ground-truth oracle for everything else, so it never
touches floating point; signed and zero parameters are allowed throughout.
``z8v_exact``, ``zec_exact`` and ``holant_exact`` share one frontier
(transfer-matrix) contraction along a vertex order: at each vertex, a
sparse join of the frontier's nonzero exact entries (at most 2^width of
them) with the vertex table's nonzero entries, so the cost is the nonzero
pairs, not about 2^width * n products.  The order is the narrowest of several
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
``bincount``.  The moves past the blocks' first chunk are chosen to touch
few vertices, and the rows of the vertices they leave alone, whose start
never changes, are summed once.
"""
from __future__ import annotations

import heapq
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from . import states
from .graphs import LabeledGraph
from .states import CLASS16, DEFAULT_DIM_CAP, CycleKernel, _gf2_raises, _gf2_rank

ParamVec = tuple[Fraction, Fraction, Fraction, Fraction]

FRONTIER_CAP = 20
# output keys per reduceat in the contraction: only a chunk's products are held at once
JOIN_CHUNK = 1 << 11


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


def _block_order(kernel: CycleKernel, keep: list[int]) -> list[int]:
    """``keep`` reordered so that the moves past the first chunk of
    ``CycleKernel.blocks`` touch few vertices, chosen greedily: each next one
    touches the fewest vertices that the ones before it do not (ties by order).
    """
    vertices = {j: {v for v, _ in kernel.touch[j]} for j in keep}
    rest, high, touched = list(keep), [], set()
    for _ in range(len(keep) - min(len(keep), states.BLOCK_MOVES)):
        j = min(rest, key=lambda j: len(vertices[j] - touched))
        rest.remove(j)
        high.append(j)
        touched |= vertices[j]
    return rest + high


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
    row that depends on (v, x) alone, and a block's codes are the sum of its
    n rows, in the smallest unsigned type that holds D^3, above every code.
    Only the moves past the first chunk change a block's start, and
    ``_block_order`` puts there the moves that touch the fewest vertices:
    the rows of the vertices none of them touches are summed once, and each
    block starts from that sum and adds the rows of the others, each built
    the first time its (v, x) pair occurs (12 rows of 20 on torus 4x5).
    """
    n = kernel.graph.vertex_count
    keep, components, swaps = _orbit_moves(kernel)
    keep = _block_order(kernel, keep)
    low, starts = kernel.blocks(start, dim_cap, keep)  # refuses k > dim_cap before any table
    basis = [kernel.moves[j] for j in keep] + components + [edge_set for edge_set, _ in swaps]
    if not len(basis) == _gf2_rank(basis) == kernel.dimension:
        raise ValueError(
            "the kept moves, the components and the swaps do not span one state per class"
        )
    D = n + 1
    place = np.array([(1, D, D * D, 0)[c] for c in CLASS16], np.min_scalar_type(D**3))
    # the vertices a move past the first chunk touches; every other vertex
    # keeps its start in every block, so its rows are summed once
    moved = sorted({v for j in keep[states.BLOCK_MOVES:] for v, _ in kernel.touch[j]})
    fixed = sorted(set(range(n)).difference(moved))
    base = place[low[fixed] ^ np.array(start, np.uint8)[fixed, None]].sum(0, place.dtype)
    moved_at = np.array(moved, np.intp)
    rows: list[dict[int, np.ndarray]] = [{} for _ in moved]  # per moved vertex, by start
    batch = -(-(D**3) // low.shape[1])
    codes = np.empty((batch, low.shape[1]), place.dtype)
    hist = np.zeros(D**3, np.int64)
    while chunk := list(itertools.islice(starts, batch)):
        for block_codes, block_start in zip(codes, chunk):
            block_codes[:] = base
            for v, cached, x in zip(moved, rows, block_start[moved_at].tolist()):
                row = cached.get(x)
                if row is None:
                    row = cached[x] = place[low[v] ^ x]
                block_codes += row
        hist += np.bincount(codes[: len(chunk)].ravel(), minlength=D**3)
    group = [(0, 1, 2, 3)]  # the class permutations the swaps generate
    for _, perm in swaps:
        group += [tuple(perm[c] for c in sigma) for sigma in group]
    # each is its own inverse: the image of a profile takes class sigma[c] to c
    picks = [operator.itemgetter(*sigma) for sigma in group]
    counts: dict[tuple[int, int, int, int], int] = {}
    found = np.flatnonzero(hist)
    for code, count in zip(found.tolist(), hist[found].tolist()):
        na, nb, nc = code % D, code // D % D, code // (D * D)
        profile, count = (na, nb, nc, n - na - nb - nc), count << len(components)
        for pick in picks:
            image = pick(profile)
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
    the cost sums 2^(edges open once a step has opened its own), the pairs
    in that step's join when the frontier and the table are dense.
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


def _join_table(table: Sequence, twist: int, closed: tuple[int, ...], opened: tuple[int, ...],
                loops: tuple[int, ...]):
    """A vertex's entries ``table[mask ^ twist]``, summed over its self-loops, as
    (closed value -> nonzero opened entries): ``(slots, dense, layout, weights)``.

    ``closed`` and ``opened`` list the labels - 1 of the edges, and a value
    has bit i set where the edge at position i has value 1; ``loops`` holds
    each self-loop's label bits, all set or all clear in a mask it allows.
    Each allowed mask is keyed ``c << len(opened) | o`` for its closed value
    c and opened value o, and a sum that comes to zero is left out, like a
    zero weight; ``weights`` lists the other sums in key order.  Row c of
    ``slots`` lists the entries of closed value c, in the order of their
    opened values, then -1 up to the longest row's length; ``dense`` tells
    whether no row has a -1.  Row j of ``layout`` holds the bits of entry
    j's opened value, then j.
    """
    sums: dict[int, object] = {}
    for mask in range(16):
        if all(mask & pair in (0, pair) for pair in loops) and (w := table[mask ^ twist]) != 0:
            key = sum((mask >> label & 1) << i for i, label in enumerate(opened + closed))
            sums[key] = sums[key] + w if key in sums else w
    keys, nopen = sorted(key for key, w in sums.items() if w != 0), len(opened)
    rows: list[list[int]] = [[] for _ in range(1 << len(closed))]
    for j, key in enumerate(keys):
        rows[key >> nopen].append(j)
    width = max(map(len, rows))
    slots = np.array([row + [-1] * (width - len(row)) for row in rows], np.intp)
    layout = np.array([[key >> i & 1 for i in range(nopen)] + [j] for j, key in enumerate(keys)],
                      np.int64).reshape(len(keys), nopen + 1)
    weights = np.fromiter((sums[key] for key in keys), object, len(keys))
    return slots, bool((slots >= 0).all()), layout, weights


def _contract(graph: LabeledGraph, table: Sequence, twists: Sequence[int]):
    """Sum over all 0/1 edge assignments of the product of ``table[mask_v ^ twists[v]]``.

    ``mask_v`` has bit label-1 set where the edge at that label of v has
    value 1; the 16 entries of ``table`` may be any ring elements, kept
    exact in ``object`` arrays.  The frontier keeps its nonzero entries
    only, keyed by the values of the open edges: each edge holds one key
    bit, the lowest free one, from the step that opens it to the step that
    closes it.  A step joins each frontier entry with the nonzero entries of
    its vertex's table (``_join_table``, built once per call for each
    distinct twist, labels and self-loops) that match its closed edges'
    values, sorts the pairs by output key, sums their products with
    ``np.add.reduceat`` and drops the zero sums.  So the work is the nonzero
    pairs: no product has a zero factor, and the 8v and ec tables, zero at
    the odd masks, meet each entry at half of theirs.  The products are made
    ``JOIN_CHUNK`` output keys at a time, so only a chunk's products are
    held at once.  Exact entries give the same value in any order; floats
    are summed in the order of the output keys.  A plan wider than
    ``FRONTIER_CAP`` is refused before any work.
    """
    steps, width = _frontier_plan(graph)
    if width > FRONTIER_CAP:
        raise ValueError(f"frontier width {width} exceeds cap {FRONTIER_CAP}")
    keys, vals = np.zeros(1, np.int64), np.ones(1, dtype=object)
    bit, free, joins = {}, list(range(width)), {}  # edge -> its key bit; free bits, a heap
    shift, entry_bits = width + 4, (1 << width) - 1  # a frontier holds at most 2^width entries
    for v, closed, opened, loops in steps:
        spec = (twists[v], *(tuple(label for _, label in half) for half in (closed, opened)),
                tuple(loops))
        join = joins.get(spec)
        if join is None:
            join = joins[spec] = _join_table(table, *spec)
        slots, dense, layout, weights = join
        closed_values, cleared = np.zeros(len(keys), np.intp), 0
        for i, (eid, _) in enumerate(closed):
            p = bit.pop(eid)
            closed_values |= (keys >> p & 1) << i
            cleared |= 1 << p
            heapq.heappush(free, p)
        for eid, _ in opened:
            bit[eid] = heapq.heappop(free)
        # each product as its output key, frontier entry and table entry (at most
        # 16) in one int64, so that one sort groups the products by output key
        tail = layout @ np.array([1 << shift + bit[eid] for eid, _ in opened] + [1], np.int64)
        grid = slots[closed_values]
        pairs = (keys & ~cleared) << shift | np.arange(0, len(keys) << 4, 16)
        pairs = pairs[:, None] | tail[grid]  # where grid is -1 a stray entry, dropped next
        pairs = pairs.ravel() if dense else pairs[grid >= 0]
        pairs.sort()
        out = pairs >> shift
        starts = np.ones(len(out), bool)  # where a run of one output key starts
        np.not_equal(out[1:], out[:-1], out=starts[1:])
        heads = np.flatnonzero(starts)
        sums = np.empty(len(heads), object)
        for h in range(0, len(heads), JOIN_CHUNK):
            a, b = heads[h], heads[h + JOIN_CHUNK] if h + JOIN_CHUNK < len(heads) else len(out)
            chunk = pairs[a:b]
            sums[h:h + JOIN_CHUNK] = np.add.reduceat(
                vals[chunk >> 4 & entry_bits] * weights[chunk & 15], heads[h:h + JOIN_CHUNK] - a)
        vals = sums
        nonzero = vals != 0
        keys, vals = out[heads][nonzero], vals[nonzero]
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
    return Fraction(_contract(graph, weights, twists), scale**graph.vertex_count)


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
    significant bit; entries may be any ring elements (complex,
    Fraction, int).  The frontier contraction (``_contract``) multiplies
    only nonzero pairs of a frontier entry and a table entry, at most
    2^width of the one per step, for the frontier width of the narrowest
    greedy order that ``_frontier_plan`` finds over its starts (refused
    above ``FRONTIER_CAP``), not 2^m.  Int, Fraction and Gaussian-integer
    tables give exact values; float entries are summed in the order of the
    join's output keys, so their rounding can differ from another order's.
    """
    if len(table) != 16:
        raise ValueError("arity-4 truth table needs 16 entries")
    by_mask = [table[r] for r in _REV4]
    # table[0] * 0 gives the sum the entry type even when every term is 0
    return table[0] * 0 + _contract(graph, by_mask, [0] * graph.vertex_count)
