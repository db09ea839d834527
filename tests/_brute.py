"""Brute-force oracles used only by the tests.

These enumerate all 2^m orientations, colorings or edge assignments
directly, with no cycle-space shortcut and no frontier contraction, so
they check the package's exact routes independently; the reference chain
recomputes whole weights instead of local ratios, and the reference walk
of the coset flips one move at a time in Gray-code order, where the package
lists the states in blocks of masks.  The predicates at the end (evenness,
Gibbs weights, region intersections, arrow-reversal symmetry), the group
closure in validated matrix products, the matrix inverse, the
constraint-matrix layout, the per-edge orientation and bit-string forms and
the bit-string reader have no caller in the package.  Keep them dumb.
"""
from collections import Counter
from fractions import Fraction
from random import Random

import numpy as np

from eightvertex.graphs import LabeledGraph
from eightvertex.holant import TOL_EXACT, _index
from eightvertex.states import (
    CLASS_BY_MASK,
    CycleKernel,
    in_masks,
    orientation_classes,
    red_masks,
    reference_even_orientation,
)
from eightvertex.transforms import IDENTITY, ClosureCapError, GroupElement, HalfIntMatrix, region


def even_orientations_naive(graph: LabeledGraph):
    m = graph.edge_count
    out = []
    for state in range(1 << m):
        bits = tuple((state >> i) & 1 for i in range(m))
        if is_even_orientation(graph, bits):
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


def gray_walk(kernel: CycleKernel, start):
    """The 2^k states of ``kernel``'s coset from the masks ``start``, one move flip at a time.

    Yields (coordinate, class profile) per state in Gray-code order: bit j
    of the coordinate is move j, and the profile is (n_A, n_B, n_C, n_D).
    """
    masks = list(start)
    profile = [0, 0, 0, 0]
    for mask in masks:
        profile[CLASS_BY_MASK[mask]] += 1
    coordinate = 0
    yield coordinate, tuple(profile)
    for i in range(1, 1 << len(kernel.touch)):
        j = (i & -i).bit_length() - 1  # the move this Gray step flips
        coordinate ^= 1 << j
        for v, xm in kernel.touch[j]:
            profile[CLASS_BY_MASK[masks[v]]] -= 1
            masks[v] ^= xm
            profile[CLASS_BY_MASK[masks[v]]] += 1
        yield coordinate, tuple(profile)


def census_per_state(graph: LabeledGraph, model: str) -> dict:
    """Class-profile counts of the reference walk, one Counter update per state.

    ``model`` is "8v" (start: the reference orientation) or "ec" (start:
    everything red), the starts of ``census_8v`` and ``census_ec``.
    """
    kernel = CycleKernel(graph)
    start = kernel.reference_masks if model == "8v" else [0b1111] * graph.vertex_count
    return dict(Counter(profile for _, profile in gray_walk(kernel, start)))


def state_weights_per_coordinate(kernel: CycleKernel, params) -> list:
    """The Gibbs weight of each state of the walk from the reference orientation,
    listed by cycle-space coordinate."""
    weights = [None] * (1 << len(kernel.touch))
    for coordinate, profile in gray_walk(kernel, kernel.reference_masks):
        w = Fraction(1)
        for p_i, n_i in zip(params, profile):
            w *= Fraction(p_i) ** n_i
        weights[coordinate] = w
    return weights


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


# ----------------------------------------------------------------------
# predicates with no caller in the package


def is_even_orientation(graph: LabeledGraph, orientation) -> bool:
    return all(m in CLASS_BY_MASK for m in in_masks(graph, orientation))


def is_even_subgraph(graph: LabeledGraph, edge_set) -> bool:
    """True when every vertex meets an even number of half-edges of the set."""
    deg = [0] * graph.vertex_count
    for eid in edge_set:
        e = graph.edges[eid]
        deg[e.u] += 1
        deg[e.v] += 1
    return all(d % 2 == 0 for d in deg)


def gibbs_weight(graph: LabeledGraph, orientation, params) -> Fraction:
    """Product over vertices of the class weight; requires positive parameters."""
    p = tuple(Fraction(x) for x in params)
    if any(x <= 0 for x in p):
        raise ValueError("chain weights need strictly positive parameters")
    w = Fraction(1)
    for cls in orientation_classes(graph, orientation):
        w *= p[cls]
    return w


def in_region_all(params, names) -> bool:
    return all(region(params, n) for n in names)


def region_by_hand(params, name: str) -> bool:
    """The twenty region inequalities, each written out in full."""
    a, b, c, d = (Fraction(x) for x in params)
    sa, sb, sc, sd = a * a, b * b, c * c, d * d
    table = {
        "A": a <= b + c + d,
        "Abar": a >= b + c + d,
        "B": b <= a + c + d,
        "Bbar": b >= a + c + d,
        "C": c <= a + b + d,
        "Cbar": c >= a + b + d,
        "D": d <= a + b + c,
        "Dbar": d >= a + b + c,
        "AD": a + d <= b + c,
        "ADbar": a + d >= b + c,
        "BD": b + d <= a + c,
        "BDbar": b + d >= a + c,
        "CD": c + d <= a + b,
        "CDbar": c + d >= a + b,
        "X": a <= b + c + d and b <= a + c + d and c <= a + b + d and d <= a + b + c,
        "Xbar": a >= b + c + d or b >= a + c + d or c >= a + b + d or d >= a + b + c,
        "Y": a + d <= b + c and b + d <= a + c and c + d <= a + b,
        "Ybar": a + d >= b + c or b + d >= a + c or c + d >= a + b,
        "Z": sa <= sb + sc + sd and sb <= sa + sc + sd and sc <= sa + sb + sd
        and sd <= sa + sb + sc,
        "Zbar": sa >= sb + sc + sd or sb >= sa + sc + sd or sc >= sa + sb + sd
        or sd >= sa + sb + sc,
    }
    return table[name]


def arrow_reversal_symmetric(table, tol: float = TOL_EXACT) -> bool:
    """True when every entry equals its bitwise-complement entry.

    Exact comparison for int/Fraction entries, tolerance-based otherwise.
    Accepts any table whose length is a power of two.
    """
    size = len(table)
    n = size.bit_length() - 1
    if size != 1 << n:
        raise ValueError("table length must be a power of two")
    exact = all(isinstance(x, int) or type(x).__name__ == "Fraction" for x in table)
    full = size - 1
    for i in range(size):
        a, b = table[i], table[i ^ full]
        if exact:
            if a != b:
                return False
        elif abs(complex(a) - complex(b)) > tol:
            return False
    return True


def closure_by_products(generators, cap: int = 1024) -> list:
    """``group_closure`` in validated ``HalfIntMatrix`` products: breadth-first,
    one product per (element, generator), each element with its shortest word."""
    seen = {IDENTITY.rows: (IDENTITY, ())}
    frontier = [(IDENTITY, ())]
    while frontier:
        next_frontier = []
        for matrix, word in frontier:
            for name, gen in generators:
                prod = matrix @ gen
                if prod.rows not in seen:
                    entry = (prod, word + (name,))
                    seen[prod.rows] = entry
                    next_frontier.append(entry)
                    if len(seen) > cap:
                        raise ClosureCapError(f"closure exceeded {cap} elements")
        frontier = next_frontier
    elements = [GroupElement(matrix, word, "*".join(word) if word else "I", matrix.order())
                for matrix, word in seen.values()]
    elements.sort(key=lambda el: (len(el.word), el.word))
    return elements


def normal_form_by_products(mz: HalfIntMatrix, mhz: HalfIntMatrix, mz_name: str, mhz_name: str):
    """The closure of the two generators in table order MZ^i, then MZ^i*MHZ,
    each with its closure word, from ``HalfIntMatrix`` products."""
    by_rows = {el.matrix.rows: el for el in closure_by_products([(mz_name, mz), (mhz_name, mhz)])}
    ordered = []
    for with_ref in (False, True):
        for i in range(mz.order()):
            matrix = mz.power(i) @ mhz if with_ref else mz.power(i)
            rot = "" if i == 0 else (mz_name if i == 1 else f"{mz_name}^{i}")
            label = (f"{rot}*{mhz_name}" if rot else mhz_name) if with_ref else (rot or "I")
            base = by_rows.pop(matrix.rows)
            ordered.append(GroupElement(matrix, base.word, label, base.order))
    assert not by_rows
    return ordered


def inverse(matrix: HalfIntMatrix) -> HalfIntMatrix:
    """The inverse matrix, by Gauss-Jordan elimination over the rationals."""
    aug = [list(matrix.rows[i]) + [Fraction(int(i == j)) for j in range(4)] for i in range(4)]
    for col in range(4):
        pivot = next(r for r in range(col, 4) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(4):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return HalfIntMatrix(tuple(tuple(row[4:]) for row in aug))


# constraint-matrix layout: rows (x1,x2) in order 00,01,10,11,
# columns (x3,x4) in order 00,10,01,11
_ROW_ORDER = ((0, 0), (0, 1), (1, 0), (1, 1))
_COL_ORDER = ((0, 0), (1, 0), (0, 1), (1, 1))


def constraint_matrix(table) -> np.ndarray:
    """The 4x4 constraint matrix of a 16-entry truth table indexed by (x1, x2, x3, x4)."""
    out = np.empty((4, 4), dtype=complex)
    for r, (x1, x2) in enumerate(_ROW_ORDER):
        for c, (x3, x4) in enumerate(_COL_ORDER):
            out[r, c] = table[_index(x1, x2, x3, x4)]
    return out


def orientation_from_masks(graph: LabeledGraph, masks) -> tuple:
    """The orientation with in-masks ``masks``, one edge at a time: bit 1 iff the
    edge's slot-1 label is incoming at its slot-1 vertex."""
    return tuple((masks[e.v] >> (e.label_v - 1)) & 1 for e in graph.edges)


def orientation_to_bitstring(graph: LabeledGraph, orientation) -> str:
    """Wire form, one edge at a time: bit 1 iff the edge points toward its higher-numbered endpoint.

    Self-loops keep the internal slot bit.
    """
    out = []
    for eid, e in enumerate(graph.edges):
        if e.u == e.v:
            out.append(str(orientation[eid]))
        else:
            head = e.v if orientation[eid] else e.u
            out.append("1" if head == max(e.u, e.v) else "0")
    return "".join(out)


def bitstring_to_orientation(graph: LabeledGraph, text: str) -> tuple:
    """Inverse of ``orientation_to_bitstring`` on one line, one edge at a time.

    It reads the lines that ``eightvertex sample`` prints back into
    orientations: a non-loop edge has slot bit 1 iff it points at its slot-1
    end, so the wire bit is flipped where that end is the lower-numbered one.
    """
    if len(text) != graph.edge_count or set(text) - {"0", "1"}:
        raise ValueError("bit-string length or alphabet mismatch")
    return tuple(int(bit) ^ (e.v < e.u) for bit, e in zip(text, graph.edges))
