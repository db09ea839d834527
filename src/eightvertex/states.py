"""Even orientations, even colorings and the bijections between them.

An orientation is a tuple of bits, one per edge: bit 1 means the head is
the edge's slot-1 endpoint (the ``(v, label_v)`` side).  A coloring is a
tuple of bits with 1 = red, 0 = green.  Evenness means an even number of
incoming arrows (resp. green edges) at every vertex; the even
orientations form a coset of the binary cycle space.  ``CycleKernel``
holds the moves through that coset and the one enumeration of it,
``blocks``: the in-masks of all 2^k states, 2^``BLOCK_MOVES`` at a time, in
cycle-space coordinate order.  The Metropolis chain flips single moves;
the enumeration, the exact chain diagnostics and the census (``exact``)
read the blocks.  ``DEFAULT_DIM_CAP`` bounds every 2^k enumeration.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterator, Sequence

import numpy as np

from .graphs import LabeledGraph

Bits = tuple[int, ...]


class VertexClass(IntEnum):
    A = 0
    B = 1
    C = 2
    D = 3


# 4-bit incidence mask (bit label-1) -> weight class.  For orientations the
# mask holds the labels of incoming half-edges, for colorings the labels of
# red half-edges; the same table serves both.
CLASS_BY_MASK = {
    0b0011: VertexClass.A,
    0b1100: VertexClass.A,
    0b1001: VertexClass.B,
    0b0110: VertexClass.B,
    0b0101: VertexClass.C,
    0b1010: VertexClass.C,
    0b0000: VertexClass.D,
    0b1111: VertexClass.D,
}


def in_masks(graph: LabeledGraph, orientation: Sequence[int]) -> list[int]:
    """Per-vertex 4-bit masks of incoming half-edge labels."""
    masks = [0] * graph.vertex_count
    for eid, e in enumerate(graph.edges):
        if orientation[eid]:
            masks[e.v] |= 1 << (e.label_v - 1)
        else:
            masks[e.u] |= 1 << (e.label_u - 1)
    return masks


def red_masks(graph: LabeledGraph, coloring: Sequence[int]) -> list[int]:
    """Per-vertex 4-bit masks of red half-edge labels."""
    masks = [0] * graph.vertex_count
    for eid, e in enumerate(graph.edges):
        if coloring[eid]:
            masks[e.u] |= 1 << (e.label_u - 1)
            masks[e.v] |= 1 << (e.label_v - 1)
    return masks


def _class_of_mask(mask: int, what: str, vertex: int) -> VertexClass:
    try:
        return CLASS_BY_MASK[mask]
    except KeyError:
        raise ValueError(
            f"vertex {vertex}: odd {what} count (mask {mask:04b}), state is not even"
        ) from None


def orientation_classes(graph: LabeledGraph, orientation: Sequence[int]) -> list[VertexClass]:
    return [
        _class_of_mask(m, "in-degree", v)
        for v, m in enumerate(in_masks(graph, orientation))
    ]


def coloring_classes(graph: LabeledGraph, coloring: Sequence[int]) -> list[VertexClass]:
    return [
        _class_of_mask(m, "red", v) for v, m in enumerate(red_masks(graph, coloring))
    ]


# ----------------------------------------------------------------------
# reference orientation and cycle space


def reference_even_orientation(graph: LabeledGraph) -> Bits:
    """Deterministic Eulerian (hence even) orientation via Hierholzer's walk."""
    m = graph.edge_count
    bits = [0] * m
    used = [False] * m
    cursor = [0] * graph.vertex_count  # next label index to try per vertex
    for start in range(graph.vertex_count):
        while cursor[start] < 4:
            if used[graph.half_edges[start][cursor[start]].edge]:
                cursor[start] += 1
                continue
            # trace a closed walk from `start`, orienting along the traversal
            v = start
            while True:
                while cursor[v] < 4 and used[graph.half_edges[v][cursor[v]].edge]:
                    cursor[v] += 1
                if cursor[v] == 4:
                    break  # walk closed (degrees even, so this is `start`)
                eid, slot = graph.half_edges[v][cursor[v]]
                used[eid] = True
                bits[eid] = 1 if slot == 0 else 0
                e = graph.edges[eid]
                v = e.v if slot == 0 else e.u
    return tuple(bits)


@dataclass(frozen=True)
class CycleBasis:
    """Fundamental cycles of a BFS spanning forest; a GF(2) cycle-space basis."""

    elements: tuple[frozenset[int], ...]
    components: int

    @property
    def dimension(self) -> int:
        return len(self.elements)


def cycle_basis(graph: LabeledGraph) -> CycleBasis:
    n, m = graph.vertex_count, graph.edge_count
    parent_edge = [-1] * n
    parent_vertex = [-1] * n
    depth = [0] * n
    visited = [False] * n
    in_tree = [False] * m
    components = 0

    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for eid, e in enumerate(graph.edges):
        adj[e.u].append((eid, e.v))
        if e.u != e.v:
            adj[e.v].append((eid, e.u))

    for root in range(n):
        if visited[root]:
            continue
        components += 1
        visited[root] = True
        queue = [root]
        head = 0
        while head < len(queue):
            v = queue[head]
            head += 1
            for eid, w in adj[v]:
                if not visited[w]:
                    visited[w] = True
                    in_tree[eid] = True
                    parent_edge[w] = eid
                    parent_vertex[w] = v
                    depth[w] = depth[v] + 1
                    queue.append(w)

    def tree_path(u: int, v: int) -> set[int]:
        path: set[int] = set()
        while depth[u] > depth[v]:
            path.add(parent_edge[u])
            u = parent_vertex[u]
        while depth[v] > depth[u]:
            path.add(parent_edge[v])
            v = parent_vertex[v]
        while u != v:
            path.add(parent_edge[u])
            path.add(parent_edge[v])
            u, v = parent_vertex[u], parent_vertex[v]
        return path

    elements = []
    for eid, e in enumerate(graph.edges):
        if in_tree[eid]:
            continue
        cycle = tree_path(e.u, e.v)
        cycle.add(eid)
        elements.append(frozenset(cycle))
    assert len(elements) == m - n + components
    return CycleBasis(tuple(elements), components)


# ----------------------------------------------------------------------
# the cycle-space kernel shared by the census, the enumeration and the chain

# largest cycle-space dimension k that a 2^k enumeration accepts by default
DEFAULT_DIM_CAP = 30
# moves per chunk of ``CycleKernel.blocks``: a block holds 2^12 states, n * 4 KiB of masks
BLOCK_MOVES = 12

# 4-bit mask -> class index, -1 for odd masks; a tuple lookup for hot loops,
# of plain ints because list indexing specialises on exact ints
CLASS16 = tuple(int(CLASS_BY_MASK.get(m, -1)) for m in range(16))


def _face_moves(graph: LabeledGraph) -> list[frozenset[int]]:
    """Per face, the edges it traverses an odd number of times (empty sets dropped)."""
    moves = []
    for face in face_two_coloring(graph).faces:
        edge_multiplicity: dict[int, int] = {}
        for dart in face:
            eid = dart // 2
            edge_multiplicity[eid] = edge_multiplicity.get(eid, 0) + 1
        odd = frozenset(e for e, k in edge_multiplicity.items() if k % 2)
        if odd:
            moves.append(odd)
    return moves


def _gf2_rank(edge_sets: Sequence[frozenset[int]]) -> int:
    """Rank of edge sets read as GF(2) vectors over the edges."""
    pivots: dict[int, int] = {}  # leading bit -> reduced vector
    for edge_set in edge_sets:
        x = sum(1 << eid for eid in edge_set)
        while x:
            top = x.bit_length() - 1
            if top not in pivots:
                pivots[top] = x
                break
            x ^= pivots[top]
    return len(pivots)


class CycleKernel:
    """The coset of even orientations, as the reference xor sums of move edge sets.

    Built once per (graph, proposal kind): ``"basis-cycle"`` moves are the
    fundamental cycles, ``"face"`` moves the face boundaries of a rotation
    system.  ``touch[j]`` lists, per vertex that move j changes, the xor it
    applies to the vertex's 4-bit mask; flipping an edge toggles the same
    labels in an in-mask and in a red mask, so one table serves orientations
    and colorings.  Construction refuses moves whose GF(2) rank is below the
    cycle-space dimension k, because they reach only part of the coset
    (face moves on a torus miss its homology cycles).
    """

    def __init__(self, graph: LabeledGraph, proposal: str = "basis-cycle"):
        basis = cycle_basis(graph)
        if proposal == "basis-cycle":
            moves = list(basis.elements)
        elif proposal == "face":
            moves = _face_moves(graph)
        else:
            raise ValueError(f"unknown proposal kind {proposal!r}")
        rank = _gf2_rank(moves)
        if rank != basis.dimension:
            raise ValueError(
                f"{proposal} moves have GF(2) rank {rank} but the cycle space has "
                f"dimension k={basis.dimension}: a chain on them is reducible"
            )
        self.graph = graph
        self.dimension = basis.dimension
        self.moves = tuple(moves)
        self.touch: list[list[tuple[int, int]]] = []
        for element in self.moves:
            agg: dict[int, int] = {}
            for eid in element:
                e = graph.edges[eid]
                agg[e.u] = agg.get(e.u, 0) ^ (1 << (e.label_u - 1))
                agg[e.v] = agg.get(e.v, 0) ^ (1 << (e.label_v - 1))
            self.touch.append([(v, xm) for v, xm in sorted(agg.items()) if xm])
        self.reference = reference_even_orientation(graph)
        self.reference_masks = tuple(in_masks(graph, self.reference))
        self._heads = tuple((e.v, e.label_v - 1) for e in graph.edges)

    def orientations(self, masks: np.ndarray) -> np.ndarray:
        """The orientations with the in-masks of each row of a ``(rows, n)`` uint8 array.

        Returns a ``(rows, m)`` uint8 array: bit 1 iff the edge's slot-1 label is incoming.
        """
        heads, shifts = np.array(self._heads, dtype=np.intp).reshape(-1, 2).T
        return (masks[:, heads] >> shifts.astype(np.uint8)) & 1

    def blocks(self, start: Sequence[int], dim_cap: int) -> Iterator[np.ndarray]:
        """All 2^k states from the masks ``start``, as ``(n, 2^L)`` uint8 arrays of masks.

        Column t of block s is ``start`` xor the moves at the set bits of
        ``s * 2^L + t``, with L = min(k, ``BLOCK_MOVES``), so the blocks list
        the coset in cycle-space coordinate order.  The moves are cut into
        chunks of L, each with a table of the xors its subsets apply, so
        memory stays O(n * 2^L) whatever k is.  Needs independent moves, so
        that the subsets are the states; refuses k above ``dim_cap`` when
        called, before any table is built.
        """
        k = len(self.moves)
        if k != self.dimension:
            raise ValueError("enumerating the coset needs independent (basis-cycle) moves")
        if k > dim_cap:
            raise ValueError(f"cycle-space dimension {k} exceeds enumeration cap {dim_cap}")
        n = len(self.reference_masks)
        # k = 0 keeps one chunk: the table of the empty subset alone
        low, *high = (
            _subset_xors(n, self.touch[j:j + BLOCK_MOVES]) for j in range(0, max(k, 1), BLOCK_MOVES)
        )
        start = np.array(start, np.uint8)
        # one column of each higher chunk's table picks a block, the last chunk's varying slowest
        return (
            low ^ functools.reduce(np.bitwise_xor, columns, start)[:, None]
            for columns in itertools.product(*(table.T for table in reversed(high)))
        )


def _subset_xors(n: int, touch: Sequence[list[tuple[int, int]]]) -> np.ndarray:
    """``(n, 2^len(touch))`` table, built by doubling: column s is the xor of each vertex's
    mask that the moves of ``touch`` at the set bits of s apply."""
    table = np.zeros((n, 1), np.uint8)
    for flips in touch:
        xor = np.zeros((n, 1), np.uint8)
        for v, xm in flips:
            xor[v] = xm
        table = np.hstack([table, table ^ xor])
    return table


def enumerate_even_orientations(
    graph: LabeledGraph, dim_cap: int = DEFAULT_DIM_CAP
) -> Iterator[Bits]:
    """All even orientations: the reference orientation xor the cycle space.

    In cycle-space coordinate order: the i-th is the reference xor the
    basis cycles at the set bits of i.  Raises when the cycle-space
    dimension exceeds ``dim_cap``.
    """
    kernel = CycleKernel(graph)
    for block in kernel.blocks(kernel.reference_masks, dim_cap):
        yield from map(tuple, kernel.orientations(block.T).tolist())


# ----------------------------------------------------------------------
# faces of a rotation system and the two canonical orientations


@dataclass(frozen=True)
class FaceColoring:
    """Faces traced from the rotation system plus a proper 2-coloring.

    Darts are indexed ``2*edge + slot`` and point away from their incident
    vertex; each face is the orbit that keeps the face on the dart's left.
    Face 0 (the orbit of the smallest dart) is the reference face, colored
    white (0); black is 1.
    """

    faces: tuple[tuple[int, ...], ...]
    face_of_dart: tuple[int, ...]
    colors: tuple[int, ...]

    def side_faces(self, edge: int) -> tuple[int, int]:
        """(face left of the slot-0 dart, face left of the slot-1 dart)."""
        return self.face_of_dart[2 * edge], self.face_of_dart[2 * edge + 1]


class DualNotBipartiteError(ValueError):
    """The face-adjacency graph has an odd cycle; carries one such cycle."""

    def __init__(self, odd_cycle: list[int]):
        super().__init__(
            f"dual not bipartite: odd face cycle {odd_cycle}"
        )
        self.odd_cycle = odd_cycle


def face_two_coloring(graph: LabeledGraph) -> FaceColoring:
    if graph.embedding_kind != "rotation_system":
        raise ValueError("face tracing requires a rotation-system embedding")
    m = graph.edge_count

    def next_dart(dart: int) -> int:
        # alpha: jump to the other end of the edge; sigma: rotate ccw there
        eid, slot = divmod(dart, 2)
        e = graph.edges[eid]
        v, lab = e.endpoint(1 - slot)
        he = graph.half_edges[v][lab % 4]  # label lab+1, wrapping 4 -> 1
        return 2 * he.edge + he.slot

    face_of_dart = [-1] * (2 * m)
    faces: list[tuple[int, ...]] = []
    for start in range(2 * m):
        if face_of_dart[start] != -1:
            continue
        orbit = []
        d = start
        while face_of_dart[d] == -1:
            face_of_dart[d] = len(faces)
            orbit.append(d)
            d = next_dart(d)
        faces.append(tuple(orbit))

    # proper 2-coloring of the dual; BFS from the reference face (white)
    f = len(faces)
    adjacency: list[list[int]] = [[] for _ in range(f)]
    for eid in range(m):
        f0, f1 = face_of_dart[2 * eid], face_of_dart[2 * eid + 1]
        adjacency[f0].append(f1)
        adjacency[f1].append(f0)
    colors = [-1] * f
    parent = [-1] * f
    for root in range(f):
        if colors[root] != -1:
            continue
        colors[root] = 0
        queue = [root]
        head = 0
        while head < len(queue):
            a = queue[head]
            head += 1
            for b in adjacency[a]:
                if colors[b] == -1:
                    colors[b] = colors[a] ^ 1
                    parent[b] = a
                    queue.append(b)
                elif colors[b] == colors[a]:
                    up_a = []
                    x = a
                    while x != -1:
                        up_a.append(x)
                        x = parent[x]
                    seen = set(up_a)
                    path_b = []
                    x = b
                    while x not in seen:
                        path_b.append(x)
                        x = parent[x]
                    cycle = up_a[: up_a.index(x) + 1] + path_b[::-1]
                    raise DualNotBipartiteError(cycle)
    return FaceColoring(tuple(faces), tuple(face_of_dart), tuple(colors))


def canonical_planar_orientation(graph: LabeledGraph, fc: FaceColoring) -> Bits:
    """Orient every edge with its white face on the right of the arrow.

    Equivalently each black face is traversed counterclockwise, each white
    face clockwise.  The result is Eulerian and every vertex gets class C.
    """
    bits = []
    for eid in range(graph.edge_count):
        f0, f1 = fc.side_faces(eid)
        c0, c1 = fc.colors[f0], fc.colors[f1]
        if c0 == c1:
            raise ValueError(f"edge {eid}: same color on both sides, invalid coloring")
        # pick the dart whose left face is black; its head is the far slot
        bits.append(1 if c0 == 1 else 0)
    return tuple(bits)


def canonical_bipartite_orientation(graph: LabeledGraph) -> Bits:
    """Orient every edge from the right side into the left side.

    Left vertices become sinks and right vertices sources (all class D).
    """
    if graph.bipartition is None:
        raise ValueError("bipartite canonical orientation requires a bipartition")
    left, _right = graph.bipartition
    bits = []
    for eid, e in enumerate(graph.edges):
        if (e.u in left) == (e.v in left):
            raise ValueError(f"edge {eid} does not join the two sides")
        bits.append(1 if e.v in left else 0)
    return tuple(bits)


def orientation_to_coloring(
    graph: LabeledGraph,
    orientation: Sequence[int],
    canonical: Sequence[int],
) -> Bits:
    """Green (0) where the orientation agrees with the canonical one, red (1) where it differs.

    For even inputs the disagreement set is an even subgraph, so the result
    is an even coloring; relative to a fixed canonical orientation the map
    is a bijection between even orientations and even colorings.
    """
    if len(orientation) != graph.edge_count or len(canonical) != graph.edge_count:
        raise ValueError("orientation length does not match the graph")
    return tuple(a ^ b for a, b in zip(orientation, canonical))


def _wire_flips(graph: LabeledGraph) -> np.ndarray:
    """Per edge, 1 where the slot-1 endpoint is the lower-numbered one: slot bit xor wire bit."""
    return np.array([e.v < e.u for e in graph.edges], dtype=np.uint8)


def orientation_to_bitstring(graph: LabeledGraph, orientations) -> str:
    """Wire form: bit 1 iff the edge points toward its higher-numbered endpoint.

    A self-loop keeps its slot bit.  One orientation gives one line, without
    a newline; an array of them, one per row, gives a line per row, each
    ending in a newline.
    """
    bits = np.asarray(orientations, dtype=np.uint8)
    if bits.shape[-1:] != (graph.edge_count,):
        raise ValueError("orientation length does not match the graph")
    text = (bits ^ _wire_flips(graph)) + np.uint8(ord("0"))
    if text.ndim == 2:
        text = np.column_stack((text, np.full(len(text), ord("\n"), dtype=np.uint8)))
    return text.tobytes().decode("ascii")

