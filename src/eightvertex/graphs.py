"""Labeled 4-regular multigraphs with optional embeddings.

Every vertex carries exactly four half-edges labeled 1..4.  When a
rotation system is present the labels double as the counterclockwise
cyclic order around the vertex, with the geometric reading
1=west/left, 2=south/down, 3=east/right, 4=north/up.  Self-loops and
parallel edges are allowed; incidences are tracked per half-edge.  A
``LabeledGraph`` is valid once built; ``parse_graph`` checks the file's
syntax and maps a rule broken by one edge to that edge's line.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

LABELS = (1, 2, 3, 4)
EMBEDDING_KINDS = ("none", "rotation_system", "bipartition")

FORMAT_MAGIC = "8vx-graph 1"
_EMBEDDING_TO_KEYWORD = {
    "none": "none",
    "rotation_system": "rotation",
    "bipartition": "bipartite",
}
_KEYWORD_TO_EMBEDDING = {v: k for k, v in _EMBEDDING_TO_KEYWORD.items()}


class GraphFormatError(ValueError):
    """Malformed graph file; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class EdgeError(ValueError):
    """A graph rule broken by one edge; carries the edge's id."""

    def __init__(self, message: str, edge: int):
        super().__init__(message)
        self.edge = edge


class Edge(NamedTuple):
    u: int
    label_u: int
    v: int
    label_v: int

    def endpoint(self, slot: int) -> tuple[int, int]:
        """(vertex, label) of the given endpoint slot (0 = u side)."""
        return (self.u, self.label_u) if slot == 0 else (self.v, self.label_v)


class HalfEdge(NamedTuple):
    edge: int
    slot: int


@dataclass(frozen=True)
class LabeledGraph:
    """Valid once built: the constructor checks every graph rule, and a rule
    broken by one edge raises ``EdgeError`` with that edge's id."""

    vertex_count: int
    edges: tuple[Edge, ...]
    embedding_kind: str = "none"
    bipartition: tuple[frozenset[int], frozenset[int]] | None = None
    # per vertex, the incident half-edges indexed by label-1
    half_edges: tuple[tuple[HalfEdge, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.vertex_count
        if n < 0:
            raise ValueError("negative vertex count")
        if self.embedding_kind not in EMBEDDING_KINDS:
            raise ValueError(f"unknown embedding kind {self.embedding_kind!r}")
        table: list[list[HalfEdge | None]] = [[None] * 4 for _ in range(n)]
        for eid, e in enumerate(self.edges):
            for w in (e.u, e.v):
                if not 0 <= w < n:
                    raise EdgeError(f"dangling vertex id {w}", eid)
            for lab in (e.label_u, e.label_v):
                if lab not in LABELS:
                    raise EdgeError(f"label {lab} not in 1..4", eid)
            for slot in (0, 1):
                v, lab = e.endpoint(slot)
                if table[v][lab - 1] is not None:
                    raise EdgeError(f"vertex {v}: duplicate label {lab}", eid)
                table[v][lab - 1] = HalfEdge(eid, slot)
        for v, row in enumerate(table):
            if None in row:
                missing = [l for l, h in zip(LABELS, row) if h is None]
                raise ValueError(f"vertex {v}: not 4-regular (missing labels {missing})")
        object.__setattr__(self, "half_edges", tuple(tuple(row) for row in table))
        if self.bipartition is not None:
            left, right = self.bipartition
            if left & right:
                raise ValueError("bipartition sides overlap")
            if left | right != frozenset(range(n)):
                raise ValueError("bipartition does not cover all vertices")
            for eid, e in enumerate(self.edges):
                if (e.u in left) == (e.v in left):
                    raise EdgeError(f"edge {eid} does not join the two sides", eid)
        if self.embedding_kind == "bipartition" and self.bipartition is None:
            raise ValueError("embedding kind 'bipartition' without a bipartition")

    @property
    def edge_count(self) -> int:
        return len(self.edges)


# ----------------------------------------------------------------------
# generators


def gen_torus(rows: int, cols: int) -> LabeledGraph:
    """Torus grid with wraparound; rows*cols vertices, 2*rows*cols edges.

    Labels are geometric (1=west, 2=south, 3=east, 4=north), which is the
    counterclockwise order, so the labels define the rotation system.  A
    checkerboard bipartition is attached when both dimensions are even.
    """
    if rows < 2 or cols < 2:
        raise ValueError("torus needs rows >= 2 and cols >= 2")

    def vid(r: int, c: int) -> int:
        return r * cols + c

    edges: list[Edge] = []
    for r in range(rows):
        for c in range(cols):
            edges.append(Edge(vid(r, c), 3, vid(r, (c + 1) % cols), 1))
            edges.append(Edge(vid(r, c), 2, vid((r + 1) % rows, c), 4))
    bipartition = None
    if rows % 2 == 0 and cols % 2 == 0:
        left = frozenset(
            vid(r, c) for r in range(rows) for c in range(cols) if (r + c) % 2 == 0
        )
        right = frozenset(range(rows * cols)) - left
        bipartition = (left, right)
    return LabeledGraph(rows * cols, tuple(edges), "rotation_system", bipartition)


# Octahedron rotation system: neighbor lists in counterclockwise order as
# seen from outside the sphere (vertex 0 top, 5 bottom, 1..4 equator).
_OCTAHEDRON_ROTATIONS = (
    (1, 2, 3, 4),
    (0, 4, 5, 2),
    (0, 1, 5, 3),
    (0, 2, 5, 4),
    (0, 3, 5, 1),
    (1, 4, 3, 2),
)


def gen_octahedron() -> LabeledGraph:
    """The octahedron with its spherical rotation system (6 vertices, 12 edges)."""
    rot = _OCTAHEDRON_ROTATIONS
    edges: list[Edge] = []
    for u in range(6):
        for pos, w in enumerate(rot[u]):
            if w < u:
                continue
            label_u = pos + 1
            label_w = rot[w].index(u) + 1
            edges.append(Edge(u, label_u, w, label_w))
    return LabeledGraph(6, tuple(edges), "rotation_system")


def gen_k44() -> LabeledGraph:
    """Complete bipartite graph on 4+4 vertices with its bipartition attached."""
    edges = tuple(
        Edge(i, j + 1, 4 + j, i + 1) for i in range(4) for j in range(4)
    )
    bipartition = (frozenset(range(4)), frozenset(range(4, 8)))
    return LabeledGraph(8, edges, "bipartition", bipartition)


# ----------------------------------------------------------------------
# file format
#
#   8vx-graph 1
#   vertices N edges M embedding {none|rotation|bipartite}
#   edge <id> <u> <label_u> <v> <label_v>     (M lines, ids 0..M-1)
#   bipartition L: <ids...>                   (optional)


def serialize_graph(graph: LabeledGraph) -> str:
    lines = [FORMAT_MAGIC]
    keyword = _EMBEDDING_TO_KEYWORD[graph.embedding_kind]
    lines.append(
        f"vertices {graph.vertex_count} edges {graph.edge_count} embedding {keyword}"
    )
    for eid, e in enumerate(graph.edges):
        lines.append(f"edge {eid} {e.u} {e.label_u} {e.v} {e.label_v}")
    if graph.bipartition is not None:
        ids = " ".join(str(v) for v in sorted(graph.bipartition[0]))
        lines.append(f"bipartition L: {ids}")
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> LabeledGraph:
    """The graph of a file in the format above; ``GraphFormatError`` names the bad line."""
    lines = text.splitlines()

    def fail(message: str, lineno: int):
        raise GraphFormatError(message, lineno)

    if not lines or lines[0].strip() != FORMAT_MAGIC:
        fail(f"expected header {FORMAT_MAGIC!r}", 1)
    if len(lines) < 2:
        fail("missing size line", 2)
    parts = lines[1].split()
    if (
        len(parts) != 6
        or parts[0] != "vertices"
        or parts[2] != "edges"
        or parts[4] != "embedding"
    ):
        fail("expected 'vertices N edges M embedding KIND'", 2)
    try:
        n, m = int(parts[1]), int(parts[3])
    except ValueError:
        fail("vertex/edge counts must be integers", 2)
    if n < 0:
        fail(f"negative vertex count {n}", 2)
    # both checked before the edge table of size m is allocated
    if m != 2 * n:
        fail(f"a 4-regular graph on {n} vertices has {2 * n} edges, not {m}", 2)
    if m > len(lines) - 2:
        fail(f"{m} edges need as many edge lines, but only {len(lines) - 2} lines follow", 2)
    if parts[5] not in _KEYWORD_TO_EMBEDDING:
        fail(f"unknown embedding keyword {parts[5]!r}", 2)
    embedding_kind = _KEYWORD_TO_EMBEDDING[parts[5]]

    edges: list[Edge | None] = [None] * m
    edge_lines = [0] * m
    bipartition = None
    for lineno, raw in enumerate(lines[2:], start=3):
        line = raw.strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "edge":
            if len(fields) != 6:
                fail("expected 'edge <id> <u> <label_u> <v> <label_v>'", lineno)
            try:
                eid, u, lu, v, lv = (int(x) for x in fields[1:])
            except ValueError:
                fail("edge fields must be integers", lineno)
            if not 0 <= eid < m:
                fail(f"edge id {eid} out of range 0..{m - 1}", lineno)
            if edges[eid] is not None:
                fail(f"duplicate edge id {eid}", lineno)
            edges[eid] = Edge(u, lu, v, lv)
            edge_lines[eid] = lineno
        elif fields[0] == "bipartition":
            if bipartition is not None:
                fail("repeated bipartition line", lineno)
            if len(fields) < 2 or fields[1] != "L:":
                fail("expected 'bipartition L: <ids...>'", lineno)
            try:
                left = frozenset(int(x) for x in fields[2:])
            except ValueError:
                fail("bipartition ids must be integers", lineno)
            for w in left:
                if not 0 <= w < n:
                    fail(f"dangling vertex id {w}", lineno)
            bipartition = (left, frozenset(range(n)) - left)
        else:
            fail(f"unknown directive {fields[0]!r}", lineno)
    missing = [i for i, e in enumerate(edges) if e is None]
    if missing:
        fail(f"missing edge ids {missing[:4]}", len(lines))
    if embedding_kind == "bipartition" and bipartition is None:
        fail("embedding 'bipartite' requires a bipartition line", len(lines))
    try:
        return LabeledGraph(n, tuple(edges), embedding_kind, bipartition)  # type: ignore[arg-type]
    except EdgeError as exc:
        raise GraphFormatError(str(exc), edge_lines[exc.edge]) from exc
