import contextlib
import os

import pytest
from hypothesis import strategies as st

from eightvertex.graphs import (
    Edge,
    LabeledGraph,
    gen_k44,
    gen_octahedron,
    gen_torus,
)


@pytest.fixture(scope="session")
def octahedron():
    return gen_octahedron()


@pytest.fixture(scope="session")
def k44():
    return gen_k44()


@pytest.fixture(scope="session")
def torus22():
    return gen_torus(2, 2)


@pytest.fixture(scope="session")
def torus24():
    return gen_torus(2, 4)


@pytest.fixture(scope="session")
def torus34():
    return gen_torus(3, 4)


@pytest.fixture(scope="session")
def torus44():
    return gen_torus(4, 4)


def build_k5() -> LabeledGraph:
    """K5 with labels by neighbor rank: 4-regular, non-planar, odd order."""
    edges = []
    for u in range(5):
        for v in range(u + 1, 5):
            label_u = sorted(set(range(5)) - {u}).index(v) + 1
            label_v = sorted(set(range(5)) - {v}).index(u) + 1
            edges.append(Edge(u, label_u, v, label_v))
    return LabeledGraph(5, tuple(edges))


@pytest.fixture(scope="session")
def k5():
    return build_k5()


def build_loop_graph() -> LabeledGraph:
    """Two vertices, a self-loop at each, two parallel edges between them."""
    edges = (
        Edge(0, 1, 0, 2),
        Edge(1, 1, 1, 2),
        Edge(0, 3, 1, 3),
        Edge(0, 4, 1, 4),
    )
    return LabeledGraph(2, edges)


@pytest.fixture(scope="session")
def loop_graph():
    return build_loop_graph()


def disjoint_union(*graphs: LabeledGraph) -> LabeledGraph:
    """The graphs side by side in one vertex numbering, each shifted past the ones before."""
    edges, shift = [], 0
    for graph in graphs:
        edges += [Edge(e.u + shift, e.label_u, e.v + shift, e.label_v) for e in graph.edges]
        shift += graph.vertex_count
    return LabeledGraph(shift, tuple(edges))


def build_two_components() -> LabeledGraph:
    """Disjoint union of two 2x2 tori inside one vertex numbering."""
    return disjoint_union(gen_torus(2, 2), gen_torus(2, 2))


@pytest.fixture(scope="session")
def two_components():
    return build_two_components()


@st.composite
def multigraphs(draw, max_vertices=5, embedding="none"):
    """A labeled 4-regular multigraph on 1-``max_vertices`` vertices from a shuffled pairing
    of its half-edges: self-loops, parallel edges and several components all occur.
    With ``embedding="rotation_system"`` the labels read as its rotation system."""
    n = draw(st.integers(1, max_vertices))
    half = draw(st.permutations([(v, label) for v in range(n) for label in (1, 2, 3, 4)]))
    edges = tuple(Edge(*half[i], *half[i + 1]) for i in range(0, 4 * n, 2))
    return LabeledGraph(n, edges, embedding)


@contextlib.contextmanager
def one_cpu():
    """Cut this thread's CPU affinity to its first allowed CPU; restore it on exit."""
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, sorted(before)[:1])
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


needs_affinity = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity"), reason="no CPU affinity on this platform"
)
