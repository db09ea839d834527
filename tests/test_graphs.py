import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eightvertex.graphs import (
    EMBEDDING_KINDS,
    LABELS,
    Edge,
    GraphFormatError,
    LabeledGraph,
    detect_bipartition,
    gen_k44,
    gen_octahedron,
    gen_torus,
    parse_graph,
    serialize_graph,
    validate,
)


def test_torus_sizes():
    for rows, cols in ((2, 2), (2, 4), (3, 4), (4, 4), (5, 3)):
        g = gen_torus(rows, cols)
        assert g.vertex_count == rows * cols
        assert g.edge_count == 2 * rows * cols


def test_torus_2x2_has_parallel_edges():
    g = gen_torus(2, 2)
    assert g.vertex_count == 4 and g.edge_count == 8
    pairs = [frozenset((e.u, e.v)) for e in g.edges]
    assert any(pairs.count(p) == 2 for p in pairs)


def test_torus_bipartition_only_for_even_dims():
    assert gen_torus(4, 4).bipartition is not None
    assert gen_torus(2, 4).bipartition is not None
    assert gen_torus(3, 4).bipartition is None


def test_torus_rejects_degenerate_dims():
    with pytest.raises(ValueError):
        gen_torus(1, 4)


def test_octahedron_counts():
    g = gen_octahedron()
    assert g.vertex_count == 6
    assert g.edge_count == 12
    degrees = [0] * 6
    for e in g.edges:
        degrees[e.u] += 1
        degrees[e.v] += 1
    assert degrees == [4] * 6


def test_k44_counts_and_bipartition():
    g = gen_k44()
    assert g.vertex_count == 8 and g.edge_count == 16
    left, right = g.bipartition
    assert (len(left), len(right)) == (4, 4)
    # cycle-space dimension m - n + 1 for a connected graph
    assert g.edge_count - g.vertex_count + 1 == 9


def test_validate_rejects_duplicate_label():
    edges = (
        Edge(0, 1, 0, 1),  # both half-edges claim label 1 at vertex 0
        Edge(0, 2, 1, 1),
        Edge(0, 3, 1, 2),
        Edge(0, 4, 1, 3),
        Edge(1, 4, 1, 4),
    )
    with pytest.raises(ValueError, match="duplicate label"):
        validate(LabeledGraph(2, edges))


def test_validate_rejects_wrong_degree():
    edges = (Edge(0, 1, 1, 1), Edge(0, 2, 1, 2), Edge(0, 3, 1, 3))
    with pytest.raises(ValueError, match="not 4-regular"):
        validate(LabeledGraph(2, edges))


@pytest.mark.parametrize("make", [gen_octahedron, gen_k44, lambda: gen_torus(3, 4)])
def test_serialize_parse_roundtrip(make):
    g = make()
    text = serialize_graph(g)
    back = parse_graph(text)
    assert back.vertex_count == g.vertex_count
    assert back.edges == g.edges
    assert back.embedding_kind == g.embedding_kind
    assert back.bipartition == g.bipartition
    assert serialize_graph(back) == text


def test_parse_reports_line_numbers():
    g = gen_k44()
    lines = serialize_graph(g).splitlines()
    lines[3] = "edge 1 0 1 99 1"  # dangling vertex id on line 4
    with pytest.raises(GraphFormatError, match="line 4.*dangling"):
        parse_graph("\n".join(lines))


def test_parse_rejects_bad_header():
    with pytest.raises(GraphFormatError, match="line 1"):
        parse_graph("not-a-graph\n")


def test_parse_rejects_duplicate_label_with_line():
    text = (
        "8vx-graph 1\n"
        "vertices 2 edges 4 embedding none\n"
        "edge 0 0 1 1 1\n"
        "edge 1 0 1 1 2\n"  # vertex 0 repeats label 1
        "edge 2 0 3 1 3\n"
        "edge 3 0 4 1 4\n"
        "\n\n"
    )
    with pytest.raises(GraphFormatError, match="line 4: vertex 0: duplicate label 1"):
        parse_graph(text)


def test_parse_reports_edge_within_one_side_at_its_line():
    text = (
        "8vx-graph 1\n"
        "vertices 2 edges 4 embedding bipartite\n"
        "edge 0 0 1 1 1\n"
        "edge 1 0 2 0 3\n"  # a self-loop joins side L to itself
        "edge 2 0 4 1 3\n"
        "edge 3 1 2 1 4\n"
        "bipartition L: 0\n"
    )
    with pytest.raises(GraphFormatError, match="line 4: edge 1 does not join the two sides"):
        parse_graph(text)


def test_parse_rejects_repeated_bipartition_line():
    text = (
        "8vx-graph 1\n"
        "vertices 2 edges 4 embedding bipartite\n"
        "edge 0 0 1 1 1\n"
        "edge 1 0 2 1 2\n"
        "edge 2 0 3 1 3\n"
        "edge 3 0 4 1 4\n"
        "bipartition L: 0\n"
        "bipartition L: 1\n"  # would silently swap the sides
    )
    with pytest.raises(GraphFormatError, match="line 8: repeated bipartition line"):
        parse_graph(text)
    assert parse_graph(text.rsplit("bipartition", 1)[0]).bipartition[0] == frozenset({0})


@pytest.mark.parametrize("size_line, message", [
    ("vertices 2 edges 3 embedding none", "has 4 edges, not 3"),
    ("vertices 2 edges 5 embedding none", "has 4 edges, not 5"),
    # refused from line 2 alone, before an edge table of 10^12 slots is allocated
    ("vertices 2 edges 1000000000000 embedding none", "has 4 edges, not 1000000000000"),
    ("vertices -1 edges -2 embedding none", "negative vertex count -1"),
    # consistent counts, but more edges than lines after the header
    ("vertices 1000000000000 edges 2000000000000 embedding none",
     "2000000000000 edges need as many edge lines, but only 0 lines follow"),
])
def test_parse_checks_sizes_on_line_2(size_line, message):
    with pytest.raises(GraphFormatError, match=f"line 2: .*{message}"):
        parse_graph(f"8vx-graph 1\n{size_line}\n")


def test_detect_bipartition_on_parsed_graph():
    g = parse_graph(serialize_graph(gen_torus(2, 4)))
    sides = detect_bipartition(g)
    assert sides is not None
    left, right = sides
    for e in g.edges:
        assert (e.u in left) != (e.v in left)
    assert detect_bipartition(gen_octahedron()) is None


@st.composite
def paired_graphs(draw):
    """A uniform pairing of the 4N half-edges, in random order and direction: loops
    and parallel edges included."""
    n = draw(st.integers(0, 6))
    halves = draw(st.permutations([(v, lab) for v in range(n) for lab in LABELS]))
    edges = tuple(Edge(*halves[i], *halves[i + 1]) for i in range(0, len(halves), 2))
    kind = draw(st.sampled_from(["none", "rotation_system"]))
    return validate(LabeledGraph(n, edges, kind))


@st.composite
def bipartite_graphs(draw):
    """A pairing of the left side's half-edges with the right side's, over a random
    split of the vertices into two equal sides."""
    side = draw(st.integers(0, 4))
    left = frozenset(draw(st.permutations(range(2 * side)))[:side])
    right = frozenset(range(2 * side)) - left
    lhalves = [(v, lab) for v in sorted(left) for lab in LABELS]
    rhalves = draw(st.permutations([(v, lab) for v in sorted(right) for lab in LABELS]))
    flips = draw(st.lists(st.booleans(), min_size=len(lhalves), max_size=len(lhalves)))
    edges = tuple(
        Edge(*b, *a) if flip else Edge(*a, *b) for a, b, flip in zip(lhalves, rhalves, flips)
    )
    kind = draw(st.sampled_from(EMBEDDING_KINDS))
    return validate(LabeledGraph(2 * side, edges, kind, (left, right)))


GENERATED = st.one_of(
    st.builds(gen_torus, st.integers(2, 5), st.integers(2, 5)),
    st.sampled_from([gen_octahedron(), gen_k44()]),
)


@settings(max_examples=80, deadline=None)
@given(graph=st.one_of(paired_graphs(), bipartite_graphs(), GENERATED))
def test_parse_inverts_serialize(graph):
    text = serialize_graph(graph)
    assert parse_graph(text) == graph
    assert serialize_graph(parse_graph(text)) == text
