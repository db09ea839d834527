from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eightvertex import states
from eightvertex.exact import (
    FRONTIER_CAP,
    _frontier_plan,
    as_params,
    census_8v,
    census_ec,
    format_rational,
    holant_exact,
    z8v_exact,
    zec_exact,
)
from eightvertex.graphs import Edge, LabeledGraph, gen_torus, validate
from eightvertex.states import BLOCK_MOVES, cycle_basis
from eightvertex.transforms import MZ, MHZ, PLANAR_SWAP, bipartite_group, planar_group

from ._brute import census_per_state, holant_naive, random_rationals, z8v_naive, zec_naive
from .conftest import build_k5

# signed rationals with small denominators, zero included
rationals = st.fractions(min_value=-3, max_value=3, max_denominator=7)
param_vectors = st.tuples(rationals, rationals, rationals, rationals)


def test_unweighted_counts(octahedron, k44, torus22):
    assert z8v_exact(octahedron, (1, 1, 1, 1)) == 128
    assert zec_exact(octahedron, (1, 1, 1, 1)) == 128
    assert z8v_exact(k44, (1, 1, 1, 1)) == 512
    assert z8v_exact(torus22, (1, 1, 1, 1)) == 32


def test_k44_sink_source_states_only(k44):
    # only the two all-one-way orientations have every vertex in class D
    assert z8v_exact(k44, (0, 0, 0, 1)) == 2


def test_census_totals_and_evaluation(octahedron):
    census = census_8v(octahedron)
    assert census.total() == 128
    assert census.evaluate((1, 1, 1, 1)) == 128
    assert census.dimension == 7


def test_census_orientation_nd_even(octahedron, k44, torus24, k5, loop_graph):
    # sinks pair with sources, so n_D is even in every realized profile
    for g in (octahedron, k44, torus24, k5, loop_graph):
        for (na, nb, nc, nd), count in census_8v(g).counts.items():
            assert count > 0
            assert nd % 2 == 0
            assert na + nb + nc + nd == g.vertex_count


def test_coloring_census_can_have_odd_nd(octahedron):
    # all-red minus a facial triangle leaves three all-red vertices
    keys = census_ec(octahedron).counts.keys()
    assert any(nd % 2 == 1 for (_, _, _, nd) in keys)


def test_census_matches_naive_enumeration(octahedron, torus22, loop_graph, k5):
    rng = Random(5)
    for g in (octahedron, torus22, loop_graph, k5):
        census_o = census_8v(g)
        census_c = census_ec(g)
        for _ in range(20):
            p = random_rationals(rng, signed=True)
            assert census_o.evaluate(p) == z8v_naive(g, p)
            assert census_c.evaluate(p) == zec_naive(g, p)


def test_counting_identity_small_graphs(octahedron, torus22, torus24, k44):
    from eightvertex.states import cycle_basis

    from ._brute import even_colorings_naive, even_orientations_naive

    for g in (octahedron, torus22, torus24, k44):
        dim = cycle_basis(g).dimension
        assert len(even_orientations_naive(g)) == 1 << dim
        assert len(even_colorings_naive(g)) == 1 << dim


def test_d_flip_identity(octahedron, k44, torus34, k5, loop_graph):
    rng = Random(11)
    for g in (octahedron, k44, torus34, k5, loop_graph):
        census = census_8v(g)
        for _ in range(20):
            a, b, c, d = random_rationals(rng)
            assert census.evaluate((a, b, c, d)) == census.evaluate((a, b, c, -d))


def test_all_flip_identity_even_order(octahedron, k44, torus34, loop_graph):
    rng = Random(13)
    for g in (octahedron, k44, torus34, loop_graph):
        assert g.vertex_count % 2 == 0
        census = census_8v(g)
        for _ in range(20):
            p = random_rationals(rng)
            neg = tuple(-x for x in p)
            assert census.evaluate(p) == census.evaluate(neg)


def test_all_flip_negates_on_odd_order(k5):
    rng = Random(17)
    census = census_8v(k5)
    for _ in range(10):
        p = random_rationals(rng)
        neg = tuple(-x for x in p)
        assert census.evaluate(neg) == -census.evaluate(p)


def test_holographic_identities_any_graph(octahedron, k44, torus22, k5, loop_graph):
    # z8v(p) equals zec at MZ p and at MHZ p on every 4-regular graph
    rng = Random(23)
    for g in (octahedron, k44, torus22, k5, loop_graph):
        c8 = census_8v(g)
        cec = census_ec(g)
        for _ in range(5):
            p = random_rationals(rng)
            lhs = c8.evaluate(p)
            assert lhs == cec.evaluate(MZ.apply(p))
            assert lhs == cec.evaluate(MHZ.apply(p))


def test_planar_swap_identity(octahedron, torus22, torus24):
    rng = Random(29)
    for g in (octahedron, torus22, torus24):
        c8 = census_8v(g)
        cec = census_ec(g)
        for _ in range(5):
            p = random_rationals(rng)
            assert c8.evaluate(p) == cec.evaluate(PLANAR_SWAP.apply(p))


def test_bipartite_identity(k44, torus22, torus24):
    rng = Random(31)
    for g in (k44, torus22, torus24):
        c8 = census_8v(g)
        cec = census_ec(g)
        for _ in range(5):
            p = random_rationals(rng)
            assert c8.evaluate(p) == cec.evaluate(p)


def test_dim_cap_raises(torus44):
    with pytest.raises(ValueError, match="cap"):
        census_8v(torus44, dim_cap=10)


def two_k5() -> LabeledGraph:
    """Two disjoint copies of K5: k = 20 - 10 + 2 = 12, the moves in one block."""
    k5 = build_k5()
    edges = [*k5.edges, *(Edge(e.u + 5, e.label_u, e.v + 5, e.label_v) for e in k5.edges)]
    return validate(LabeledGraph(10, tuple(edges)))


def assert_census_is_per_state(graph):
    k = cycle_basis(graph).dimension
    for model, census in (("8v", census_8v(graph)), ("ec", census_ec(graph))):
        assert census.counts == census_per_state(graph, model)
        assert (census.vertex_count, census.dimension) == (graph.vertex_count, k)
        assert census.total() == 1 << k


def test_census_matches_per_state_reference(fixture_censuses):
    # nine fixture graphs, k from 3 (loop_graph) to 17 (torus 4x4): both sides of the block
    dims = [c8.dimension for _, c8, _ in fixture_censuses]
    assert min(dims) < BLOCK_MOVES < max(dims) and 13 in dims
    for g, c8, cec in fixture_censuses:
        assert c8.counts == census_per_state(g, "8v")
        assert cec.counts == census_per_state(g, "ec")


def test_census_at_the_block_size_and_on_the_empty_graph():
    graph = two_k5()
    assert cycle_basis(graph).dimension == BLOCK_MOVES
    assert_census_is_per_state(graph)
    empty = validate(LabeledGraph(0, ()))
    assert_census_is_per_state(empty)
    assert census_8v(empty).counts == census_ec(empty).counts == {(0, 0, 0, 0): 1}


@pytest.mark.parametrize("block", [1, 2, 5, 9])
def test_census_does_not_depend_on_the_block_size(monkeypatch, torus24, loop_graph, k5, block):
    # torus 2x4 has k = 9, loop_graph 3, K5 6: blocks of 2 and 5 leave a narrower last chunk
    monkeypatch.setattr(states, "BLOCK_MOVES", block)
    for g in (torus24, loop_graph, k5):
        assert_census_is_per_state(g)


def test_holant_all_ones_counts_assignments(octahedron):
    assert holant_exact(octahedron, [1] * 16) == 1 << 12


def test_holant_matches_coloring_oracle(octahedron, torus22, loop_graph):
    rng = Random(37)
    for g in (octahedron, torus22, loop_graph):
        p = random_rationals(rng)
        # same placement as constraint_from_params, but over the rationals
        table = [Fraction(0)] * 16
        a, b, c, d = p
        table[0b1100] = table[0b0011] = a
        table[0b0110] = table[0b1001] = b
        table[0b0101] = table[0b1010] = c
        table[0b0000] = table[0b1111] = d
        value = holant_exact(g, table)
        assert value == census_ec(g).evaluate(p)
        assert value == holant_naive(g, table)


def test_holant_matches_naive_sum(octahedron, k44, torus22, loop_graph, two_components):
    rng = Random(41)
    for g in (octahedron, k44, torus22, loop_graph, two_components):
        ints = [rng.randint(-3, 3) for _ in range(16)]
        # Fractions only on even masks, so the 2^m sum stops early on odd ones
        fracs = [
            Fraction(rng.randint(-5, 5), rng.randint(1, 4)) if bin(i).count("1") % 2 == 0
            else Fraction(0)
            for i in range(16)
        ]
        cplx = [complex(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(16)]
        for table in (ints, fracs, cplx):
            value = holant_exact(g, table)
            assert value == holant_naive(g, table)
            assert type(value) is type(table[0])


def test_holant_unweighted_matches_orientation_count(octahedron):
    table = [0] * 16
    table[0b1100] = table[0b0011] = 1
    table[0b0110] = table[0b1001] = 1
    table[0b0101] = table[0b1010] = 1
    table[0b0000] = table[0b1111] = 1
    assert holant_exact(octahedron, table) == 128


def test_frontier_width_refused():
    wide = gen_torus(12, 12)
    assert _frontier_plan(wide)[1] == 26 > FRONTIER_CAP
    for call in (
        lambda: z8v_exact(wide, (1, 1, 1, 1)),
        lambda: zec_exact(wide, (1, 1, 1, 1)),
        lambda: holant_exact(wide, [1] * 16),
    ):
        with pytest.raises(ValueError, match=f"frontier width 26 exceeds cap {FRONTIER_CAP}"):
            call()


def test_params_parsing_and_formatting():
    p = as_params(["1/2", 3, Fraction(1, 4), "2"])
    assert p == (Fraction(1, 2), Fraction(3), Fraction(1, 4), Fraction(2))
    assert format_rational(Fraction(1, 2)) == "1/2"
    assert format_rational(Fraction(8, 4)) == "2"
    with pytest.raises(ValueError):
        as_params([1, 2, 3])


def test_two_component_graph_counts(two_components):
    from eightvertex.states import cycle_basis

    dim = cycle_basis(two_components).dimension
    m, n = two_components.edge_count, two_components.vertex_count
    assert dim == m - n + 2
    assert z8v_exact(two_components, (1, 1, 1, 1)) == 1 << dim
    # multiplicative over components: two copies of the 2x2 torus
    base = z8v_exact(gen_torus(2, 2), (2, 1, 1, 1))
    assert z8v_exact(two_components, (2, 1, 1, 1)) == base * base


@pytest.fixture(scope="module")
def fixture_censuses(octahedron, k44, torus22, torus24, torus34, torus44, k5, loop_graph,
                     two_components):
    graphs = (octahedron, k44, torus22, torus24, torus34, torus44, k5, loop_graph,
              two_components)
    return [(g, census_8v(g), census_ec(g)) for g in graphs]


@settings(max_examples=12, deadline=None)
@given(p=param_vectors)
def test_contraction_matches_census(fixture_censuses, p):
    for g, c8, cec in fixture_censuses:
        assert z8v_exact(g, p) == c8.evaluate(p)
        assert zec_exact(g, p) == cec.evaluate(p)


def test_contraction_at_zero_entry_points(fixture_censuses):
    # the estimator's exact fallback gets planned images with zero entries,
    # where the frontier drops every state that touches a zero class
    rng = Random(43)
    for zeros in range(16):
        p = [0 if zeros >> i & 1 else x for i, x in enumerate(random_rationals(rng, True))]
        for g, c8, cec in fixture_censuses:
            assert z8v_exact(g, p) == c8.evaluate(p)
            assert zec_exact(g, p) == cec.evaluate(p)


@st.composite
def multigraphs(draw):
    """A labeled 4-regular multigraph on 1-5 vertices from a shuffled pairing of its
    half-edges: self-loops, parallel edges and several components all occur."""
    n = draw(st.integers(1, 5))
    half = draw(st.permutations([(v, label) for v in range(n) for label in (1, 2, 3, 4)]))
    edges = tuple(Edge(*half[i], *half[i + 1]) for i in range(0, 4 * n, 2))
    return validate(LabeledGraph(n, edges))


@settings(max_examples=60, deadline=None)
@given(g=multigraphs(), table=st.lists(st.integers(-3, 3), min_size=16, max_size=16),
       p=param_vectors)
def test_contraction_on_random_multigraphs(g, table, p):
    assert holant_exact(g, table) == holant_naive(g, table)
    assert z8v_exact(g, p) == census_8v(g).evaluate(p)
    assert zec_exact(g, p) == census_ec(g).evaluate(p)


@settings(max_examples=3, deadline=None)
@given(
    p=st.tuples(*[st.fractions(min_value=Fraction(1, 7), max_value=3, max_denominator=7)] * 4)
    | param_vectors
)
def test_group_invariance_torus46(p):
    # k = 25: a census of 2^25 states per point would take minutes
    torus46 = gen_torus(4, 6)
    images = {tuple(el.matrix.apply(p)) for el in planar_group() + bipartite_group()}
    values = {z8v_exact(torus46, q) for q in images}
    assert values == {z8v_exact(torus46, p)}
    assert zec_exact(torus46, MZ.apply(p)) in values
    assert zec_exact(torus46, MHZ.apply(p)) in values


def test_torus66_values():
    torus = gen_torus(6, 6)
    assert z8v_exact(torus, (1, 1, 1, 1)) == 2**37
    a, b, c, d = Fraction(3, 7), Fraction(-2), Fraction(5, 3), Fraction(1)
    # orienting every edge east or south puts each vertex in class B, and
    # xoring an even coloring onto it swaps A<->C and B<->D
    assert zec_exact(torus, (a, b, c, d)) == z8v_exact(torus, (c, d, a, b))


def test_greedy_frontier_widths():
    for rows, cols, width in ((4, 5, 12), (6, 6, 14), (8, 8, 18)):
        assert _frontier_plan(gen_torus(rows, cols))[1] <= width
