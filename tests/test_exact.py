import tracemalloc
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eightvertex import exact, states
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
from eightvertex.graphs import Edge, LabeledGraph, gen_octahedron, gen_torus
from eightvertex.states import BLOCK_MOVES, cycle_basis
from eightvertex.transforms import MZ, MHZ, PLANAR_SWAP, bipartite_group, planar_group

from ._brute import (
    census_per_state,
    greedy_plan_from_zero,
    holant_naive,
    random_rationals,
    relabel_vertices,
    z8v_naive,
    zec_naive,
)
from .conftest import build_k5, disjoint_union

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


@st.composite
def multigraphs(draw, max_vertices=5):
    """A labeled 4-regular multigraph on 1-``max_vertices`` vertices from a shuffled pairing
    of its half-edges: self-loops, parallel edges and several components all occur."""
    n = draw(st.integers(1, max_vertices))
    half = draw(st.permutations([(v, label) for v in range(n) for label in (1, 2, 3, 4)]))
    edges = tuple(Edge(*half[i], *half[i + 1]) for i in range(0, 4 * n, 2))
    return LabeledGraph(n, edges)


def two_k5() -> LabeledGraph:
    """Two disjoint copies of K5: k = 20 - 10 + 2 = 12, the moves in one block."""
    return disjoint_union(build_k5(), build_k5())


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
    empty = LabeledGraph(0, ())
    assert_census_is_per_state(empty)
    assert census_8v(empty).counts == census_ec(empty).counts == {(0, 0, 0, 0): 1}


@pytest.mark.slow
def test_census_by_reversal_classes_on_three_components():
    # k = 29 near the default cap: 2^26 states counted, in about a second per census;
    # one state per arrow-reversal class is counted and the counts scaled by 2^c
    # (the octahedron has no class swap, so the whole graph has none)
    graph = disjoint_union(gen_torus(2, 5), gen_torus(2, 5), gen_octahedron())
    basis = cycle_basis(graph)
    assert (basis.dimension, basis.components) == (29, 3)
    assert exact._class_swaps(graph) == []
    rng = Random(53)
    for census, oracle in ((census_8v(graph), z8v_exact), (census_ec(graph), zec_exact)):
        assert census.dimension == basis.dimension
        assert census.total() == 1 << basis.dimension
        assert all(count % (1 << basis.components) == 0 for count in census.counts.values())
        for _ in range(2):
            p = random_rationals(rng, signed=True)
            assert census.evaluate(p) == oracle(graph, p)


def test_census_refuses_moves_that_miss_reversal_classes(monkeypatch, two_components, torus44):
    # dropping one more move misses half the orbits; keeping every move, or
    # the moves of the arrow-reversal census beside the swaps (each swap set
    # then lies in the span of those moves and the components), counts each
    # orbit more than once: all are refused
    real, real_swaps = exact._orbit_moves, exact._class_swaps
    assert real(states.CycleKernel(two_components))[2]

    def drop_one_more(kernel):
        keep, components, swaps = real(kernel)
        return keep[1:], components, swaps

    def keep_all(kernel):
        return list(range(len(kernel.moves))), *real(kernel)[1:]

    def moves_before_swaps(kernel):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(exact, "_class_swaps", lambda graph: [])
            keep = real(kernel)[0]
        return keep, *real(kernel)[1:]

    for mutant in (drop_one_more, keep_all, moves_before_swaps):
        monkeypatch.setattr(exact, "_orbit_moves", mutant)
        for census in (census_8v, census_ec):
            with pytest.raises(ValueError, match="one state per class"):
                census(two_components)
    # a swap counted as if it kept every class spans a basis, so only the
    # per-state reference catches it
    monkeypatch.setattr(exact, "_orbit_moves", real)
    monkeypatch.setattr(exact, "_class_swaps",
                        lambda graph: [(s, (0, 1, 2, 3)) for s, _ in real_swaps(graph)])
    for census, model in ((census_8v, "8v"), (census_ec, "ec")):
        assert census(torus44).counts != census_per_state(torus44, model)


def assert_swaps_permute_classes(graph):
    """Each swap set is even and xors one pairing's mask xm, or its complement,
    onto every vertex's mask, and its permutation is the class map of that xor."""
    for edge_set, perm in exact._class_swaps(graph):
        xors = [0] * graph.vertex_count
        for eid in edge_set:
            e = graph.edges[eid]
            xors[e.u] ^= 1 << (e.label_u - 1)
            xors[e.v] ^= 1 << (e.label_v - 1)
        xm = min(xors[0], xors[0] ^ 0b1111)
        assert xm in (0b0101, 0b0011, 0b0110)
        assert set(xors) <= {xm, xm ^ 0b1111}
        for mask, c in states.CLASS_BY_MASK.items():
            assert perm[c] == states.CLASS_BY_MASK[mask ^ xm]


def test_class_swaps_of_tori_k44_and_the_octahedron(octahedron, k44, torus44):
    # torus 4x5 has an odd column count, so only the pairing 1,3|2,4 is
    # consistent: the horizontal edges, which swap A with B and C with D
    torus45 = gen_torus(4, 5)
    (edge_set, perm), = exact._class_swaps(torus45)
    assert edge_set == {eid for eid, e in enumerate(torus45.edges) if e.label_u == 3}
    assert perm == (1, 0, 3, 2)
    for graph, swaps in ((torus45, 1), (torus44, 2), (gen_torus(4, 6), 2), (k44, 2),
                         (octahedron, 0)):
        assert len(exact._orbit_moves(states.CycleKernel(graph))[2]) == swaps
        assert len(exact._class_swaps(graph)) == (0, 1, 3)[swaps]
        assert_swaps_permute_classes(graph)


@settings(max_examples=80, deadline=None)
@given(g=multigraphs(max_vertices=7))
def test_census_is_per_state_on_random_multigraphs(g):
    assert_swaps_permute_classes(g)
    assert census_8v(g).counts == census_per_state(g, "8v")
    assert census_ec(g).counts == census_per_state(g, "ec")


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


# zero entries half the time: the contraction fills its tables at nonzero ones only
TABLE_ENTRIES = [
    st.one_of(st.just(0), st.integers(-3, 3)),
    st.one_of(st.just(Fraction(0)), rationals),
    st.one_of(st.just(0j), st.builds(complex, st.integers(-2, 2), st.integers(-2, 2))),
]


@settings(max_examples=60, deadline=None)
@given(g=multigraphs(),
       table=st.sampled_from(TABLE_ENTRIES).flatmap(lambda e: st.lists(e, min_size=16, max_size=16)),
       p=param_vectors)
def test_contraction_on_random_multigraphs(g, table, p):
    value = holant_exact(g, table)
    assert value == holant_naive(g, table)
    assert type(value) is type(table[0])
    assert z8v_exact(g, p) == census_8v(g).evaluate(p)
    assert zec_exact(g, p) == census_ec(g).evaluate(p)


@settings(max_examples=60, deadline=None)
@given(g=multigraphs(max_vertices=14),
       table=st.lists(st.integers(-3, 3), min_size=16, max_size=16), p=param_vectors)
def test_plan_against_the_single_greedy_order(g, table, p):
    # the order from vertex 0 is one of the planner's tries, so it is never narrower,
    # and every exact route gives the same value under either plan
    steps, width = _frontier_plan(g)
    assert width <= greedy_plan_from_zero(g)[1]
    assert sorted(v for v, *_ in steps) == list(range(g.vertex_count))
    values = [(z8v_exact(g, p), zec_exact(g, p), holant_exact(g, table))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact, "_frontier_plan", greedy_plan_from_zero)
        values.append((z8v_exact(g, p), zec_exact(g, p), holant_exact(g, table)))
    assert values[0] == values[1]


@settings(max_examples=60, deadline=None)
@given(g=multigraphs(), block=st.integers(1, 4), p=param_vectors)
def test_census_under_small_blocks_on_random_multigraphs(g, block, p):
    # many blocks per census: each cached code row serves several blocks,
    # and a last chunk narrower than the block size occurs
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(states, "BLOCK_MOVES", block)
        assert census_8v(g).evaluate(p) == z8v_exact(g, p)
        assert census_ec(g).evaluate(p) == zec_exact(g, p)


@settings(max_examples=60, deadline=None)
@given(g=multigraphs(max_vertices=6), block=st.integers(1, 4),
       rng=st.randoms(use_true_random=False))
def test_census_under_any_high_chunk(g, block, rng):
    # any order of the kept moves gives the same census: the rows summed once
    # are those of the vertices that no move past the first chunk touches
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(states, "BLOCK_MOVES", block)
        mp.setattr(exact, "_block_order", lambda kernel, keep: rng.sample(keep, len(keep)))
        assert census_8v(g).counts == census_per_state(g, "8v")
        assert census_ec(g).counts == census_per_state(g, "ec")


def test_census_high_chunk_touches_few_vertices():
    # torus 4x5 keeps 19 moves: the 7 past the first chunk touch 12 of the 20
    # vertices, so a block adds 12 rows to the sum of the other 8
    kernel = states.CycleKernel(gen_torus(4, 5))
    keep = exact._orbit_moves(kernel)[0]
    order = exact._block_order(kernel, keep)
    assert sorted(order) == sorted(keep) and len(keep) == 19
    assert len({v for j in order[BLOCK_MOVES:] for v, _ in kernel.touch[j]}) == 12


class ZeroProductLog:
    """An int ring element whose products record each zero factor in ``log``."""

    log: list = []

    def __init__(self, value):
        self.value = value

    def __mul__(self, other):
        other = other.value if isinstance(other, ZeroProductLog) else other
        if self.value == 0 or other == 0:
            ZeroProductLog.log.append((self.value, other))
        return ZeroProductLog(self.value * other)

    __rmul__ = __mul__

    def __add__(self, other):
        return ZeroProductLog(self.value + (other.value if isinstance(other, ZeroProductLog)
                                            else other))

    __radd__ = __add__

    def __eq__(self, other):
        return self.value == (other.value if isinstance(other, ZeroProductLog) else other)

    def __hash__(self):
        return hash(self.value)


def test_contraction_multiplies_no_zero_factor(monkeypatch, torus44):
    # the 8v-shaped table is 0 at the 8 odd masks, the random one at 12 of 16;
    # a dense matmul of every closed value by every table entry, zeros
    # included, fails here
    rng = Random(40)
    shaped = [(2, 3, 5, 7)[c] if c >= 0 else 0 for c in states.CLASS16]
    sparse = [0] * 16
    for mask in rng.sample(range(16), 4):
        sparse[mask] = rng.choice([-3, -2, -1, 1, 2, 3])
    monkeypatch.setattr(ZeroProductLog, "log", [])
    for table in (shaped, sparse):
        plain = exact._contract(torus44, [table] * torus44.vertex_count)
        checked = exact._contract(torus44, [[ZeroProductLog(w) for w in table]]
                                  * torus44.vertex_count)
        assert plain != 0 and isinstance(checked, ZeroProductLog) and checked == plain
    assert ZeroProductLog.log == []


def test_census_memory_stays_near_one_block():
    # the cached rows are those of the (vertex, start) pairs that occur: a
    # table of all 16 per vertex would take 2.6 MB on torus 4x5
    torus = gen_torus(4, 5)
    tracemalloc.start()
    try:
        census_8v(torus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2**20


def test_census_of_torus46():
    # k = 25: two chunks above the first, so the blocks' starts take the
    # product of two tables' columns
    torus = gen_torus(4, 6)
    census = census_8v(torus)
    assert census.dimension == 25 and census.total() == 1 << 25
    p = (Fraction(3, 7), Fraction(-2), Fraction(5, 3), Fraction(1, 2))
    assert census.evaluate(p) == z8v_exact(torus, p)


@settings(max_examples=3, deadline=None)
@given(
    p=st.tuples(*[st.fractions(min_value=Fraction(1, 7), max_value=3, max_denominator=7)] * 4)
    | param_vectors
)
def test_group_invariance_torus46(p):
    # k = 25: the frontier contraction, far cheaper per point than a census of 2^25 states
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
    # the greedy order from vertex 0 alone sweeps the long rows: 12, 34, 130, 34 and
    # 66 on 4x5, 4x16, 4x64, 6x16 and 8x32; 12x12 stays above the cap
    for rows, cols, width in ((4, 5, 10), (6, 6, 14), (8, 8, 18), (4, 16, 10), (4, 64, 10),
                              (6, 16, 14), (8, 32, 18), (12, 12, 26)):
        assert _frontier_plan(gen_torus(rows, cols))[1] == width


@pytest.mark.parametrize("seed", range(3))
def test_plan_survives_shuffled_vertex_ids(seed):
    # ties by id scatter the frontier of a shuffled torus (20-24 on 8x8); the try
    # with ties to the latest reached vertex keeps the unshuffled widths
    assert _frontier_plan(relabel_vertices(gen_torus(4, 16), seed))[1] == 10
    assert _frontier_plan(relabel_vertices(gen_torus(8, 8), seed))[1] == 18


def test_plan_is_the_cheapest_of_the_narrowest():
    # on torus 4x5 two starts reach width 10; the cost is the pairs of each
    # step's join on a dense frontier, 2^(open before the step + opened)
    steps, width = _frontier_plan(gen_torus(4, 5))
    assert width == 10 and greedy_plan_from_zero(gen_torus(4, 5))[1] == 12
    open_count, cost = 0, 0
    for _, closed, opened, _ in steps:
        cost += 1 << open_count + len(opened)
        open_count += len(opened) - len(closed)
    assert cost == 40224
