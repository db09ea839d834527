from fractions import Fraction
from random import Random
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eightvertex.exact import census_8v
from eightvertex.graphs import LabeledGraph, gen_octahedron, gen_torus
from eightvertex.mcmc import (
    _RECOUNT_PERIOD,
    Chain,
    ChainConfig,
    exact_chain_diagnostics,
    sample,
)
from eightvertex.states import (
    CLASS16,
    CycleKernel,
    VertexClass,
    canonical_bipartite_orientation,
    canonical_planar_orientation,
    face_two_coloring,
    orientation_classes,
)

from ._brute import gibbs_weight, is_even_orientation, metropolis_reference

YZ_POINTS = [
    (1, 1, 1, 1),
    (2, 2, 3, 1),
    (3, 3, 3, 1),
    (2, 2, 2, 1),
    (1, 1, 1, Fraction(1, 2)),
]


def test_gibbs_weight_examples(octahedron, k44):
    tau = canonical_bipartite_orientation(k44)
    assert gibbs_weight(k44, tau, (1, 1, 1, 2)) == 256
    tau = canonical_planar_orientation(octahedron, face_two_coloring(octahedron))
    assert gibbs_weight(octahedron, tau, (1, 1, 3, 1)) == 729
    any_tau = tau
    assert gibbs_weight(octahedron, any_tau, (1, 1, 1, 1)) == 1
    with pytest.raises(ValueError, match="positive"):
        gibbs_weight(octahedron, tau, (1, 1, 0, 1))


def test_config_validation():
    with pytest.raises(ValueError, match="proposal"):
        ChainConfig(seed=0, proposal="teleport")
    with pytest.raises(ValueError, match="burn-in"):
        ChainConfig(seed=0, burn_in=-5)


# powers of two keep every float weight ratio exact, so the chain's float
# acceptance test and the reference chain's rational one agree bit for bit
DYADIC = st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(4)])
REFERENCE_GRAPHS = {"octahedron": gen_octahedron(), "torus2x2": gen_torus(2, 2)}


@pytest.mark.parametrize(
    "graph_name, proposal",
    [("octahedron", "basis-cycle"), ("torus2x2", "basis-cycle"), ("octahedron", "face")],
)
@settings(max_examples=12, deadline=None)
@given(params=st.tuples(DYADIC, DYADIC, DYADIC, DYADIC), seed=st.integers(0, 2**32 - 1))
@example(params=(Fraction(1),) * 4, seed=0)
@example(params=(Fraction(1), Fraction(1), Fraction(1), Fraction(2)), seed=1)
def test_chain_matches_reference_chain(graph_name, proposal, params, seed):
    graph = REFERENCE_GRAPHS[graph_name]
    kernel = CycleKernel(graph, proposal)
    chain = Chain(kernel, Random(seed))
    chain.set_params([float(x) for x in params])
    reference = metropolis_reference(graph, params, kernel.moves, seed, Fraction(1, 2), 300)
    for bits in reference:
        chain.advance(1)
        assert chain.orientation() == bits
        # the masks' classes and the cached counts match the orientation, which is even
        classes = orientation_classes(graph, bits)
        assert [CLASS16[m] for m in chain.masks] == classes
        assert chain.counts == [classes.count(c) for c in range(4)]


class ScriptedRng:
    """Stands in for Random: plays back set coins and moves, and fails on any extra draw."""

    def __init__(self, coins=(), moves=()):
        self.coins = list(coins)
        self.moves = list(moves)

    def random(self):
        return self.coins.pop(0)

    def getrandbits(self, k):
        move = self.moves.pop(0)
        assert 0 <= move < 1 << k
        return move


def _one_vertex_moves(n):
    """n moves, move j toggling two labels at vertex j alone.

    At uniform weights every proposal is taken without an acceptance coin,
    so the changed vertex shows the drawn move.
    """
    return SimpleNamespace(touch=[[(j, 0b11)] for j in range(n)], reference_masks=[0] * n)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 9, 17, 37, 65, 145])
def test_move_draw_matches_randrange(n):
    seed = 1000 + n
    chain = Chain(_one_vertex_moves(n), Random(seed))
    reference = Random(seed)
    moved = 0
    for _ in range(3000):
        before = list(chain.masks)
        chain.advance(1)
        changed = [v for v in range(n) if chain.masks[v] != before[v]]
        if reference.random() < 0.5:  # the laziness coin holds the state
            assert changed == []
        else:
            assert changed == [reference.randrange(n)]
            moved += 1
    assert moved > 1000
    assert chain.rng.getstate() == reference.getstate()


def test_lazy_coin_boundary():
    # a coin below 1/2 holds the state and draws no move; a coin of exactly
    # 1/2 draws one, which the uniform weights then take without a coin
    chain = Chain(_one_vertex_moves(3), ScriptedRng([0.4999, 0.5], [1]))
    chain.advance(1)
    assert chain.masks == [0, 0, 0] and chain.rng.moves == [1]
    chain.advance(1)
    assert chain.masks == [0, 0b11, 0]
    assert chain.rng.coins == [] and chain.rng.moves == []


def test_chain_needs_a_move():
    # the empty graph's coset is one state: refused, where a draw below 0 would spin
    with pytest.raises(ValueError, match="at least one move"):
        sample(LabeledGraph(0, ()), (1, 2, 2, 1), ChainConfig(seed=0), 3)


def test_periodic_recount_catches_drifted_counts(torus22):
    chain = Chain(CycleKernel(torus22), Random(3))
    chain.advance(_RECOUNT_PERIOD)  # a recount that agrees passes
    chain.counts[0] += 1
    with pytest.raises(AssertionError, match="drifted"):
        chain.advance(_RECOUNT_PERIOD)


def _chain_at(kernel, coords):
    """A chain moved to the reference xor the moves in ``coords`` by forced flips."""
    flips = [j for j in range(len(kernel.moves)) if coords >> j & 1]
    chain = Chain(kernel, ScriptedRng([0.9] * len(flips), flips))
    chain.advance(len(flips))
    return chain


def _flipped(bits, move):
    return tuple(b ^ (eid in move) for eid, b in enumerate(bits))


def test_uniform_point_accepts_every_proposal(torus22):
    # at (1,1,1,1) every ratio is 1: each proposal is taken without an
    # acceptance coin, from every state of the coset
    kernel = CycleKernel(torus22)
    for coords in range(1 << len(kernel.moves)):
        for move in range(len(kernel.moves)):
            chain = _chain_at(kernel, coords)
            chain.set_params([1.0] * 4)
            before = chain.orientation()
            chain.rng = ScriptedRng([0.9], [move])
            chain.advance(1)
            assert chain.orientation() == _flipped(before, kernel.moves[move])
            assert chain.rng.coins == [] and chain.rng.moves == []


def test_known_acceptance_ratio(torus22):
    # a flip that turns two class-C vertices into class D at (1,1,1,2) has
    # local weight ratio (2*2)/(1*1) = 4, so it is taken without a coin,
    # and its reverse is accepted exactly when the coin falls below 1/4
    kernel = CycleKernel(torus22)
    C, D = VertexClass.C, VertexClass.D
    found = 0
    for coords in range(1 << len(kernel.moves)):
        for move, touched in enumerate(kernel.touch):
            chain = _chain_at(kernel, coords)
            before = [CLASS16[chain.masks[v]] for v, _ in touched]
            after = [CLASS16[chain.masks[v] ^ xm] for v, xm in touched]
            if before != [C, C] or after != [D, D]:
                continue
            found += 1
            chain.set_params([1.0, 1.0, 1.0, 2.0])
            start = chain.orientation()
            flipped = _flipped(start, kernel.moves[move])
            # forward (ratio 4), back on coin 0.2499, forward, no way back on 0.2501
            chain.rng = ScriptedRng([0.9, 0.9, 0.2499, 0.9, 0.9, 0.2501], [move] * 4)
            seen = []
            for _ in range(4):
                chain.advance(1)
                seen.append(chain.orientation())
            assert seen == [flipped, start, flipped, flipped]
            assert chain.rng.coins == [] and chain.rng.moves == []
    assert found


def test_sampling_deterministic_and_sized(octahedron):
    cfg = ChainConfig(seed=123, burn_in=50, thinning=3)
    a = sample(octahedron, (1, 1, 1, 2), cfg, 200)
    b = sample(octahedron, (1, 1, 1, 2), cfg, 200)
    assert a == b
    assert len(a) == 200
    assert sample(octahedron, (1, 1, 1, 1), cfg, 0) == []
    different = sample(octahedron, (1, 1, 1, 2), ChainConfig(seed=124, burn_in=50, thinning=3), 200)
    assert a != different


def test_empirical_class_frequencies_match_census(octahedron):
    census = census_8v(octahedron)
    p = (1, 1, 1, 2)
    total = census.evaluate(p)
    # exact mean and variance of the class-D count under the Gibbs law
    mean_d = sum(
        nd * count * Fraction(1) ** (na + nb + nc) * Fraction(2) ** nd
        for (na, nb, nc, nd), count in census.counts.items()
    ) / total
    second = sum(
        nd * nd * count * Fraction(2) ** nd
        for (na, nb, nc, nd), count in census.counts.items()
    ) / total
    var_d = second - mean_d * mean_d

    n_samples = 10_000
    cfg = ChainConfig(seed=2024, burn_in=500, thinning=14)
    draws = sample(octahedron, p, cfg, n_samples)
    counts = [
        sum(1 for c in orientation_classes(octahedron, tau) if c == VertexClass.D)
        for tau in draws
    ]
    observed = sum(counts) / n_samples
    sigma = (float(var_d) / n_samples) ** 0.5
    assert abs(observed - float(mean_d)) < 3 * sigma


@pytest.mark.parametrize("params", YZ_POINTS)
def test_exact_diagnostics_octahedron(octahedron, params):
    diag = exact_chain_diagnostics(octahedron, params)
    assert diag.states == 128
    assert diag.detailed_balance
    assert diag.stationary_exact
    assert diag.rows_sum_one
    assert diag.steps_to_threshold is not None
    assert diag.tv_curve[-1][1] < 0.01


def test_exact_diagnostics_k44(k44):
    diag = exact_chain_diagnostics(k44, (2, 2, 3, 1))
    assert diag.states == 512
    assert diag.detailed_balance and diag.stationary_exact
    assert diag.steps_to_threshold is not None


@pytest.mark.parametrize("threshold", [0.0, -0.1, 1.0, 1.5, float("nan")])
def test_diagnostics_refuse_threshold_outside_unit_interval(loop_graph, threshold):
    with pytest.raises(ValueError, match="tv_threshold"):
        exact_chain_diagnostics(loop_graph, (1, 1, 1, 1), tv_threshold=threshold)


def test_diagnostics_cap(torus44):
    with pytest.raises(ValueError, match="cap"):
        exact_chain_diagnostics(torus44, (1, 1, 1, 1))


def test_reachability(octahedron, k44):
    # the kernel refuses moves of GF(2) rank below k, so building it shows
    # that the chain reaches every even orientation
    assert CycleKernel(octahedron).dimension == 7
    assert CycleKernel(octahedron, "face").dimension == 7
    assert CycleKernel(k44).dimension == 9


@pytest.mark.parametrize("rows, cols, rank, k", [(2, 2, 3, 5), (4, 4, 15, 17), (6, 6, 35, 37)])
def test_face_moves_refused_on_tori(rows, cols, rank, k):
    with pytest.raises(ValueError, match=f"rank {rank} .* k={k}"):
        CycleKernel(gen_torus(rows, cols), "face")
    cfg = ChainConfig(seed=5, proposal="face")
    with pytest.raises(ValueError, match="reducible"):
        sample(gen_torus(rows, cols), (1, 2, 2, 1), cfg, 1)


def test_face_proposal_runs_on_planar_graphs(octahedron):
    cfg = ChainConfig(seed=5, proposal="face", burn_in=20, thinning=2)
    draws = sample(octahedron, (1, 1, 2, 1), cfg, 50)
    assert len(draws) == 50
    for tau in draws:
        assert is_even_orientation(octahedron, tau)


def test_face_proposal_needs_rotation_system(k44):
    cfg = ChainConfig(seed=5, proposal="face")
    with pytest.raises(ValueError, match="rotation"):
        sample(k44, (1, 1, 1, 1), cfg, 1)
