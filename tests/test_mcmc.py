import ctypes
import math
import shutil
import subprocess
import sys
import threading
from fractions import Fraction
from random import Random
from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eightvertex.exact import census_8v
from eightvertex import mcmc
from eightvertex.graphs import LabeledGraph, gen_k44, gen_octahedron, gen_torus
from eightvertex.mcmc import (
    _RECOUNT_PERIOD,
    Chain,
    ChainConfig,
    chain_weights,
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
    orientation_to_bitstring,
    reference_even_orientation,
)

from ._brute import (
    bitstring_to_orientation,
    gibbs_weight,
    is_even_orientation,
    metropolis_matrix,
    metropolis_reference,
    orientation_from_masks,
    state_weights_per_coordinate,
)
from ._brute import orientation_to_bitstring as per_edge_bitstring
from .conftest import build_k5, build_loop_graph, build_two_components, disjoint_union

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


def sample_rows(graph, params, cfg, n_samples, burn_in=0, thinning=1):
    """``sample``'s emitted blocks, stacked into one ``(n_samples, edges)`` array."""
    blocks = [np.empty((0, graph.edge_count), dtype=np.uint8)]
    sample(graph, params, cfg, n_samples, burn_in, thinning, emit=blocks.append)
    return np.concatenate(blocks)


def test_config_validation(octahedron):
    with pytest.raises(ValueError, match="unknown proposal kind 'teleport'"):
        sample_rows(octahedron, (1, 1, 1, 1), ChainConfig(seed=0, proposal="teleport"), 3)
    with pytest.raises(ValueError, match="burn-in"):
        sample_rows(octahedron, (1, 1, 1, 1), ChainConfig(seed=0), 3, burn_in=-5)
    # the kernel counts steps in int64: 2^63 would wrap to a negative thinning
    for thinning in (0, 1 << 63, (1 << 64) + 5):
        with pytest.raises(ValueError, match=r"thinning must lie in \[1, 2\^63\)"):
            sample_rows(octahedron, (1, 1, 1, 1), ChainConfig(seed=0), 3, thinning=thinning)


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
        assert orientation_from_masks(graph, chain.masks) == bits
        # the masks' classes and the cached counts match the orientation, which is even
        classes = orientation_classes(graph, bits)
        assert [CLASS16[m] for m in chain.masks] == classes
        assert list(chain.counts) == [classes.count(c) for c in range(4)]


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
    moves = SimpleNamespace(touch=[[(j, 0b11)] for j in range(n)], reference_masks=[0] * n)
    moves.move_table = CycleKernel.move_table.func(moves)
    return moves


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


@pytest.mark.parametrize("path", ["native", "python"])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 9, 17, 37, 65, 145])
def test_ais_move_draw_takes_one_word(n, path):
    # every AIS step proposes, its move the multiply-shift of one word; at
    # uniform stages each proposal is taken without an acceptance coin, so
    # particles of one to six steps show each step's vertex on the start
    if path == "native" and mcmc._load_kernel() is None:
        pytest.skip("the compiled kernel is not available on this host")
    seed = 2000 + n
    chain = Chain(_one_vertex_moves(n), (Random if path == "native" else PythonRandom)(seed))
    reference = Random(seed)
    assert (chain._native is not None) == (path == "native")
    for i in range(300):
        stages, thinning = 1 + i % 2, 1 + i % 3
        log_weights = list(chain.ais([(1.0,) * 4] * stages, 1, thinning, [(0.0,) * 4] * stages))
        assert log_weights == [[0.0]]
        expected = [0b11 * reference.getrandbits(1) for _ in range(n)]
        for _ in range(stages * thinning):
            expected[reference.getrandbits(32) * n >> 32] ^= 0b11
        assert list(chain.masks) == expected
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


def _untemper(word):
    """The MT19937 state word that tempers to ``word``."""
    y = word ^ word >> 18
    y ^= y << 15 & 0xEFC60000
    x = y
    for _ in range(4):  # y ^= y << 7 & mask, undone 7 bits at a time
        x = y ^ (x << 7 & 0x9D2C5680)
    y = x & 0xFFFFFFFF
    x = y
    for _ in range(2):  # y ^= y >> 11, undone 11 bits at a time
        x = y ^ x >> 11
    return x


@pytest.mark.parametrize("words, coin, holds", [
    ((0x7FFFFFFF, 0xFFFFFFFF), 0.5 - 2**-53, True),  # the largest random() below 1/2
    ((0x80000000, 0), 0.5, False),  # 1/2 itself draws a move
], ids=["below", "at"])
def test_native_lazy_coin_at_one_half(words, coin, holds):
    # the kernel tests only the coin's first word, against 2^31; its second
    # word is still drawn, so both paths leave the generator at one point
    if mcmc._load_kernel() is None:
        pytest.skip("the compiled kernel is not available on this host")
    version, mt, gauss = Random(8).getstate()
    state = (version, (*mt[:622], *map(_untemper, words), 622), gauss)
    probe = Random()
    probe.setstate(state)
    assert [probe.getrandbits(32) for _ in words] == list(words)
    probe.setstate(state)
    assert probe.random() == coin
    chains = []
    for rng in (Random(), PythonRandom()):
        rng.setstate(state)
        chains.append(Chain(_one_vertex_moves(3), rng))
        chains[-1].advance(1)
    native, python = chains
    assert native._native is not None and python._native is None
    assert list(native.masks) == python.masks
    assert (python.masks == [0, 0, 0]) == holds
    assert native.rng.getstate() == python.rng.getstate()


def test_native_kernel_assumes_laziness_one_half():
    # _chain.c's coin is the first word below 2^31, which is random() < 1/2
    # and nothing else: another LAZINESS needs the kernel's coin changed too
    assert mcmc.LAZINESS == 0.5


def test_chain_needs_a_move():
    # the empty graph's coset is one state: refused, where a draw below 0 would spin
    with pytest.raises(ValueError, match="at least one move"):
        sample_rows(LabeledGraph(0, ()), (1, 2, 2, 1), ChainConfig(seed=0), 3)


@pytest.mark.parametrize("proposal", ["basis-cycle", "face"])
def test_chain_weights_bound_the_widest_move(octahedron, proposal):
    # a move over T vertices multiplies T factors of up to max/min each
    kernel = CycleKernel(octahedron, proposal)
    touch = max(len(flips) for flips in kernel.touch)
    limit = -math.log(sys.float_info.min) / touch
    inside = Fraction(math.exp(limit * 0.999))
    assert chain_weights((1, 1, inside, 1), kernel) == [1.0, 1.0, float(inside), 1.0]
    with pytest.raises(ValueError, match=f"touching {touch} vertices"):
        chain_weights((1, 1, Fraction(math.exp(limit * 1.001)), 1), kernel)
    for weight in (Fraction(10) ** 400, Fraction(1, 10**320), Fraction(1, 10**400)):
        with pytest.raises(ValueError, match="normal float range"):
            chain_weights((1, weight, 1, 1), kernel)


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
            before = orientation_from_masks(torus22, chain.masks)
            chain.rng.coins.append(0.9)
            chain.rng.moves.append(move)
            chain.advance(1)
            after = orientation_from_masks(torus22, chain.masks)
            assert after == _flipped(before, kernel.moves[move])
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
            start = orientation_from_masks(torus22, chain.masks)
            flipped = _flipped(start, kernel.moves[move])
            # forward (ratio 4), back on coin 0.2499, forward, no way back on 0.2501
            chain.rng.coins.extend([0.9, 0.9, 0.2499, 0.9, 0.9, 0.2501])
            chain.rng.moves.extend([move] * 4)
            seen = []
            for _ in range(4):
                chain.advance(1)
                seen.append(orientation_from_masks(torus22, chain.masks))
            assert seen == [flipped, start, flipped, flipped]
            assert chain.rng.coins == [] and chain.rng.moves == []
    assert found


def test_sampling_deterministic_and_sized(octahedron):
    cfg = ChainConfig(seed=123)
    a = sample_rows(octahedron, (1, 1, 1, 2), cfg, 200, burn_in=50, thinning=3)
    b = sample_rows(octahedron, (1, 1, 1, 2), cfg, 200, burn_in=50, thinning=3)
    assert np.array_equal(a, b)
    assert a.shape == (200, 12) and a.dtype == np.uint8
    sample(octahedron, (1, 1, 1, 1), cfg, 0, burn_in=50, thinning=3, emit=pytest.fail)
    different = sample_rows(octahedron, (1, 1, 1, 2), ChainConfig(seed=124), 200, burn_in=50,
                            thinning=3)
    assert not np.array_equal(a, different)


FIXTURE_GRAPHS = {
    "octahedron": gen_octahedron(),
    "k44": gen_k44(),
    "k5": build_k5(),
    "loop_graph": build_loop_graph(),
    "two_components": build_two_components(),
    **{f"torus{r}x{c}": gen_torus(r, c) for r, c in ((2, 2), (2, 4), (3, 4), (4, 4))},
}


def _rows_block_by_block(graph, params, seed, samples, burn_in, thinning):
    """``sample``'s orientations from Python steps, read one block and one edge at a time."""
    kernel = CycleKernel(graph)
    chain = Chain(kernel, PythonRandom(seed))
    chain.set_params(chain_weights(params, kernel))
    chain.advance(burn_in)
    rows = []
    for _ in range(samples):
        chain.advance(thinning)
        rows.append(orientation_from_masks(graph, chain.masks))
    return rows


def _check_rows(graph, rows, expected):
    """The array rows and their wire text against the per-edge forms, and the text parsed back."""
    assert rows.dtype == np.uint8 and rows.shape == (len(expected), graph.edge_count)
    assert rows.tolist() == [list(bits) for bits in expected]
    text = orientation_to_bitstring(graph, rows)
    assert text == "".join(per_edge_bitstring(graph, bits) + "\n" for bits in expected)
    for line, bits in zip(text.splitlines(), expected):
        assert orientation_to_bitstring(graph, bits) == line
        assert bitstring_to_orientation(graph, line) == bits


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(FIXTURE_GRAPHS)),
    seed=st.integers(0, 2**32 - 1),
    params=st.tuples(*[st.integers(1, 5)] * 4),
    samples=st.integers(0, 25),
    burn_in=st.integers(0, 40),
    thinning=st.integers(1, 6),
)
# self-loops keep their slot bit; the 8 wrap-around edges of torus 4x4 have v < u
@example(name="loop_graph", seed=3, params=(1, 2, 3, 1), samples=25, burn_in=0, thinning=1)
@example(name="torus4x4", seed=11, params=(1, 2, 2, 1), samples=25, burn_in=10, thinning=3)
def test_sample_rows_match_the_per_edge_forms(name, seed, params, samples, burn_in, thinning):
    graph = FIXTURE_GRAPHS[name]
    rows = sample_rows(graph, params, ChainConfig(seed=seed), samples, burn_in, thinning)
    _check_rows(graph, rows, _rows_block_by_block(graph, params, seed, samples, burn_in, thinning))


@pytest.mark.parametrize("native", [True, False], ids=["native", "python"])
@pytest.mark.parametrize("name", ["torus4x4", "loop_graph"])
def test_sample_rows_span_several_record_calls(monkeypatch, name, native):
    if native and mcmc._load_kernel() is None:
        pytest.skip("the compiled kernel is not available on this host")
    if not native:
        monkeypatch.setattr(mcmc, "_load_kernel", lambda: None)
    # at most 10 steps a call: with thinning 3, 25 samples take 8 calls of 3 blocks and one of 1
    monkeypatch.setattr(mcmc, "CALL_STEPS", 10)
    graph, recorded, emitted, mask_blocks = FIXTURE_GRAPHS[name], [], [], Chain.mask_blocks

    def spy(chain, samples, thinning):
        assert (chain._native is not None) == native
        for block in mask_blocks(chain, samples, thinning):
            recorded.append(len(block) // graph.vertex_count)
            yield block

    def emit(rows):
        # each block reaches emit before the next is recorded
        assert len(recorded) == len(emitted) + 1 and len(rows) == recorded[-1]
        emitted.append(rows)

    monkeypatch.setattr(Chain, "mask_blocks", spy)
    sample(graph, (1, 2, 3, 1), ChainConfig(seed=5), 25, burn_in=7, thinning=3, emit=emit)
    assert recorded == [len(rows) for rows in emitted] == [3] * 8 + [1]
    rows = np.concatenate(emitted)
    _check_rows(graph, rows, _rows_block_by_block(graph, (1, 2, 3, 1), 5, 25, 7, 3))


@given(samples=st.integers(0, 3000), thinning=st.integers(1, 200),
       call_steps=st.integers(1, 1000))
@example(samples=0, thinning=1, call_steps=1)
def test_calls_add_up_and_fill_every_call_but_the_last(samples, thinning, call_steps):
    with patch.object(mcmc, "CALL_STEPS", call_steps):
        cuts = list(mcmc.calls(samples, thinning))
    assert sum(cuts) == samples
    assert all(c >= 1 and c * thinning <= max(call_steps, thinning) for c in cuts)
    # one more block would pass CALL_STEPS in every call but the last
    assert all((c + 1) * thinning > call_steps for c in cuts[:-1])
    if samples == 0:
        assert cuts == []


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
    draws = sample_rows(octahedron, p, ChainConfig(seed=2024), n_samples, burn_in=500, thinning=14)
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
    assert diag.steps_to_threshold is not None
    assert diag.tv_curve[-1][1] < 0.01


@pytest.mark.parametrize("params", [(1, 1, 1, 1), (2, 2, 3, 1), (Fraction(1, 3), 5, 2, 7)])
def test_state_weights_follow_the_reference_walk(octahedron, k44, torus24, params):
    # per cycle-space coordinate, as the chain diagnostics index states
    for g in (octahedron, k44, torus24):
        kernel = CycleKernel(g)
        p = tuple(Fraction(x) for x in params)
        weights = mcmc._state_weights(mcmc._state_profiles(kernel), p)
        assert weights == state_weights_per_coordinate(kernel, p)


def test_exact_diagnostics_k44(k44):
    diag = exact_chain_diagnostics(k44, (2, 2, 3, 1))
    assert diag.states == 512
    assert diag.steps_to_threshold is not None


@pytest.mark.parametrize("name, params", [
    ("octahedron", (Fraction(1, 3), 5, 2, 7)),
    ("k44", (2, 2, 3, 1)),
    ("torus24", (3, 3, 3, 1)),
], ids=["octahedron", "k44", "torus24"])
def test_exact_diagnostics_follow_the_metropolis_matrix(request, name, params):
    # the brute-force matrix over every even orientation is reversible and
    # keeps pi, exactly; the diagnostics' TV curve is its float iteration
    graph = request.getfixturevalue(name)
    states, pi, rows = metropolis_matrix(graph, params)
    kept = [Fraction(0)] * len(states)
    for x, row in enumerate(rows):
        assert sum(row.values()) == 1 and row[x] >= Fraction(1, 2)
        for y, p_xy in row.items():
            assert pi[x] * p_xy == pi[y] * rows[y][x]
            kept[y] += pi[x] * p_xy
    assert kept == pi

    diag = exact_chain_diagnostics(graph, params)
    assert diag.states == len(states)
    matrix = np.zeros((len(states), len(states)))
    for x, row in enumerate(rows):
        for y, p_xy in row.items():
            matrix[x, y] = float(p_xy)
    pi_f = np.array([float(p) for p in pi])
    mu = np.zeros(len(states))
    mu[states.index(reference_even_orientation(graph))] = 1.0
    tvs = []
    for _ in diag.tv_curve:
        mu = mu @ matrix
        tvs.append(0.5 * float(np.abs(mu - pi_f).sum()))
    assert max(abs(tv - b) for (_, tv), b in zip(diag.tv_curve, tvs)) < 1e-12
    assert diag.steps_to_threshold == next(t for t, tv in enumerate(tvs, 1) if tv < 0.01)


@pytest.mark.parametrize("params", [(1, 2, 2, 1), (3, 3, 3, 1), (1, 1, 5, 1)])
@pytest.mark.parametrize("name", ["octahedron", "k44", "torus22", "torus23"])
def test_ais_step_keeps_the_gibbs_measure_exactly(request, name, params):
    # an AIS step tries move j with probability q_j, the share of the 2^32
    # words w with w k >> 32 = j, uneven as k = 5, 7 or 9 is no power of two.
    # Each move undoes itself, so the proposal is symmetric and pi_x P(x, y) =
    # q_j min(pi_x, pi_y) = pi_y P(y, x), whence pi P = pi, over all 2^k states
    graph = gen_torus(2, 3) if name == "torus23" else request.getfixturevalue(name)
    kernel = CycleKernel(graph)
    k, p = kernel.dimension, tuple(Fraction(x) for x in params)
    weights = mcmc._state_weights(mcmc._state_profiles(kernel), p)
    total = sum(weights)
    pi = [w / total for w in weights]
    # the least word w with w k >> 32 = j: ceil(j 2^32 / k)
    first = [-(-(j << 32) // k) for j in range(k + 1)]
    assert all(w * k >> 32 == j > (w - 1) * k >> 32 for j, w in enumerate(first[1:k], 1))
    q = [Fraction(b - a, 1 << 32) for a, b in zip(first, first[1:])]
    assert sum(q) == 1 and len(set(q)) == 2
    rows = []
    for x, w_x in enumerate(weights):
        row = {x ^ 1 << j: q[j] * min(1, weights[x ^ 1 << j] / w_x) for j in range(k)}
        row[x] = 1 - sum(row.values())
        rows.append(row)
    kept = [Fraction(0)] * len(pi)
    for x, row in enumerate(rows):
        for y, p_xy in row.items():
            assert pi[x] * p_xy == pi[y] * rows[y][x]
            kept[y] += pi[x] * p_xy
    assert kept == pi


@pytest.mark.parametrize("threshold", [0.0, -0.1, 1.0, 1.5, float("nan")])
def test_diagnostics_refuse_threshold_outside_unit_interval(loop_graph, threshold):
    with pytest.raises(ValueError, match="tv_threshold"):
        exact_chain_diagnostics(loop_graph, (1, 1, 1, 1), tv_threshold=threshold)


def test_diagnostics_cap(octahedron, torus22, torus34, torus44):
    # k = 7 + 5 = 12, the cap, is enumerated; torus 3x4 (k = 13) and 4x4 (k = 17) are not
    diag = exact_chain_diagnostics(disjoint_union(octahedron, torus22), (3, 3, 3, 1))
    assert diag.states == 4096 and diag.steps_to_threshold is not None
    for graph in (torus34, torus44):
        with pytest.raises(ValueError, match="exceeds enumeration cap 12"):
            exact_chain_diagnostics(graph, (1, 1, 1, 1))


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
        sample_rows(gen_torus(rows, cols), (1, 2, 2, 1), cfg, 1)


def test_face_proposal_runs_on_planar_graphs(octahedron):
    cfg = ChainConfig(seed=5, proposal="face")
    draws = sample_rows(octahedron, (1, 1, 2, 1), cfg, 50, burn_in=20, thinning=2)
    assert len(draws) == 50
    for tau in draws:
        assert is_even_orientation(octahedron, tau)


def test_face_proposal_needs_rotation_system(k44):
    cfg = ChainConfig(seed=5, proposal="face")
    with pytest.raises(ValueError, match="rotation"):
        sample_rows(k44, (1, 1, 1, 1), cfg, 1)


class PythonRandom(Random):
    """A Random that is not exactly ``random.Random``, so a chain built on it steps in Python."""


def test_native_kernel_loads_where_a_compiler_is(octahedron):
    # a CI host with a compiler must run the compiled kernel, not fall back quietly
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on this host")
    assert mcmc._load_kernel() is not None
    assert Chain(CycleKernel(octahedron), Random(0))._native is not None
    assert Chain(CycleKernel(octahedron), PythonRandom(0))._native is None


def test_the_ctypes_state_has_the_layout_of_struct_chain(tmp_path):
    # _native._State repeats struct chain by hand: a field added on one side
    # only would make the kernel write to the wrong memory, without an error
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on this host")
    from eightvertex._native import _MT, SOURCE, _State

    names = [name for name, _ in _State._fields_]
    probe = tmp_path / "probe.c"
    probe.write_text(
        f'#include <stddef.h>\n#include <stdio.h>\n#include "{SOURCE}"\nint main(void)\n{{\n'
        '    printf("%zu\\n", sizeof(struct chain));\n'
        + "".join(f'    printf("%zu\\n", offsetof(struct chain, {name}));\n' for name in names)
        + "    return 0;\n}\n"
    )
    subprocess.run(["cc", "-std=c99", "-o", str(tmp_path / "probe"), str(probe)], check=True)
    out = subprocess.run([str(tmp_path / "probe")], check=True, capture_output=True, text=True)
    size, *offsets = map(int, out.stdout.split())
    assert size == ctypes.sizeof(_State)
    assert dict(zip(names, offsets)) == {name: getattr(_State, name).offset for name in names}
    # NativeChain copies the generator in and out as one _MT record at offset 0
    assert (_State.mt.offset, _State.index.offset + 4) == (0, _MT.size)


@pytest.mark.parametrize("rng", [Random, PythonRandom], ids=["native", "python"])
def test_ais_needs_one_row_of_log_ratios_per_stage(octahedron, rng):
    # both step paths refuse a malformed schedule alike, before any draw:
    # stages of 3 weights, fewer rows of log ratios than stages, rows of 3
    chain = Chain(CycleKernel(octahedron), rng(1))
    for stages, log_ratios in (([(1.0, 2.0, 2.0)], [(0.0,) * 4]),
                               ([(1.0,) * 4, (1.0, 2.0, 2.0, 1.0)], [(0.0,) * 4]),
                               ([(1.0,) * 4], [(0.0,) * 3])):
        with pytest.raises(ValueError, match="one row of 4 log ratios per stage of 4 weights"):
            list(chain.ais(stages, 1, 1, log_ratios))
    assert chain.rng.getstate() == Random(1).getstate()


@pytest.mark.parametrize("rng", [Random, PythonRandom], ids=["native", "python"])
@pytest.mark.parametrize("weights", [(1.0, 2.0, 2.0), (1.0, 2.0, 2.0, 1.0, 1.0)], ids=[3, 5])
def test_set_params_needs_four_weights(octahedron, rng, weights):
    # both step paths refuse another count when it is set, not at a later step
    chain = Chain(CycleKernel(octahedron), rng(1))
    with pytest.raises(ValueError, match="same size"):
        chain.set_params(weights)
    chain.advance(5)
    assert list(chain.weights) == [1.0] * 4


def _log_ratios(path):
    """Row g: the log of each class's ratio of stage g + 1 to stage g of ``path``."""
    return [[math.log(b / a) for a, b in zip(*pair)] for pair in zip(path, path[1:])]


def test_native_chains_sharing_a_kernel_do_not_interfere():
    # two chains read one kernel's move tables and one pair of schedule arrays:
    # interleaved, each runs bit for bit as it does alone
    kernel = CycleKernel(gen_torus(4, 4))
    if mcmc._load_kernel() is None:
        pytest.skip("the compiled kernel is not available on this host")
    path = [(1.0, 2.0, 2.0, 1.0), (1.1, 1.8, 2.0, 1.3), (1.2, 1.6, 2.0, 1.7), (1.3, 1.5, 2.0, 2.1)]
    stages, log_ratios = np.array(path[:-1]), np.array(_log_ratios(path))

    def run(chain, particles):
        return list(chain.ais(stages, particles, 5, log_ratios)), list(chain.masks)

    alone_a, alone_b = Chain(kernel, Random(1)), Chain(kernel, Random(2))
    expected_a = [run(alone_a, 7), run(alone_a, 4)]
    expected_b = run(alone_b, 6)
    a, b = Chain(kernel, Random(1)), Chain(kernel, Random(2))
    assert a._native is not None and b._native is not None
    first_a, got_b, second_a = run(a, 7), run(b, 6), run(a, 4)
    assert [first_a, second_a] == expected_a and got_b == expected_b
    assert a.rng.getstate() == alone_a.rng.getstate()
    assert b.rng.getstate() == alone_b.rng.getstate()
    assert kernel.move_table[2].tolist() == list(kernel.reference_masks)


def _short_schedule(kernel):
    """Five particles' log weights through three stages from a chain at seed 4,
    on Python steps or the kernel's."""
    chain = Chain(kernel, Random(4))
    chain.advance(30)
    path = [(1.0, 2.0, 2.0, 1.0), (1.1, 1.8, 2.0, 1.3), (1.2, 1.6, 2.0, 1.7), (1.3, 1.5, 2.0, 2.1)]
    return list(chain.ais(path[:-1], 5, 4, _log_ratios(path))), chain.rng.getstate()


def _geometric(t, g, q):
    return (t ** (1 / q)) ** g


def _arithmetic(t, g, q):
    return 1 + (t - 1) * g / q


# (graph, target, the weight of entry t at stage g of q): the octahedron's
# planned image of (1,1,5,1), and torus 2x2 at (1,3,3,1), on the geometric
# path; torus 4x4 at (3,3,3,1) on the arithmetic one, whose stages' ratios
# differ.  Ten stages of one lazy step each are far too few for the chain to
# follow the measure from stage to stage
@pytest.mark.parametrize("graph, target, path", [
    (gen_octahedron(), (3, 3, 3, 1), _geometric), (gen_torus(2, 2), (1, 3, 3, 1), _geometric),
    (gen_torus(4, 4), (3, 3, 3, 1), _arithmetic)], ids=["octahedron", "torus2x2", "arithmetic"])
def test_ais_weights_are_unbiased_where_the_chain_cannot_keep_up(graph, target, path):
    # E[w] = Z(target) / Z(1,1,1,1) for every number of steps per stage.  At
    # seed 2 the means lie 0.8, -0.6 and 0.4 standard errors from it; a start at
    # the bare reference orientation missed by +66 and -62, a weight taken
    # before a stage's steps instead of after them by -13 and -17, and row 0
    # of the log ratios read at every stage of the arithmetic path by +33
    kernel, q, particles = CycleKernel(graph), 10, 20_000
    stages = [tuple(path(t, g, q) for t in target) for g in range(q + 1)]
    log_weights = [x for batch in Chain(kernel, Random(2)).ais(
        stages[:-1], particles, 1, _log_ratios(stages)) for x in batch]
    weights = [math.exp(x) for x in log_weights]
    mean = sum(weights) / particles
    sd = math.sqrt(sum((w - mean) ** 2 for w in weights) / (particles - 1))
    census = census_8v(graph)
    exact = float(census.evaluate(target) / census.evaluate((1, 1, 1, 1)))
    assert abs(mean - exact) < 4 * sd / math.sqrt(particles)


def test_two_threads_build_their_first_chains_at_once(monkeypatch, tmp_path):
    # both threads load the library from one build: no clash on the
    # temporary file, and no failed build left in _LIB
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on this host")
    from eightvertex import _native

    kernel = CycleKernel(gen_torus(3, 3))
    for repeat in range(3):
        source = tmp_path / str(repeat) / "_chain.c"  # a fresh cache: each repeat compiles
        source.parent.mkdir()
        source.write_bytes(_native.SOURCE.read_bytes())
        monkeypatch.setattr(_native, "SOURCE", source)
        monkeypatch.setattr(_native, "_LIB", None)
        barrier, chains = threading.Barrier(2), []

        def build():
            barrier.wait(timeout=60)
            chains.append(Chain(kernel, Random(repeat)))

        threads = [threading.Thread(target=build) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert _native._LIB
        assert [chain._native is not None for chain in chains] == [True, True]


def test_chains_step_in_python_where_the_kernel_cannot_build(monkeypatch, tmp_path, octahedron):
    # no compiler, and a source that does not compile: no library, no
    # temporary file left behind, and the same samples and schedule sums
    # from the Python steps
    from eightvertex import _native

    kernel = CycleKernel(octahedron)
    expected = sample_rows(octahedron, (1, 1, 1, 2), ChainConfig(seed=9), 20, burn_in=5, thinning=3)
    expected_sums = _short_schedule(kernel)
    broken = tmp_path / "_chain.c"
    broken.write_text("this is not C\n")
    for source, build in ((_native.SOURCE, ("no-such-compiler",) + _native.BUILD[1:]),
                          (broken, _native.BUILD)):
        monkeypatch.setattr(_native, "_LIB", None)
        monkeypatch.setattr(_native, "SOURCE", source)
        monkeypatch.setattr(_native, "BUILD", build)
        assert _native.load() is None
        assert Chain(kernel, Random(0))._native is None
        got = sample_rows(octahedron, (1, 1, 1, 2), ChainConfig(seed=9), 20, burn_in=5, thinning=3)
        assert np.array_equal(got, expected)
        assert _short_schedule(kernel) == expected_sums
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["__pycache__", "_chain.c"]


NATIVE_KERNELS = {
    "octahedron": CycleKernel(gen_octahedron()),
    "octahedron-face": CycleKernel(gen_octahedron(), "face"),
    "torus2x2": CycleKernel(gen_torus(2, 2)),
    "torus4x4": CycleKernel(gen_torus(4, 4)),
    "k44": CycleKernel(gen_k44()),
    # the redraw loop of the move draw, at and between powers of two
    **{f"one-vertex-{n}": _one_vertex_moves(n) for n in (1, 2, 3, 5, 9, 17, 37, 65, 145)},
}
WEIGHT = st.floats(0.05, 20.0)
# (blocks, thinning, then: advance blocks * thinning steps, record the masks
# after each block, or run `blocks` particles through the stages `weights`;
# and whether to rebuild both chains from the generators read back from them)
RUN = st.tuples(st.integers(0, 40), st.integers(1, 30),
                st.sampled_from(["advance", "record", "ais"]), st.booleans())
# words drawn before the chains are built: the kernel's tempered buffer must
# be filled from a state copied in at any index, before and after a twist
SKIPS = (0, 1, 311, 623, 625)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(NATIVE_KERNELS)),
    seed=st.integers(0, 2**64 - 1),
    skip=st.sampled_from(SKIPS),
    call_steps=st.sampled_from([1 << 20, 1, 10, 64]),
    weights=st.lists(st.tuples(WEIGHT, WEIGHT, WEIGHT, WEIGHT), min_size=1, max_size=3),
    # stage g's ratios, whose logs are row g of the log ratios
    ratios=st.lists(st.tuples(WEIGHT, WEIGHT, WEIGHT, WEIGHT), min_size=3, max_size=3),
    runs=st.lists(RUN, min_size=1, max_size=4),
)
@example(name="torus4x4", seed=1, skip=0, call_steps=1 << 20, weights=[(1.0, 2.0, 2.0, 1.0)],
         ratios=[(1.1, 0.9, 1.0, 1.3)] * 3,
         runs=[(1, _RECOUNT_PERIOD + 7, "advance", False), (3, 7, "record", False),
               (3, 7, "ais", False)])
# log weights over many stages add up to a total that rounds at every stage
@example(name="torus4x4", seed=3, skip=0, call_steps=1 << 20, weights=[(1.0, 1.2, 0.9, 1.1)] * 3,
         ratios=[(1.1, 0.7, 1.3, 0.37), (0.6, 1.9, 1.05, 1.4), (1.7, 0.45, 0.9, 1.15)],
         runs=[(1, 2, "ais", False)] * 20 + [(2, 2, "ais", False)] * 20)
@example(name="one-vertex-145", seed=2, skip=0, call_steps=1 << 20, weights=[(1.0,) * 4],
         ratios=[(1.0,) * 4] * 3, runs=[(_RECOUNT_PERIOD // 3 + 1, 3, "ais", False)])
@example(name="k44", seed=5, skip=623, call_steps=1 << 20, weights=[(1.0, 3.0, 0.5, 2.0)],
         ratios=[(1.1, 0.9, 1.0, 1.3)] * 3,
         runs=[(5, 3, "ais", True), (40, 30, "record", True)])
@example(name="torus2x2", seed=7, skip=625, call_steps=1 << 20, weights=[(2.0, 1.0, 1.0, 0.5)],
         ratios=[(0.8, 1.2, 1.0, 1.1)] * 3,
         runs=[(0, 1, "advance", True), (1, 1, "ais", True)])
# particles of 3 stages of 4 or 13 steps at 10 or 7 steps a call: a particle
# longer than a call's steps runs alone, shorter ones share calls
@example(name="torus4x4", seed=11, skip=311, call_steps=10,
         weights=[(1.0, 2.0, 2.0, 1.0), (1.2, 1.7, 2.1, 0.9), (0.8, 1.5, 2.4, 1.1)],
         ratios=[(1.1, 0.9, 1.0, 1.3), (1.2, 0.9, 1.1, 0.8), (0.8, 1.3, 1.0, 1.2)],
         runs=[(12, 4, "ais", False), (4, 13, "ais", True), (9, 4, "record", False)])
@example(name="octahedron-face", seed=13, skip=1, call_steps=7,
         weights=[(1.0, 2.0, 2.0, 1.0), (1.2, 1.7, 2.1, 0.9)],
         ratios=[(1.1, 0.9, 1.0, 1.3), (0.9, 1.2, 1.0, 0.7), (1.0,) * 4],
         runs=[(5, 7, "ais", False), (3, 1, "ais", False)])
def test_native_chain_matches_python_chain(name, seed, skip, call_steps, weights, ratios, runs):
    kernel = NATIVE_KERNELS[name]
    if mcmc._load_kernel() is None:
        pytest.skip("the compiled kernel is not available on this host")
    rngs = Random(seed), PythonRandom(seed)
    for rng in rngs:
        for _ in range(skip):
            rng.getrandbits(32)
    native, python = (Chain(kernel, rng) for rng in rngs)
    assert native._native is not None and python._native is None
    n = len(kernel.reference_masks)
    log_ratios = [[math.log(r) for r in row] for row in ratios[:len(weights)]]
    with patch.object(mcmc, "CALL_STEPS", call_steps):
        for index, (blocks, thinning, kind, rebuild) in enumerate(runs):
            # no call makes more steps than CALL_STEPS, unless one block does
            most = max(call_steps, thinning)
            if kind == "ais":
                steps = native.steps
                batches = list(native.ais(weights, blocks, thinning, log_ratios))
                # bit-equal weights, call by call: the same float operations in the same order
                assert batches == list(python.ais(weights, blocks, thinning, log_ratios))
                assert sum(map(len, batches)) == blocks
                # a call runs whole particles: at most CALL_STEPS steps, or one particle
                particle = len(weights) * thinning
                assert native.steps - steps == blocks * particle
                assert all(len(b) * particle <= max(call_steps, particle) for b in batches)
                if blocks * particle > max(call_steps, particle):
                    assert len(batches) > 1
            else:
                for chain in (native, python):
                    chain.set_params(weights[index % len(weights)])
                if kind == "record":
                    recorded = list(native.mask_blocks(blocks, thinning))
                    assert recorded == list(python.mask_blocks(blocks, thinning))
                    assert all(len(b) // n * thinning <= most for b in recorded)
                else:
                    native.advance(blocks * thinning)
                    python.advance(blocks * thinning)
            assert list(native.masks) == python.masks
            assert list(native.counts) == python.counts
            assert native.steps == python.steps
            # reading the generator between runs leaves the kernel's stream as it was
            assert native.rng.getstate() == python.rng.getstate()
            if rebuild:  # a new chain copies the state in wherever the index stands
                native, python = Chain(kernel, native.rng), Chain(kernel, python.rng)
                assert native._native is not None and python._native is None
