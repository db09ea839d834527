import math
import shutil
import sys
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
)

from ._brute import (
    bitstring_to_orientation,
    gibbs_weight,
    is_even_orientation,
    metropolis_reference,
    orientation_from_masks,
    state_weights_per_coordinate,
)
from ._brute import orientation_to_bitstring as per_edge_bitstring
from .conftest import build_k5, build_loop_graph, build_two_components

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


def test_config_validation(octahedron):
    with pytest.raises(ValueError, match="proposal"):
        ChainConfig(seed=0, proposal="teleport")
    with pytest.raises(ValueError, match="burn-in"):
        sample(octahedron, (1, 1, 1, 1), ChainConfig(seed=0), 3, burn_in=-5)
    with pytest.raises(ValueError, match="thinning"):
        sample(octahedron, (1, 1, 1, 1), ChainConfig(seed=0), 3, thinning=0)


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
            chain.rng = ScriptedRng([0.9], [move])
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
            chain.rng = ScriptedRng([0.9, 0.9, 0.2499, 0.9, 0.9, 0.2501], [move] * 4)
            seen = []
            for _ in range(4):
                chain.advance(1)
                seen.append(orientation_from_masks(torus22, chain.masks))
            assert seen == [flipped, start, flipped, flipped]
            assert chain.rng.coins == [] and chain.rng.moves == []
    assert found


def test_sampling_deterministic_and_sized(octahedron):
    cfg = ChainConfig(seed=123)
    a = sample(octahedron, (1, 1, 1, 2), cfg, 200, burn_in=50, thinning=3)
    b = sample(octahedron, (1, 1, 1, 2), cfg, 200, burn_in=50, thinning=3)
    assert np.array_equal(a, b)
    assert a.shape == (200, 12) and a.dtype == np.uint8
    assert sample(octahedron, (1, 1, 1, 1), cfg, 0, burn_in=50, thinning=3).shape == (0, 12)
    different = sample(octahedron, (1, 1, 1, 2), ChainConfig(seed=124), 200, burn_in=50, thinning=3)
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
    rows = sample(graph, params, ChainConfig(seed=seed), samples, burn_in, thinning)
    _check_rows(graph, rows, _rows_block_by_block(graph, params, seed, samples, burn_in, thinning))


@pytest.mark.parametrize("native", [True, False], ids=["native", "python"])
@pytest.mark.parametrize("name", ["torus4x4", "loop_graph"])
def test_sample_rows_span_several_record_calls(monkeypatch, name, native):
    from eightvertex import _native

    if native and mcmc._load_kernel() is None:
        pytest.skip("the compiled kernel is not available on this host")
    if not native:
        monkeypatch.setattr(mcmc, "_load_kernel", lambda: None)
    # at most 10 steps a call: with thinning 3, 25 samples take 8 calls of 3 blocks and one of 1
    monkeypatch.setattr(_native, "CALL_STEPS", 10)
    graph, recorded, mask_blocks = FIXTURE_GRAPHS[name], [], Chain.mask_blocks

    def spy(chain, samples, thinning):
        assert (chain._native is not None) == native
        for block in mask_blocks(chain, samples, thinning):
            recorded.append(len(block) // graph.vertex_count)
            yield block

    monkeypatch.setattr(Chain, "mask_blocks", spy)
    rows = sample(graph, (1, 2, 3, 1), ChainConfig(seed=5), 25, burn_in=7, thinning=3)
    assert recorded == [3] * 8 + [1]
    _check_rows(graph, rows, _rows_block_by_block(graph, (1, 2, 3, 1), 5, 25, 7, 3))


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
    draws = sample(octahedron, p, ChainConfig(seed=2024), n_samples, burn_in=500, thinning=14)
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


@pytest.mark.parametrize("params", [(1, 1, 1, 1), (2, 2, 3, 1), (Fraction(1, 3), 5, 2, 7)])
def test_state_weights_follow_the_reference_walk(octahedron, k44, torus24, params):
    # per cycle-space coordinate, as the chain diagnostics index states
    for g in (octahedron, k44, torus24):
        kernel = CycleKernel(g)
        p = tuple(Fraction(x) for x in params)
        assert mcmc._state_weights(kernel, p) == state_weights_per_coordinate(kernel, p)


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
    cfg = ChainConfig(seed=5, proposal="face")
    draws = sample(octahedron, (1, 1, 2, 1), cfg, 50, burn_in=20, thinning=2)
    assert len(draws) == 50
    for tau in draws:
        assert is_even_orientation(octahedron, tau)


def test_face_proposal_needs_rotation_system(k44):
    cfg = ChainConfig(seed=5, proposal="face")
    with pytest.raises(ValueError, match="rotation"):
        sample(k44, (1, 1, 1, 1), cfg, 1)


class PythonRandom(Random):
    """A Random that is not exactly ``random.Random``, so a chain built on it steps in Python."""


def test_native_kernel_loads_where_a_compiler_is(octahedron):
    # a CI host with a compiler must run the compiled kernel, not fall back quietly
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on this host")
    assert mcmc._load_kernel() is not None
    assert Chain(CycleKernel(octahedron), Random(0))._native is not None
    assert Chain(CycleKernel(octahedron), PythonRandom(0))._native is None


@pytest.mark.parametrize("rng", [Random, PythonRandom], ids=["native", "python"])
def test_anneal_needs_one_pow_table_per_class(octahedron, rng):
    chain = Chain(CycleKernel(octahedron), rng(1))
    with pytest.raises(ValueError, match="one table per class, got 3"):
        chain.anneal([(1.0, 2.0, 2.0, 1.0)], 1, 1, 1, ((1.0,) * 7,) * 3)


def _short_schedule(kernel):
    """Three stages' sums from a chain at seed 4, on Python steps or the kernel's."""
    n = len(kernel.reference_masks)
    pows = tuple(tuple(r**count for count in range(n + 1)) for r in (1.1, 0.9, 1.0, 1.3))
    chain = Chain(kernel, Random(4))
    chain.advance(30)
    stages = [(1.0, 2.0, 2.0, 1.0), (1.1, 1.8, 2.0, 1.3), (1.2, 1.6, 2.0, 1.7)]
    return chain.anneal(stages, 14, 25, 4, pows), chain.rng.getstate()


def test_chains_step_in_python_where_the_kernel_cannot_build(monkeypatch, tmp_path, octahedron):
    # no compiler, and a source that does not compile: no library, no
    # temporary file left behind, and the same samples and schedule sums
    # from the Python steps
    from eightvertex import _native

    kernel = CycleKernel(octahedron)
    expected = sample(octahedron, (1, 1, 1, 2), ChainConfig(seed=9), 20, burn_in=5, thinning=3)
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
        got = sample(octahedron, (1, 1, 1, 2), ChainConfig(seed=9), 20, burn_in=5, thinning=3)
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
# (blocks, thinning, burn-in, then: advance blocks * thinning steps, record
# the masks after each block, or anneal through the stages `weights`;
# and whether to rebuild both chains from the generators read back from them)
RUN = st.tuples(st.integers(0, 40), st.integers(1, 30), st.integers(0, 25),
                st.sampled_from(["advance", "record", "anneal"]), st.booleans())
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
    ratios=st.tuples(WEIGHT, WEIGHT, WEIGHT, WEIGHT),
    runs=st.lists(RUN, min_size=1, max_size=4),
)
@example(name="torus4x4", seed=1, skip=0, call_steps=1 << 20, weights=[(1.0, 2.0, 2.0, 1.0)],
         ratios=(1.1, 0.9, 1.0, 1.3),
         runs=[(1, _RECOUNT_PERIOD + 7, 0, "advance", False), (3, 7, 0, "record", False),
               (3, 7, 5, "anneal", False)])
# one-block and two-block stages show a sum that rounds once more or less
@example(name="torus4x4", seed=3, skip=0, call_steps=1 << 20, weights=[(1.0, 1.2, 0.9, 1.1)] * 3,
         ratios=(1.1, 0.7, 1.3, 0.37),
         runs=[(1, 2, 0, "anneal", False)] * 20 + [(2, 2, 0, "anneal", False)] * 20)
@example(name="one-vertex-145", seed=2, skip=0, call_steps=1 << 20, weights=[(1.0,) * 4],
         ratios=(1.0,) * 4, runs=[(_RECOUNT_PERIOD // 3 + 1, 3, 0, "anneal", False)])
@example(name="k44", seed=5, skip=623, call_steps=1 << 20, weights=[(1.0, 3.0, 0.5, 2.0)],
         ratios=(1.1, 0.9, 1.0, 1.3),
         runs=[(5, 3, 0, "anneal", True), (40, 30, 0, "record", True)])
@example(name="torus2x2", seed=7, skip=625, call_steps=1 << 20, weights=[(2.0, 1.0, 1.0, 0.5)],
         ratios=(0.8, 1.2, 1.0, 1.1),
         runs=[(0, 1, 0, "advance", True), (1, 1, 3, "anneal", True)])
# stages of 61 steps at 10 steps a call: burn-in split across calls, blocks
# cut at call ends, and a block longer than a call made whole
@example(name="torus4x4", seed=11, skip=311, call_steps=10,
         weights=[(1.0, 2.0, 2.0, 1.0), (1.2, 1.7, 2.1, 0.9), (0.8, 1.5, 2.4, 1.1)],
         ratios=(1.1, 0.9, 1.0, 1.3),
         runs=[(12, 3, 25, "anneal", False), (4, 13, 2, "anneal", True),
               (9, 4, 0, "record", False)])
def test_native_chain_matches_python_chain(name, seed, skip, call_steps, weights, ratios, runs):
    from eightvertex import _native

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
    pows = tuple(tuple(r**count for count in range(n + 1)) for r in ratios)
    with patch.object(_native, "CALL_STEPS", call_steps):
        for index, (blocks, thinning, burn_in, kind, rebuild) in enumerate(runs):
            # no call makes more steps than CALL_STEPS, unless one block does
            most = max(call_steps, thinning)
            if kind == "anneal":
                calls = []
                native._recount = lambda steps, chain=native: (
                    calls.append(steps), Chain._recount(chain, steps))
                sums = native.anneal(weights, burn_in, blocks, thinning, pows)
                del native._recount
                # bit-equal sums: the same float operations in the same order
                assert sums == python.anneal(weights, burn_in, blocks, thinning, pows)
                assert len(sums) == len(weights)
                total = len(weights) * (burn_in + blocks * thinning)
                assert sum(calls) == total and all(c <= most for c in calls)
                if total > most:
                    assert len(calls) > 1
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
