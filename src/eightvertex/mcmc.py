"""Cycle-flip Metropolis chain on even orientations.

A state is the reference even orientation xor a sum of move edge sets
(basis cycles, or face boundaries on a rotation system), so every state
is even by construction.  Irreducibility is enforced, not assumed: the
cycle-space kernel refuses move sets whose GF(2) rank is below the
cycle-space dimension.  The chain is lazy with the fixed holding
probability ``LAZINESS`` = 1/2, which makes it aperiodic and its spectrum
nonnegative.  It keeps only per-vertex in-masks and class counts; a
proposal's weight ratio is a product of table lookups over the vertices
the flip touches, and orientations are read back from the masks.
The chain draws what a plain loop over ``random()`` and
``randrange(nmoves)`` draws and does the same float operations, so a seed
gives that loop's samples and estimates byte for byte.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Sequence

import numpy as np

from .graphs import LabeledGraph
from .states import CLASS16, Bits, CycleKernel

DIAGNOSTIC_DIM_CAP = 12
# the probability that a step holds the state without drawing a move
LAZINESS = 0.5
_RECOUNT_PERIOD = 1 << 16
# the masks of even in-degree (the only ones an even orientation has), and
# per flip mask xm and in-mask m the step (m ^ xm, class before, class after)
_EVEN_MASKS = tuple(m for m in range(16) if CLASS16[m] >= 0)
_FLIP = tuple(tuple((m ^ xm, CLASS16[m], CLASS16[m ^ xm]) for m in range(16)) for xm in range(16))


@dataclass(frozen=True)
class ChainConfig:
    seed: int
    proposal: str = "basis-cycle"  # or "face" (rotation systems only)
    burn_in: int = 0
    thinning: int = 1

    def __post_init__(self):
        if self.proposal not in ("basis-cycle", "face"):
            raise ValueError(f"unknown proposal kind {self.proposal!r}")
        if self.burn_in < 0:
            raise ValueError("burn-in must be nonnegative")
        if self.thinning < 1:
            raise ValueError("thinning must be at least 1")


def _positive(params) -> tuple[Fraction, ...]:
    p = tuple(Fraction(x) for x in params)
    if any(x <= 0 for x in p):
        raise ValueError("chain weights need strictly positive parameters")
    return p


class Chain:
    """Lazy Metropolis chain on a kernel's coset, started at the reference orientation.

    Each step draws, in this order, the laziness coin, a uniform move and
    (for a ratio below 1) the acceptance coin, so a seed fixes the run.  A
    laziness coin below ``LAZINESS`` (1/2) holds the state and draws nothing
    more.  The move is drawn as ``Random.randrange(nmoves)`` draws it
    (CPython 3.10-3.13): ``getrandbits(nmoves.bit_length())``, redrawn while
    it is ``>= nmoves``, so the chain consumes the same stream as a call to
    ``randrange`` would.  ``factors[xm][mask]`` is the class-weight ratio
    ``w[class(mask ^ xm)] / w[class(mask)]`` of flipping the bits ``xm`` of
    an in-mask, one 16-entry table per distinct flip mask of the kernel; a
    proposal's ratio is the product of its touched vertices' factors, in
    touch order.  Masks stay exact integers and the class counts are
    recounted from them periodically as a cheap self-check.
    """

    def __init__(self, kernel: CycleKernel, rng: Random):
        if not kernel.touch:
            raise ValueError("the chain needs at least one move; this coset has a single state")
        self.kernel = kernel
        self.rng = rng
        self.masks = list(kernel.reference_masks)
        self.counts = [0, 0, 0, 0]
        for m in self.masks:
            self.counts[CLASS16[m]] += 1
        self.factors = {xm: [None] * 16 for flips in kernel.touch for _, xm in flips}
        # per move and touched vertex: (vertex, its _FLIP row, its factor table)
        self._moves = [
            tuple((v, _FLIP[xm], self.factors[xm]) for v, xm in flips) for flips in kernel.touch
        ]
        self.set_params((1.0, 1.0, 1.0, 1.0))
        self.steps = 0

    def set_params(self, weights: Sequence[float]):
        """Target the Gibbs measure with these class weights (uniform until set)."""
        ratio = [[weights[a] / weights[b] for b in range(4)] for a in range(4)]
        for xm, table in self.factors.items():
            for m in _EVEN_MASKS:
                table[m] = ratio[CLASS16[m ^ xm]][CLASS16[m]]

    def orientation(self) -> Bits:
        return self.kernel.orientation(self.masks)

    def advance(self, steps: int):
        self.run(1, steps)

    def run(self, samples: int, thinning: int, pows=None) -> tuple[float, float]:
        """Run ``samples`` blocks of ``thinning`` steps.

        With ``pows`` (per class, a table indexed by the class count), each
        block ends by adding ``prod_i pows[i][counts[i]]`` and its square to
        two sums, which are returned; without it they stay 0.
        """
        masks, counts, moves = self.masks, self.counts, self._moves
        nmoves = len(moves)
        bits = nmoves.bit_length()
        random, getrandbits = self.rng.random, self.rng.getrandbits
        laziness = LAZINESS
        if pows is not None:
            p0, p1, p2, p3 = pows
        acc = acc_sq = 0.0
        for _ in range(samples):
            for _ in range(thinning):
                if random() < laziness:
                    continue
                j = getrandbits(bits)
                while j >= nmoves:
                    j = getrandbits(bits)
                flips = moves[j]
                ratio = 1.0
                for v, _, f in flips:
                    ratio *= f[masks[v]]
                if ratio >= 1.0 or random() < ratio:
                    for v, flip, _ in flips:
                        m, old, new = flip[masks[v]]
                        masks[v] = m
                        counts[old] -= 1
                        counts[new] += 1
            if pows is not None:
                w = p0[counts[0]] * p1[counts[1]] * p2[counts[2]] * p3[counts[3]]
                acc += w
                acc_sq += w * w
        self.steps += samples * thinning
        if self.steps >= _RECOUNT_PERIOD:
            self.steps = 0
            recount = [0, 0, 0, 0]
            for m in masks:
                recount[CLASS16[m]] += 1
            if recount != counts:
                raise AssertionError("chain class counts drifted from the masks")
        return acc, acc_sq


def sample(
    graph: LabeledGraph,
    params,
    cfg: ChainConfig,
    n_samples: int,
) -> list[Bits]:
    """Burn in, then record an orientation every ``thinning`` steps."""
    if n_samples < 0:
        raise ValueError("sample count must be nonnegative")
    if n_samples == 0:
        return []
    weights = [float(x) for x in _positive(params)]
    chain = Chain(CycleKernel(graph, cfg.proposal), Random(cfg.seed))
    chain.set_params(weights)
    chain.advance(cfg.burn_in)
    out = []
    for _ in range(n_samples):
        chain.advance(cfg.thinning)
        out.append(chain.orientation())
    return out


# ----------------------------------------------------------------------
# exact diagnostics on small state spaces


@dataclass(frozen=True)
class ChainDiagnostics:
    states: int
    detailed_balance: bool
    stationary_exact: bool
    rows_sum_one: bool
    tv_curve: tuple[tuple[int, float], ...]
    steps_to_threshold: int | None
    tv_threshold: float


def _state_weights(kernel: CycleKernel, params, dim_cap: int) -> list[Fraction]:
    """Exact Gibbs weight per cycle-space coordinate (bit j = basis cycle j)."""

    def weight(profile) -> Fraction:
        w = Fraction(1)
        for p_i, n_i in zip(params, profile):
            w *= p_i**n_i
        return w

    walk = kernel.walk(list(kernel.reference_masks), dim_cap)
    return [w for _, w in sorted((i ^ (i >> 1), weight(p)) for i, p in enumerate(walk))]


def exact_chain_diagnostics(
    graph: LabeledGraph,
    params,
    dim_cap: int = DIAGNOSTIC_DIM_CAP,
    tv_threshold: float = 0.01,
    max_steps: int = 200_000,
) -> ChainDiagnostics:
    """Exact transition matrix,  detailed balance, and TV decay to stationarity.

    The chain is the basis-cycle chain with laziness ``LAZINESS``, the
    chain that ``sample`` runs by default: only basis-cycle moves index the
    coset directly.  Rational arithmetic for the matrix checks; the TV
    curve (from the reference-orientation start) is tracked in floating
    point until it falls below ``tv_threshold``, which must lie in (0, 1).
    """
    if not 0 < tv_threshold < 1:
        raise ValueError(f"tv_threshold must lie in (0, 1), got {tv_threshold}")
    kernel = CycleKernel(graph)
    weights = _state_weights(kernel, _positive(params), dim_cap)
    k, size = kernel.dimension, len(weights)
    lazy = Fraction(LAZINESS)
    move_prob = (1 - lazy) / k

    # sparse transition rows: P[x][x ^ bit_j] = move_prob * min(1, w_y/w_x)
    accept: list[list[Fraction]] = [[Fraction(0)] * k for _ in range(size)]
    for x in range(size):
        for j in range(k):
            y = x ^ (1 << j)
            r = weights[y] / weights[x]
            accept[x][j] = move_prob * (r if r < 1 else Fraction(1))

    rows_sum_one = True
    detailed_balance = True
    for x in range(size):
        stay = Fraction(1) - sum(accept[x])
        if stay < lazy:  # stay includes laziness plus rejected proposals
            rows_sum_one = False
        for j in range(k):
            y = x ^ (1 << j)
            if weights[x] * accept[x][j] != weights[y] * accept[y][j]:
                detailed_balance = False

    total = sum(weights)
    pi = [w / total for w in weights]
    # stationarity: sum_x pi[x] P[x][y] == pi[y]
    stationary = [Fraction(0)] * size
    for x in range(size):
        stay = Fraction(1) - sum(accept[x])
        stationary[x] += pi[x] * stay
        for j in range(k):
            stationary[x ^ (1 << j)] += pi[x] * accept[x][j]
    stationary_exact = stationary == pi

    # float TV decay from the deterministic start state
    acc = np.array([[float(a) for a in row] for row in accept])
    stay_f = 1.0 - acc.sum(axis=1)
    pi_f = np.array([float(p) for p in pi])
    mu = np.zeros(size)
    mu[0] = 1.0
    curve = []
    steps_to_threshold = None
    idx = np.arange(size)
    flipped = [idx ^ (1 << j) for j in range(k)]
    for t in range(1, max_steps + 1):
        nxt = mu * stay_f
        for j in range(k):
            nxt[flipped[j]] += mu * acc[:, j]
        mu = nxt
        tv = 0.5 * float(np.abs(mu - pi_f).sum())
        curve.append((t, tv))
        if tv < tv_threshold:
            steps_to_threshold = t
            break
    return ChainDiagnostics(
        states=size,
        detailed_balance=detailed_balance,
        stationary_exact=stationary_exact,
        rows_sum_one=rows_sum_one,
        tv_curve=tuple(curve),
        steps_to_threshold=steps_to_threshold,
        tv_threshold=tv_threshold,
    )

