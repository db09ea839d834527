"""Cycle-flip Metropolis chain on even orientations.

A state is the reference even orientation xor a sum of move edge sets
(basis cycles, or face boundaries on a rotation system), so every state
is even by construction.  Irreducibility is enforced, not assumed: the
cycle-space kernel refuses move sets whose GF(2) rank is below the
cycle-space dimension.  The chain is lazy with the fixed holding
probability ``LAZINESS`` = 1/2, which makes it aperiodic and its spectrum
nonnegative.  It keeps only per-vertex in-masks and class counts; a
proposal's weight ratio is a product of table lookups over the vertices
the flip touches.  ``sample`` records the masks after each block of steps,
many blocks at a time, and reads a whole record's orientations from it in
one array pass.
The chain draws what a plain loop over ``random()`` and
``randrange(nmoves)`` draws and does the same float operations, so a seed
gives that loop's samples and estimates byte for byte.  The exact chain
diagnostics read each state's Gibbs weight from the kernel's blocks of
masks (``states.CycleKernel.blocks``), which list the states by
cycle-space coordinate, so basis-cycle move j flips bit j of the index.

The steps run in a compiled kernel, ``_chain.c``, wherever one can be
built: it keeps the masks, counts, factor tables and the generator's
MT19937 state in native memory and draws exactly as CPython 3.10-3.13's
``random.Random`` does.  The first chain built in a process compiles it
with ``cc`` into this package's ``__pycache__``, under a name keyed by the
source and the flags, unless that file is there already (see
``_native``).  Without a compiler or a writable cache, or for a generator
that is not exactly ``random.Random``, the same steps run in Python, which
is also the kernel's oracle in the tests.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Iterator, Sequence

import numpy as np

from .graphs import LabeledGraph
from .states import CLASS16, CycleKernel

DIAGNOSTIC_DIM_CAP = 12
DIAGNOSTIC_MAX_STEPS = 200_000
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

    def __post_init__(self):
        if self.proposal not in ("basis-cycle", "face"):
            raise ValueError(f"unknown proposal kind {self.proposal!r}")


def _positive(params) -> tuple[Fraction, ...]:
    p = tuple(Fraction(x) for x in params)
    if any(x <= 0 for x in p):
        raise ValueError("chain weights need strictly positive parameters")
    return p


def float_or_inf(x) -> float:
    """``float(x)``, or infinity with x's sign where that overflows."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def chain_weights(params: Sequence, kernel: CycleKernel) -> list[float]:
    """The parameters as float class weights, refused unless every ratio is a normal float.

    Each weight must round to a positive normal float.  A proposal's ratio
    is a product of one factor in [min/max, max/min] per vertex the move
    touches, so (max/min)^T, with T the most vertices one move of
    ``kernel`` touches, must stay inside the normal float range too.
    Raises ``ValueError`` otherwise.
    """
    weights = [float_or_inf(x) for x in params]
    if not all(sys.float_info.min <= w <= sys.float_info.max for w in weights):
        raise ValueError(
            f"weights {', '.join(f'{w:.3g}' for w in weights)} (as floats) must lie in "
            f"the normal float range [{sys.float_info.min:.3g}, {sys.float_info.max:.3g}]"
        )
    touch = max(map(len, kernel.touch), default=0)
    spread = math.log(max(weights)) - math.log(min(weights))
    if touch * spread > -math.log(sys.float_info.min):
        raise ValueError(
            f"weights span a factor e^{spread:.1f}, so a move touching {touch} vertices "
            f"can have a ratio e^{touch * spread:.1f}, outside the normal float range"
        )
    return weights


def _load_kernel():
    """``_native.NativeChain`` where the compiled kernel builds and loads, else None."""
    from . import _native  # with the first chain: commands without one never build it

    return _native.load()


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

    Where ``type(rng) is random.Random`` and the compiled kernel loads,
    ``masks``, ``counts`` and the factor tables are ctypes arrays in native
    memory and the kernel makes the steps, from a copy of ``rng``'s state
    taken here; reading ``rng`` writes the kernel's state back into it.
    Otherwise (another generator, or no kernel) they are lists and the
    same steps run in Python.  Both paths give the same masks, counts,
    sums and generator state, bit for bit.
    """

    def __init__(self, kernel: CycleKernel, rng: Random):
        if not kernel.touch:
            raise ValueError("the chain needs at least one move; this coset has a single state")
        self.kernel = kernel
        self._rng = rng
        # the kernel packs vertex << 4 | flip mask into an int32
        n = len(kernel.reference_masks)
        native = _load_kernel() if type(rng) is Random and n < 1 << 27 else None
        self._native = None if native is None else native(kernel, rng, LAZINESS)
        if self._native is None:
            self.masks = list(kernel.reference_masks)
            self.counts = [0, 0, 0, 0]
            self.factors = {xm: [None] * 16 for flips in kernel.touch for _, xm in flips}
            # per move and touched vertex: (vertex, its _FLIP row, its factor table)
            self._moves = [
                tuple((v, _FLIP[xm], self.factors[xm]) for v, xm in flips)
                for flips in kernel.touch
            ]
        else:
            self.masks, self.counts = self._native.masks, self._native.counts
            self.factors = self._native.factors
        for m in self.masks:
            self.counts[CLASS16[m]] += 1
        self.set_params((1.0, 1.0, 1.0, 1.0))
        self.steps = 0

    @property
    def rng(self) -> Random:
        """The chain's generator, at the chain's point of its stream."""
        if self._native is not None:
            self._native.write_state(self._rng)
        return self._rng

    @rng.setter
    def rng(self, rng):
        if self._native is not None:
            raise AttributeError("the compiled kernel holds this chain's generator state")
        self._rng = rng

    def set_params(self, weights: Sequence[float]):
        """Target the Gibbs measure with these class weights (uniform until set)."""
        ratio = [[weights[a] / weights[b] for b in range(4)] for a in range(4)]
        for xm, table in self.factors.items():
            for m in _EVEN_MASKS:
                table[m] = ratio[CLASS16[m ^ xm]][CLASS16[m]]

    def advance(self, steps: int):
        self.run(1, steps)

    def run(self, samples: int, thinning: int, pows=None) -> tuple[float, float]:
        """Run ``samples`` blocks of ``thinning`` steps.

        With ``pows`` (per class, a table indexed by the class count), each
        block ends by adding ``prod_i pows[i][counts[i]]`` and its square to
        two sums, which are returned; without it they stay 0.  The kernel
        copies ``pows`` when it sees a new object, so pass immutable tables.
        """
        if self._native is None:
            sums = self._python_run(samples, thinning, pows)
        else:
            sums = self._native.run(samples, thinning, pows)
        self._recount(samples * thinning)
        return sums

    def mask_blocks(self, samples: int, thinning: int) -> Iterator[bytearray]:
        """Run ``samples`` blocks of ``thinning`` steps, recording the masks after each.

        Yields, per call of at most ``_native.CALL_STEPS`` steps (or one
        block), the in-masks after each of its blocks: one byte per vertex,
        one block after another.
        """
        from ._native import calls

        for blocks in calls(samples, thinning):
            if self._native is None:
                masks = bytearray()
                for _ in range(blocks):
                    self._python_run(1, thinning, None)
                    masks.extend(self.masks)
            else:
                masks = self._native.record(blocks, thinning)
            self._recount(blocks * thinning)
            yield masks

    def _recount(self, steps: int):
        self.steps += steps
        if self.steps >= _RECOUNT_PERIOD:
            self.steps = 0
            recount = [0, 0, 0, 0]
            for m in self.masks:
                recount[CLASS16[m]] += 1
            if recount != list(self.counts):
                raise AssertionError("chain class counts drifted from the masks")

    def _python_run(self, samples: int, thinning: int, pows) -> tuple[float, float]:
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
        return acc, acc_sq


def sample(
    graph: LabeledGraph,
    params,
    cfg: ChainConfig,
    n_samples: int,
    burn_in: int = 0,
    thinning: int = 1,
) -> np.ndarray:
    """Burn in ``burn_in`` steps, then record an orientation every ``thinning`` steps.

    Returns one orientation per row, in slot bits (see ``states``): a
    ``uint8`` array of shape ``(n_samples, graph.edge_count)``.
    """
    if n_samples < 0:
        raise ValueError("sample count must be nonnegative")
    if burn_in < 0:
        raise ValueError("burn-in must be nonnegative")
    if thinning < 1:
        raise ValueError("thinning must be at least 1")
    try:
        rows = np.empty((n_samples, graph.edge_count), dtype=np.uint8)
    except MemoryError:
        raise ValueError(f"{n_samples} samples of {graph.edge_count} bits do not fit in memory") from None
    if n_samples == 0:
        return rows
    p = _positive(params)
    kernel = CycleKernel(graph, cfg.proposal)
    chain = Chain(kernel, Random(cfg.seed))
    chain.set_params(chain_weights(p, kernel))
    chain.advance(burn_in)
    done = 0
    for block in chain.mask_blocks(n_samples, thinning):
        masks = np.frombuffer(block, dtype=np.uint8).reshape(-1, graph.vertex_count)
        rows[done:done + len(masks)] = kernel.orientations(masks)
        done += len(masks)
    return rows


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


def _state_weights(kernel: CycleKernel, params) -> list[Fraction]:
    """Exact Gibbs weight per cycle-space coordinate (bit j = basis cycle j)."""

    def weight(profile) -> Fraction:
        w = Fraction(1)
        for p_i, n_i in zip(params, profile):
            w *= p_i**n_i
        return w

    masks = np.hstack(list(kernel.blocks(kernel.reference_masks, DIAGNOSTIC_DIM_CAP)))
    classes = np.array(CLASS16)[masks]
    profiles = np.stack([(classes == c).sum(axis=0) for c in range(4)], axis=1)
    return [weight(p) for p in profiles.tolist()]


def exact_chain_diagnostics(
    graph: LabeledGraph, params, tv_threshold: float = 0.01
) -> ChainDiagnostics:
    """Exact transition matrix,  detailed balance, and TV decay to stationarity.

    The chain is the basis-cycle chain with laziness ``LAZINESS``, the
    chain that ``sample`` runs by default: only basis-cycle moves index the
    coset directly.  Rational arithmetic for the matrix checks; the TV
    curve (from the reference-orientation start) is tracked in floating
    point until it falls below ``tv_threshold``, which must lie in (0, 1),
    or for ``DIAGNOSTIC_MAX_STEPS`` steps.  Graphs of cycle-space dimension
    above ``DIAGNOSTIC_DIM_CAP`` are refused.
    """
    if not 0 < tv_threshold < 1:
        raise ValueError(f"tv_threshold must lie in (0, 1), got {tv_threshold}")
    kernel = CycleKernel(graph)
    weights = _state_weights(kernel, _positive(params))
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
    for t in range(1, DIAGNOSTIC_MAX_STEPS + 1):
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

