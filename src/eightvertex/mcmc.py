"""Cycle-flip Metropolis chain on even orientations.

A state is the reference even orientation xor a sum of move edge sets
(basis cycles, or face boundaries on a rotation system), so every state
is even by construction.  Irreducibility is enforced, not assumed: the
cycle-space kernel refuses move sets whose GF(2) rank is below the
cycle-space dimension.  The chain is lazy with the fixed holding
probability ``LAZINESS`` = 1/2, which makes it aperiodic and its spectrum
nonnegative.  It keeps only per-vertex in-masks and class counts; a
proposal's weight ratio is a product, over the vertices the flip touches,
of one of the 16 ratios of the four class weights each.  ``sample``
records the masks after each block of steps, many blocks at a time, reads
a whole record's orientations from it in one array pass and hands them
on, so it holds one record, not every row.
The chain draws what a plain loop over ``random()`` and
``randrange(nmoves)`` draws and does the same float operations, so a seed
gives that loop's samples and estimates byte for byte.  The exact chain
diagnostics read each state's Gibbs weight from the kernel's blocks of
masks (``states.CycleKernel.blocks``), which list the states by
cycle-space coordinate, so basis-cycle move j flips bit j of the index.

The steps run in a compiled kernel, ``_chain.c``, wherever one can be
built: it keeps the masks, counts, class weights and the generator's
MT19937 state in native memory and draws exactly as CPython 3.10-3.13's
``random.Random`` does.  It tempers each twist's 624 words into a buffer,
so a draw is a load, and tests the laziness coin on the first of its two
words (so ``LAZINESS`` is 1/2 there).  Both step paths divide the four
class weights into their 16 ratios once per call, so ``set_params`` only
stores the weights; ``Chain.ais`` divides every stage of an annealing
schedule in one array pass (``_ratios``) and both paths read its rows.
The chains on one kernel share its move tables (``CycleKernel.move_table``),
and an estimate's schedule is built as the float64 arrays that the kernel
reads (``estimator.build_schedule``), so all its chains read one copy.
``Chain`` alone cuts its work into calls (``calls``) of at most
``CALL_STEPS`` steps, or one block or particle of annealed importance
sampling where that is longer, so that Ctrl-C is seen between calls.  The
first chain built in a process compiles it with ``cc`` into this package's
``__pycache__``, under a name keyed by the source and the flags, unless
that file is there already (see ``_native``).  Without a compiler or a
writable cache, or for a generator that is not exactly ``random.Random``,
the same steps run in Python, the kernel's oracle in the tests.
"""
from __future__ import annotations

import ctypes
import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Callable, Iterator, Sequence

import numpy as np

from .graphs import LabeledGraph
from .states import CLASS16, CycleKernel

DIAGNOSTIC_DIM_CAP = 12
DIAGNOSTIC_MAX_STEPS = 200_000
# the probability that a step holds the state without drawing a move; the
# compiled kernel's coin is exactly random() < 1/2
LAZINESS = 0.5
# the most steps one call makes (or one block, if longer)
CALL_STEPS = 1 << 20
_RECOUNT_PERIOD = 1 << 16
# per flip mask xm and in-mask m the step (m ^ xm, class before, class after),
# and the index class(m ^ xm) << 2 | class(m) of its weight ratio in _ratios;
# a move's flip masks and an even orientation's masks are all even
_FLIP = tuple(tuple((m ^ xm, CLASS16[m], CLASS16[m ^ xm]) for m in range(16)) for xm in range(16))
_PAIRS = tuple(tuple(CLASS16[m ^ xm] << 2 | CLASS16[m] for m in range(16)) for xm in range(16))


@dataclass(frozen=True)
class ChainConfig:
    seed: int
    proposal: str = "basis-cycle"  # or "face" (rotation systems only)


def _positive(params) -> tuple[Fraction, ...]:
    p = tuple(Fraction(x) for x in params)
    if any(x <= 0 for x in p):
        raise ValueError("chain weights need strictly positive parameters")
    return p


def _require_moves(kernel: CycleKernel):
    if not kernel.touch:
        raise ValueError("the chain needs at least one move; this coset has a single state")


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


def _ratios(weights: np.ndarray) -> np.ndarray:
    """The (..., 16) rows ``ratio[a << 2 | b] = w[a] / w[b]`` of a (..., 4) float64
    array of class weights w, one IEEE division each, as ``_chain.c`` divides."""
    return (weights[..., :, None] / weights[..., None, :]).reshape(*weights.shape[:-1], 16)


def _load_kernel():
    """``_native.NativeChain`` where the compiled kernel builds and loads, else None."""
    from . import _native  # with the first chain: commands without one never build it

    return _native.load()


def calls(samples: int, thinning: int):
    """Split ``samples`` blocks into calls of at most ``CALL_STEPS`` steps, or one block."""
    per_call = max(1, CALL_STEPS // max(1, thinning))
    for done in range(0, samples, per_call):
        yield min(per_call, samples - done)


class Chain:
    """Lazy Metropolis chain on a kernel's coset, started at the reference orientation.

    Each step draws, in this order, the laziness coin, a uniform move and
    (for a ratio below 1) the acceptance coin, so a seed fixes the run.  A
    laziness coin below ``LAZINESS`` (1/2) holds the state and draws nothing
    more.  The move is drawn as ``Random.randrange(nmoves)`` draws it
    (CPython 3.10-3.13): ``getrandbits(nmoves.bit_length())``, redrawn while
    it is ``>= nmoves``, so the chain consumes the same stream as a call to
    ``randrange`` would.  Flipping the bits ``xm`` of an in-mask m
    multiplies a proposal's ratio by ``w[class(m ^ xm)] / w[class(m)]``,
    entry ``class(m ^ xm) << 2 | class(m)`` of the 16 ratios of the class
    weights; both classes are defined, as the kernel's flip masks all have
    even popcount.  A proposal's ratio is that product over its touched
    vertices, in touch order.  Masks stay exact integers and the class
    counts are recounted from them periodically as a cheap self-check.

    The step path is bound here, once.  Where ``type(rng) is random.Random``
    and the compiled kernel loads, ``masks``, ``counts`` and ``weights`` are
    ctypes arrays in native memory and ``NativeChain`` makes the steps, from
    a copy of ``rng``'s state taken here; reading ``rng`` writes the
    kernel's state back into it.  Otherwise (another generator, or no
    kernel) they are lists and the same steps run in Python, with
    ``NativeChain``'s arguments and results.  Either way ``set_params`` only
    stores the four weights, and the steps divide them into the same 16
    ratios once per call; ``ais`` divides each stage's once per call, with
    ``_ratios``, and hands both paths the rows.  Both paths
    give the same masks, counts, log weights, ``steps`` and generator state,
    bit for bit.  ``advance``, ``ais`` and ``mask_blocks`` make one step
    call per item of ``calls``, then count its steps in ``steps``; each
    time that passes a multiple of ``_RECOUNT_PERIOD`` the class counts are
    recounted from the masks.
    """

    def __init__(self, kernel: CycleKernel, rng: Random):
        _require_moves(kernel)
        self.kernel = kernel
        self._rng = rng
        # the kernel packs vertex << 4 | flip mask into an int32
        n = len(kernel.reference_masks)
        native = _load_kernel() if type(rng) is Random and n < 1 << 27 else None
        self._native = None if native is None else native(kernel, rng)
        if self._native is None:
            self.masks = list(kernel.reference_masks)
            # weights as the kernel's array, so set_params refuses any length but 4 alike
            self.counts, self.weights = [0, 0, 0, 0], (ctypes.c_double * 4)()
            # per move and touched vertex: (vertex, its _FLIP row, its _PAIRS row)
            self._moves = [
                tuple((v, _FLIP[xm], _PAIRS[xm]) for v, xm in flips) for flips in kernel.touch
            ]
            self._run, self._ais = self._python_run, self._python_ais
        else:
            self.masks, self.counts = self._native.masks, self._native.counts
            self.weights = self._native.weights
            self._run, self._ais = self._native.run, self._native.ais
        self.counts[:] = self._class_counts()
        self.set_params((1.0, 1.0, 1.0, 1.0))
        self.steps = 0

    @property
    def rng(self) -> Random:
        """The chain's generator, at the chain's point of its stream."""
        if self._native is not None:
            self._native.write_state(self._rng)
        return self._rng

    def set_params(self, weights: Sequence[float]):
        """Target the Gibbs measure with these class weights (uniform until set)."""
        self.weights[:] = weights

    def advance(self, steps: int):
        """Make ``steps`` steps at the current parameters."""
        for blocks in calls(steps, 1):
            self._run(blocks, 1)
            self._recount(blocks)

    def ais(self, stages, particles: int, thinning: int, log_ratios) -> Iterator[list[float]]:
        """Run ``particles`` particles of annealed importance sampling; yield each call's weights.

        A particle starts uniformly on the coset: the reference orientation
        xor each move, in move order, where ``getrandbits(1)`` says so, so
        ``stages[0]`` must be four equal weights.  Stage g targets the class
        weights ``stages[g]`` (as ``set_params``), makes ``thinning`` steps,
        then adds ``((n0 l0 + n1 l1) + n2 l2) + n3 l3`` to the log weight, n
        the class counts and l = ``log_ratios[g]``.  With row g ln(stage g+1
        / stage g), for a stage q past the last, E[weight] is Z(stage q) / 2^k
        however well the chain mixes.  A call runs whole particles (``calls``).
        Both step paths read ``stages`` and ``log_ratios`` as C-contiguous
        float64 arrays of one shape (q, 4), converted here unless they are
        already, as ``estimator.build_schedule`` makes them; any other shape
        raises ``ValueError`` before the first draw.
        """
        stages, log_ratios = (np.ascontiguousarray(a, np.float64) for a in (stages, log_ratios))
        if stages.shape[1:] != (4,) or log_ratios.shape != stages.shape:
            raise ValueError(f"ais needs one row of 4 log ratios per stage of 4 weights, got "
                             f"shapes {stages.shape} and {log_ratios.shape}")
        ratios, per_particle = _ratios(stages), len(stages) * thinning
        for batch in calls(particles, per_particle):
            log_weights = self._ais(ratios, batch, thinning, log_ratios)
            self._recount(batch * per_particle)
            yield log_weights

    def mask_blocks(self, samples: int, thinning: int) -> Iterator[bytearray]:
        """Run ``samples`` blocks of ``thinning`` steps, recording the masks after each.

        Yields, per call of at most ``CALL_STEPS`` steps (or one block), the
        in-masks after each of its blocks in one ``bytearray``, as both step
        paths' ``run`` returns it: one byte per vertex, one block after
        another.
        """
        for blocks in calls(samples, thinning):
            masks = self._run(blocks, thinning, True)
            self._recount(blocks * thinning)
            yield masks

    def _recount(self, steps: int):
        """Count ``steps`` more steps, and recount the classes from the masks each
        time the total passes a multiple of ``_RECOUNT_PERIOD``."""
        self.steps += steps
        if self.steps // _RECOUNT_PERIOD != (self.steps - steps) // _RECOUNT_PERIOD:
            if self._class_counts() != list(self.counts):
                raise AssertionError("chain class counts drifted from the masks")

    def _class_counts(self) -> list[int]:
        counts = [0, 0, 0, 0]
        for m in self.masks:
            counts[CLASS16[m]] += 1
        return counts

    def _python_run(self, blocks: int, thinning: int, record: bool = False) -> bytearray | None:
        """``NativeChain.run`` in Python."""
        ratio = _ratios(np.array(self.weights)).tolist()
        if not record:
            return self._python_steps(blocks * thinning, ratio)
        masks = bytearray()
        for _ in range(blocks):
            self._python_steps(thinning, ratio)
            masks.extend(self.masks)
        return masks

    def _python_ais(self, ratios, particles: int, thinning: int, log_ratios) -> list[float]:
        """``NativeChain.ais`` in Python."""
        masks, counts, logs = self.masks, self.counts, log_ratios.tolist()
        ratios, log_weights = ratios.tolist(), []
        for _ in range(particles):
            masks[:] = self.kernel.reference_masks
            for flips in self.kernel.touch:
                if self._rng.getrandbits(1):
                    for v, xm in flips:
                        masks[v] ^= xm
            counts[:], log_w = self._class_counts(), 0.0
            for ratio, (l0, l1, l2, l3) in zip(ratios, logs):
                self._python_steps(thinning, ratio)
                log_w += counts[0] * l0 + counts[1] * l1 + counts[2] * l2 + counts[3] * l3
            log_weights.append(log_w)
        return log_weights

    def _python_steps(self, steps: int, ratio: list[float]):
        masks, counts, moves = self.masks, self.counts, self._moves
        nmoves = len(moves)
        bits = nmoves.bit_length()
        random, getrandbits = self._rng.random, self._rng.getrandbits
        laziness = LAZINESS
        for _ in range(steps):
            if random() < laziness:
                continue
            j = getrandbits(bits)
            while j >= nmoves:
                j = getrandbits(bits)
            flips = moves[j]
            r = 1.0
            for v, _, pair in flips:
                r *= ratio[pair[masks[v]]]
            if r >= 1.0 or random() < r:
                for v, flip, _ in flips:
                    m, old, new = flip[masks[v]]
                    masks[v] = m
                    counts[old] -= 1
                    counts[new] += 1


def sample(
    graph: LabeledGraph,
    params,
    cfg: ChainConfig,
    n_samples: int,
    burn_in: int = 0,
    thinning: int = 1,
    *,
    emit: Callable[[np.ndarray], object],
) -> None:
    """Burn in ``burn_in`` steps, then record an orientation every ``thinning`` steps.

    Calls ``emit`` with each ``Chain.mask_blocks`` call's orientations, one
    per row, in slot bits (see ``states``): a ``uint8`` array of shape
    ``(rows, graph.edge_count)``, read in one array pass from that call's
    record of masks viewed, uncopied, as a ``(rows, n)`` array.  Every
    setting is checked before the first step; the kernel counts steps in
    int64, so ``thinning`` must be below 2^63.
    """
    if n_samples < 0:
        raise ValueError("sample count must be nonnegative")
    if burn_in < 0:
        raise ValueError("burn-in must be nonnegative")
    if not 1 <= thinning < 1 << 63:
        raise ValueError(f"thinning must lie in [1, 2^63), got {thinning}")
    p = _positive(params)
    kernel = CycleKernel(graph, cfg.proposal)
    chain = Chain(kernel, Random(cfg.seed))
    chain.set_params(chain_weights(p, kernel))
    chain.advance(burn_in)
    for block in chain.mask_blocks(n_samples, thinning):
        masks = np.frombuffer(block, dtype=np.uint8).reshape(-1, graph.vertex_count)
        emit(kernel.orientations(masks))


# ----------------------------------------------------------------------
# exact diagnostics on small state spaces


@dataclass(frozen=True)
class ChainDiagnostics:
    states: int
    tv_curve: tuple[tuple[int, float], ...]
    steps_to_threshold: int | None
    tv_threshold: float


def _state_profiles(kernel: CycleKernel) -> np.ndarray:
    """Class counts (n_0 .. n_3) per cycle-space coordinate (bit j = basis
    cycle j), as an int array of shape (2^k, 4)."""
    low, starts = kernel.blocks(kernel.reference_masks, DIAGNOSTIC_DIM_CAP)
    masks = np.hstack([low ^ start[:, None] for start in starts])
    classes = np.array(CLASS16)[masks]
    return np.stack([(classes == c).sum(axis=0) for c in range(4)], axis=1)


def _per_distinct_row(rows: np.ndarray, f: Callable) -> list:
    """``[f(row) for row in rows]`` over a 2-D array, calling f once per distinct row."""
    f = functools.cache(f)
    return [f(row) for row in map(tuple, rows.tolist())]


def _power_product(params, exponents) -> Fraction:
    """The product of ``p_c ** n_c``: the Gibbs weight of a class profile n,
    or w_y / w_x for the profile change n(y) - n(x)."""
    return math.prod(p_c**n_c for p_c, n_c in zip(params, exponents))


def _state_weights(profiles: np.ndarray, params) -> list[Fraction]:
    """Exact Gibbs weight per row of ``_state_profiles``, one product per distinct profile."""
    return _per_distinct_row(profiles, lambda n: _power_product(params, n))


def exact_chain_diagnostics(
    graph: LabeledGraph, params, tv_threshold: float = 0.01
) -> ChainDiagnostics:
    """Exact transition matrix and TV decay to stationarity.

    The chain is the basis-cycle chain with laziness ``LAZINESS``, the
    chain that ``sample`` runs by default: only basis-cycle moves index the
    coset directly.  No balance check: w_x P(x, y) = (1 - LAZINESS)/k
    min(w_x, w_y) is symmetric in x and y, so pi P = pi too.  Exact ratios
    rounded once to floats; the TV curve (from the reference-orientation
    start) is tracked in floating point until it falls below
    ``tv_threshold``, which must lie in (0, 1), or for
    ``DIAGNOSTIC_MAX_STEPS`` steps.  Graphs of cycle-space dimension 0 (a
    coset of one state, with no move) or above ``DIAGNOSTIC_DIM_CAP`` are
    refused.
    """
    if not 0 < tv_threshold < 1:
        raise ValueError(f"tv_threshold must lie in (0, 1), got {tv_threshold}")
    kernel = CycleKernel(graph)
    _require_moves(kernel)
    p = _positive(params)
    profiles = _state_profiles(kernel)
    k, size = kernel.dimension, len(profiles)
    move_prob = (1 - Fraction(LAZINESS)) / k
    flipped = [np.arange(size) ^ (1 << j) for j in range(k)]
    # P[x][x ^ bit_j] = move_prob * min(1, w_y/w_x), and w_y/w_x depends on
    # the profile change alone, so one exact value per distinct change is
    # rounded; a step stays with the rest
    changes = np.stack([profiles[f] - profiles for f in flipped], axis=1).reshape(-1, 4)
    acc = np.array(_per_distinct_row(
        changes, lambda d: float(move_prob * min(_power_product(p, d), 1))
    )).reshape(size, k)
    stay_f = 1.0 - acc.sum(axis=1)
    total = sum(_state_weights(profiles, p))
    pi_f = np.array(_per_distinct_row(profiles, lambda n: float(_power_product(p, n) / total)))
    mu = np.zeros(size)
    mu[0] = 1.0
    curve = []
    steps_to_threshold = None
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
        tv_curve=tuple(curve),
        steps_to_threshold=steps_to_threshold,
        tv_threshold=tv_threshold,
    )

