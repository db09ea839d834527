"""Annealed importance sampling of the partition function.

A geometric schedule walks from the uniform point, where Z is the coset's
size 2^k, to the target.  Each particle carries a weight through the stages
from an exact uniform start (``Chain.ais``; Neal, Statistics and Computing
2001), whose mean is Z/2^k however well the chain keeps up.  A pilot chain's
variance V of ln w fixes the particle count: a weight's relative variance is
then about e^V - 1, as for a lognormal weight, and N = 4 (e^V - 1) / eps^2
particles make a group's mean miss by more than eps with probability at most
1/4 (Chebyshev), so the (eps, delta) claim rests on the pilot's measured V.
The median over independent groups, which share nothing but the master
seed, controls the failure probability; their weights are combined in chain
order, so every thread count gives the same bits.
"""
from __future__ import annotations

import contextlib
import json
import math
import os
import sys
import threading
from dataclasses import dataclass, field
from random import Random
from typing import Sequence

import numpy as np

from .exact import ParamVec, as_params, format_rational, z8v_exact
from .graphs import LabeledGraph
from .mcmc import Chain, ChainConfig, chain_weights, float_or_inf
from .states import CycleKernel, face_two_coloring
from .transforms import TransformPlan, in_yz, plan_report, plan_transform

MIN_GROUPS = 12
MAX_GROUPS = 200
# the pilot chain's particles, which only choose N, and the least N
PILOT_PARTICLES = 32
MIN_PARTICLES = 16


class PipelineError(RuntimeError):
    pass


@dataclass(frozen=True)
class AnnealSchedule:
    """What the chains of one estimate run, from ``build_schedule``.

    ``params[t]`` are the class weights of stage t on the geometric curve
    from the uniform point to the target, stage q = len(params) - 1, and
    ``log_ratios[g]`` is the log of each class's ratio of stage g + 1 to
    stage g.  Both are read-only C-contiguous float64 arrays, of shapes
    (q + 1, 4) and (q, 4), the form that both step paths of ``Chain.ais``
    read, so every chain reads them as they are.  A pilot chain, whose
    weights decide the particles per group, then each of ``groups``
    chains, runs stages 0..q-1 in ``Chain.ais``, ``thinning`` = (k+1)/2
    steps per stage for cycle-space dimension k.
    """

    params: np.ndarray
    log_ratios: np.ndarray
    groups: int
    thinning: int


def _geometric_stages(target: ParamVec, q: int) -> tuple[list[float], np.ndarray]:
    """The ratios ``t ** (1/q)`` and the (q + 1, 4) stages, each the one before
    times the ratios, from the uniform point: one ``np.cumprod``."""
    ratios = [float(t) ** (1.0 / q) for t in target]
    factors = np.ones((q + 1, 4))
    factors[1:] = ratios
    return ratios, np.cumprod(factors, axis=0)


def default_stage_count(graph: LabeledGraph, target: ParamVec) -> int:
    spread = max(abs(math.log(float(t))) for t in target)
    return max(1, math.ceil(8 * graph.vertex_count * spread))


@dataclass(frozen=True)
class Estimate:
    value: float
    relative_error_target: float
    failure_probability: float
    stages: int = 0
    groups: int = 0
    samples_per_stage: int = 0
    diagnostics: dict = field(default_factory=dict)

    def to_jsonable(self) -> dict:
        return {
            "value": self.value,
            "eps": self.relative_error_target,
            "delta": self.failure_probability,
            "stages": self.stages,
            "groups": self.groups,
            "samples_per_stage": self.samples_per_stage,
            "diagnostics": self.diagnostics,
        }


def _median_failure(groups: int) -> float:
    """P[at least half of the groups miss], each missing w.p. <= 1/4."""
    tail = 0.0
    threshold = (groups + 1) // 2
    for k in range(threshold, groups + 1):
        tail += math.comb(groups, k) * 0.25**k * 0.75 ** (groups - k)
    return tail


def _group_count(delta: float) -> int:
    g = MIN_GROUPS
    while _median_failure(g) > delta:
        if g >= MAX_GROUPS:
            raise ValueError(
                f"delta={delta} is below the failure bound {_median_failure(g):.3g} "
                f"of {MAX_GROUPS} groups"
            )
        g += 2
    return g


def _check_accuracy(eps: float, delta: float):
    if not 0 < eps < 1:
        raise ValueError(f"eps must lie strictly between 0 and 1, got {eps}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie strictly between 0 and 1, got {delta}")


def _particle_count(schedule: AnnealSchedule, variance: float, eps: float) -> int:
    """N = max(16, ceil(4 (e^V - 1) / eps^2)) for a pilot's V, refused where the
    pilot's or a group's chain makes 2^63 steps or more (the kernel counts in int64)."""
    try:
        particles = max(MIN_PARTICLES, math.ceil(4.0 * math.expm1(variance) / (eps * eps)))
    except (OverflowError, ValueError, ZeroDivisionError):  # also an eps^2 that underflows
        particles = math.inf
    steps = max(PILOT_PARTICLES, particles) * (len(schedule.params) - 1) * schedule.thinning
    if not steps < 1 << 63:
        raise ValueError(f"eps={eps} needs at least {steps:.3g} steps per chain, past 2^63 - 1")
    return particles


def build_schedule(
    graph: LabeledGraph, target: Sequence, eps: float, delta: float, k: int
) -> AnnealSchedule:
    """The ``AnnealSchedule`` to a strictly positive target, for cycle-space dimension ``k``;
    refuses an ``eps`` where ``_particle_count`` refuses even the fewest particles."""
    t = as_params(target)
    if any(x <= 0 for x in t):
        raise ValueError("anneal target must be strictly positive")
    q = default_stage_count(graph, t)
    ratios, stages = _geometric_stages(t, q)
    # math.log, whose last bit np.log need not match
    log_ratios = np.full((q, 4), [math.log(r) for r in ratios])
    stages.flags.writeable = log_ratios.flags.writeable = False
    schedule = AnnealSchedule(stages, log_ratios, _group_count(delta), (k + 1) // 2)
    _particle_count(schedule, 0.0, eps)
    return schedule


def _pin(cpus) -> None:
    with contextlib.suppress(OSError):  # the allowed set changed since it was read
        os.sched_setaffinity(0, cpus)


def _cpu_order(cpus, pid: int, count: int) -> list[int]:
    """The allowed ``cpus`` in the order that ``_run_pinned`` pins its threads to them.

    A process runs t = min(count, len(cpus)) threads on the first t.  The
    sorted list turns by ``pid * t``, so processes with consecutive ids
    take disjoint blocks of t CPUs wherever such blocks fit.
    """
    cpus = sorted(cpus)
    turn = pid * min(count, len(cpus)) % max(1, len(cpus))
    return cpus[turn:] + cpus[:turn]


def _run_pinned(count: int, task, stop: threading.Event):
    """Call ``task(i)`` for each i < count on one thread per allowed CPU, each pinned.

    Unpinned, the scheduler kept both threads of a 2-vCPU host on one vCPU
    and they gained nothing.  So the caller pins itself to one allowed CPU
    and each helper to another, at most ``count`` threads, in the order of
    ``_cpu_order``, so that concurrent processes start apart.  The
    threads pull indices from one counter, so a loaded CPU takes fewer.  A
    helper's exception reaches the caller.  On any exit the caller sets
    ``stop``, joins the helpers and restores its affinity; a task is to
    return early once ``stop`` is set, and no thread takes a new index then.
    Without ``os.sched_getaffinity`` the caller runs every task alone.
    """
    before = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()
    cpus = _cpu_order(before, os.getpid(), count)
    indices, lock, errors, helpers = iter(range(count)), threading.Lock(), [], []

    def work():
        while not stop.is_set():
            with lock:
                i = next(indices, None)
            if i is None:
                return
            task(i)

    def helper(cpu):
        _pin({cpu})
        try:
            work()
        except BaseException as exc:  # raised in the caller after the join
            errors.append(exc)
            stop.set()

    try:
        if cpus:
            _pin(cpus[:1])
        for cpu in cpus[1:count]:
            helpers.append(threading.Thread(target=helper, args=(cpu,)))
            helpers[-1].start()
        work()
        for thread in helpers:
            thread.join()
    finally:
        stop.set()  # a no-op unless the caller is leaving early
        for thread in helpers:
            thread.join()
        if cpus:
            _pin(before)
    if errors:
        raise errors[0]


def anneal_estimate(
    graph: LabeledGraph,
    target: Sequence,
    eps: float,
    delta: float,
    cfg: ChainConfig,
) -> Estimate:
    """Estimate the partition function at a strictly positive target in Y and Z.

    The result is ``anchor`` times the median over independent chain groups
    of each group's mean importance weight (see the module docstring).
    Deterministic for a fixed seed.

    Of ``cfg`` it reads ``seed`` (the master generator of the chain seeds)
    and ``proposal`` (the move set).  The pilot, then each group, runs the
    schedule of ``build_schedule`` in ``Chain.ais``; the groups run on one
    pinned thread per allowed CPU (``_run_pinned``), and on the Python steps
    the GIL serialises them.

    Before any chain step it also refuses, with a ``ValueError``, a target
    that ``chain_weights`` refuses, or one where the bracket
    [k ln 2 + n ln min, k ln 2 + n ln max] around ln Z leaves the float range;
    before any group's step, a particle count that ``_particle_count``
    refuses.  A target with four equal entries a is exact, 2^k a^n, and runs
    no chain.
    """
    _check_accuracy(eps, delta)
    t = as_params(target)
    if any(x <= 0 for x in t):
        raise ValueError("anneal target must be strictly positive")
    # a target in Y and Z keeps every stage from (1,1,1,1) to it there: Karamata's
    # inequality for the concave x^s keeps Y, and x^s being subadditive keeps Z
    if not in_yz(t):
        raise ValueError(
            "target outside the rapidly-mixing region; plan a transform first"
        )
    kernel = CycleKernel(graph, cfg.proposal)
    weights = chain_weights(t, kernel)
    n, k = graph.vertex_count, kernel.dimension
    # Z sums 2^k state weights, each a product of n class weights
    low = k * math.log(2) + n * math.log(min(weights))
    high = k * math.log(2) + n * math.log(max(weights))
    if low < math.log(sys.float_info.min) or high > math.log(sys.float_info.max):
        raise ValueError(
            f"ln Z lies in [{low:.1f}, {high:.1f}], which leaves the float range "
            f"[{math.log(sys.float_info.min):.1f}, {math.log(sys.float_info.max):.1f}]"
        )
    anchor = 1 << k
    if len(set(t)) == 1:  # every state weighs a^n: Z = 2^k a^n, no chain needed
        diagnostics = {"exact_anchor": True, "anchor": anchor}
        return Estimate(float(anchor * t[0] ** n), eps, delta, diagnostics=diagnostics)

    schedule = build_schedule(graph, t, eps, delta, k)
    # chain seeds come from a master generator: xoring the chain index onto
    # the raw seed would make nearby seeds share chain-seed multisets
    master = Random(cfg.seed)
    stages, log_ratios = schedule.params[:-1], schedule.log_ratios
    # the pilot's chain loads the kernel in this thread: loaded by a helper,
    # it added 0.35 MB to the anneal benchmark's peak RSS
    pilot = [x for batch in Chain(kernel, Random(master.getrandbits(64))).ais(
        stages, PILOT_PARTICLES, schedule.thinning, log_ratios) for x in batch]
    seeds = [master.getrandbits(64) for _ in range(schedule.groups)]
    variance = _variance(pilot)
    particles = _particle_count(schedule, variance, eps)
    log_means = _run_chains(kernel, seeds, stages, particles, schedule.thinning, log_ratios)
    # anchor times the median over the groups of each group's mean weight
    ordered, mid = sorted(log_means), schedule.groups // 2
    log_median = ordered[mid] if schedule.groups % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])
    diagnostics = {
        "anchor": anchor,
        "thinning": schedule.thinning,
        "particles": particles,
        "pilot_log_weight_variance": variance,
        "group_log_estimates": log_means,
    }
    return Estimate(anchor * math.exp(log_median), eps, delta, len(schedule.params) - 1,
                    schedule.groups, schedule.groups * particles, diagnostics)


def _variance(xs) -> float:
    """The sample variance of ``xs``.  Float totals here add left to right in a loop:
    from CPython 3.12 on, ``sum()`` of floats is compensated, and its last bits differ."""
    mean = second = 0.0
    for x in xs:
        mean += x
    mean /= len(xs)
    for x in xs:
        second += (x - mean) * (x - mean)
    return second / (len(xs) - 1)


def _run_chains(kernel: CycleKernel, seeds, stages, particles: int, thinning: int,
                log_ratios) -> list:
    """Each group chain's ln of its mean weight, in chain order, from one
    ``Chain.ais`` per chain on these arguments.

    ``Chain.ais`` yields a chain's log weights one call at a time, so its
    memory does not grow with N; the mean is kept as the largest log weight
    ``top`` and the sum of exp(x - top).  A chain returns early once the pool
    stops: it sees the stop after each call, on either step path, so after
    at most ``CALL_STEPS`` steps, or one particle where that is longer (at
    spread ln 2, when its q T steps pass 2^20, near n = 600).
    """
    stop, log_means = threading.Event(), [None] * len(seeds)

    def run_chain(i):
        chain, top, total = Chain(kernel, Random(seeds[i])), -math.inf, 0.0
        for batch in chain.ais(stages, particles, thinning, log_ratios):
            if stop.is_set():  # the caller raises what stopped the pool
                return
            for x in batch:
                if x > top:
                    total, top = total * math.exp(top - x) + 1.0, x
                else:
                    total += math.exp(x - top)
        log_means[i] = top + math.log(total / particles)

    _run_pinned(len(seeds), run_chain, stop)
    return log_means


def _check_graph_class(graph: LabeledGraph, graph_class: str):
    if graph_class == "planar":
        try:
            face_two_coloring(graph)
        except ValueError as exc:
            raise PipelineError(
                f"planar pipeline needs a face-2-colorable rotation system: {exc}"
            ) from exc
    elif graph_class == "bipartite":
        if graph.bipartition is None:
            raise PipelineError("bipartite pipeline needs a bipartition")
    else:
        raise ValueError(f"unknown graph class {graph_class!r}")


def estimate_z8v(
    graph: LabeledGraph,
    params: Sequence,
    graph_class: str,
    eps: float,
    delta: float,
    cfg: ChainConfig,
) -> tuple[Estimate, TransformPlan]:
    """Plan a transform into Y and Z, then run the annealed estimator there.

    No correction factor is applied: the planned transform preserves the
    partition function exactly.  Planned images with zero entries cannot be
    annealed; they fall back to the exact contraction (flagged in the
    diagnostics), which raises ``PipelineError`` on a graph too wide for it
    and ``ValueError`` when its nonzero value rounds to 0 or overflows a float.
    """
    _check_accuracy(eps, delta)
    p = as_params(params)
    _check_graph_class(graph, graph_class)
    plan = plan_transform(p, graph_class)
    if plan is None:
        report = plan_report(p, graph_class)
        raise PipelineError(
            f"no group element maps ({', '.join(map(format_rational, p))}) into the "
            f"rapidly-mixing region; per-element diagnostics: {json.dumps(report)}"
        )
    if any(x == 0 for x in plan.image):
        try:
            value = z8v_exact(graph, plan.image)
        except ValueError as exc:  # a graph too wide for the contraction
            raise PipelineError(f"zero entries in the image; exact fallback: {exc}") from exc
        approx = float_or_inf(value)
        if value and approx in (0.0, math.inf):
            raise ValueError(
                f"the exact fallback's value is nonzero but its float is {approx}"
            )
        diagnostics = {"exact_fallback_zero_params": True, "exact_value": str(value)}
        return Estimate(approx, eps, delta, diagnostics=diagnostics), plan
    return anneal_estimate(graph, plan.image, eps, delta, cfg), plan
