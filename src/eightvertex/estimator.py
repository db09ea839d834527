"""Annealed product-of-ratios estimation of the partition function.

The anchor is the uniform point (1,1,1,1), where the partition function is
exactly 2^(m - n + components).  A geometric schedule walks from there to
the target; each stage's ratio of consecutive Gibbs weights is estimated
from warm-started chains, and a median over independent chain groups
controls the failure probability.  Composed with the transform planner
this evaluates parameters far outside the rapidly-mixing region.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random
from typing import Sequence

from .exact import ParamVec, as_params, z8v_exact
from .graphs import LabeledGraph
from .mcmc import Chain, ChainConfig
from .states import CycleKernel, face_two_coloring
from .transforms import TransformPlan, in_yz, plan_report, plan_transform

UNIFORM = (Fraction(1), Fraction(1), Fraction(1), Fraction(1))
MIN_GROUPS = 12
MIN_SAMPLES_PER_GROUP = 16
MAX_GROUPS = 200


class PipelineError(RuntimeError):
    pass


@dataclass(frozen=True)
class AnnealSchedule:
    """Geometric stage parameters from the uniform point to the target.

    ``params[t][i]`` is the class-i weight at stage t; ``inside_yz[t]``
    flags membership of stage t in the rapidly-mixing region.  When a stage
    lies outside the region ``warning`` is set and the schedule is used
    anyway (stationarity does not depend on the region, only the mixing
    rationale weakens).  More stages cannot help: they lie on the same
    geometric curve, which keeps every earlier stage.
    """

    stage_count: int
    params: tuple[tuple[float, float, float, float], ...]
    class_ratios: tuple[float, float, float, float]
    inside_yz: tuple[bool, ...]
    warning: bool


def _geometric_stages(target: ParamVec, q: int):
    ratios = tuple(float(t) ** (1.0 / q) for t in target)
    stages = [(1.0, 1.0, 1.0, 1.0)]
    for _ in range(q):
        prev = stages[-1]
        stages.append(tuple(p * r for p, r in zip(prev, ratios)))
    return ratios, tuple(stages)


def _stage_flags(stages) -> tuple[bool, ...]:
    return tuple(
        in_yz(tuple(Fraction(x) for x in stage)) for stage in stages
    )


def default_stage_count(graph: LabeledGraph, target: ParamVec) -> int:
    spread = max(abs(math.log(float(t))) for t in target)
    return max(1, math.ceil(8 * graph.vertex_count * spread))


def build_schedule(graph: LabeledGraph, target: Sequence) -> AnnealSchedule:
    t = as_params(target)
    if any(x <= 0 for x in t):
        raise ValueError("anneal target must be strictly positive")
    q = default_stage_count(graph, t)
    ratios, stages = _geometric_stages(t, q)
    flags = _stage_flags(stages)
    return AnnealSchedule(q, stages, ratios, flags, not all(flags))


@dataclass(frozen=True)
class Estimate:
    value: float
    relative_error_target: float
    failure_probability: float
    stages: int
    groups: int
    samples_per_stage: int
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


def _samples_per_group(q: int, n: int, target: ParamVec, eps: float) -> int:
    """Chebyshev count from the range bound on one stage's weight ratio.

    Per stage the state ratio lies in an interval of multiplicative width
    (max/min parameter)^(n/q); a bounded-variable bound then caps the
    relative variance, and relvar(group product) <= eps^2/4 gives each
    group success probability 3/4.
    """
    hi = max(float(t) for t in target)
    lo = min(float(t) for t in target)
    width = (hi / lo) ** (n / q)
    relvar = (width - 1.0) ** 2 / 4.0
    need = math.ceil(4.0 * q * relvar / (eps * eps))
    return max(MIN_SAMPLES_PER_GROUP, need)


def anneal_estimate(
    graph: LabeledGraph,
    target: Sequence,
    eps: float,
    delta: float,
    cfg: ChainConfig,
) -> Estimate:
    """Estimate the partition function at a strictly positive target in Y and Z.

    The result is ``anchor * prod_t E[w_{t+1}/w_t]`` with the expectations
    replaced by chain averages; the median over independent chain groups
    meets the (eps, delta) contract under the range-based variance model.
    Deterministic for a fixed seed.

    Of ``cfg`` it reads ``seed`` (the master generator of the chain seeds),
    ``proposal`` (the move set) and ``burn_in``, as a floor under the
    initial burn-in of 10k steps for cycle-space dimension k.  ``thinning``
    is not read: the stages thin by (k+1)/2 steps of their own.
    """
    _check_accuracy(eps, delta)
    t = as_params(target)
    if any(x <= 0 for x in t):
        raise ValueError("anneal target must be strictly positive")
    if not in_yz(t):
        raise ValueError(
            "target outside the rapidly-mixing region; plan a transform first"
        )
    kernel = CycleKernel(graph, cfg.proposal)
    anchor = 1 << kernel.dimension
    if t == UNIFORM:
        return Estimate(
            value=float(anchor),
            relative_error_target=eps,
            failure_probability=delta,
            stages=0,
            groups=0,
            samples_per_stage=0,
            diagnostics={"exact_anchor": True, "anchor": anchor},
        )

    schedule = build_schedule(graph, t)
    q = schedule.stage_count
    n = graph.vertex_count
    k = kernel.dimension
    groups = _group_count(delta)
    s_g = _samples_per_group(q, n, t, eps)
    thinning = max(1, (k + 1) // 2)
    stage_burn_in = 2 * k

    # per-class ratio powers, indexed [class][count]
    pow_table = [
        [schedule.class_ratios[cls] ** cnt for cnt in range(n + 1)]
        for cls in range(4)
    ]

    # chain seeds come from a master generator: xoring the chain index onto
    # the raw seed would make nearby seeds share chain-seed multisets
    master = Random(cfg.seed)
    chains = [Chain(kernel, Random(master.getrandbits(64))) for _ in range(groups)]
    initial_burn = max(cfg.burn_in, 10 * k)
    for chain in chains:
        chain.advance(initial_burn)

    log_products = [0.0] * groups
    stage_relvars = []
    for stage_index in range(q):
        stage_params = schedule.params[stage_index]
        stage_means = []
        for c, chain in enumerate(chains):
            chain.set_params(stage_params)
            chain.advance(stage_burn_in)
            acc, acc_sq = chain.run(s_g, thinning, pow_table)
            mean = acc / s_g
            log_products[c] += math.log(mean)
            stage_means.append((mean, acc_sq / s_g))
        grand = sum(m for m, _ in stage_means) / groups
        second = sum(sq for _, sq in stage_means) / groups
        stage_relvars.append(max(0.0, second / (grand * grand) - 1.0))

    ordered = sorted(log_products)
    mid = groups // 2
    if groups % 2:
        log_median = ordered[mid]
    else:
        log_median = 0.5 * (ordered[mid - 1] + ordered[mid])
    value = anchor * math.exp(log_median)
    return Estimate(
        value=value,
        relative_error_target=eps,
        failure_probability=delta,
        stages=q,
        groups=groups,
        samples_per_stage=groups * s_g,
        diagnostics={
            "anchor": anchor,
            "schedule_warning": schedule.warning,
            "stages_inside_yz": sum(schedule.inside_yz),
            "stage_ratio_relvar_max": max(stage_relvars) if stage_relvars else 0.0,
            "thinning": thinning,
            "stage_burn_in": stage_burn_in,
            "group_log_estimates": log_products,
        },
    )


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
        left, _ = graph.bipartition
        for eid, e in enumerate(graph.edges):
            if (e.u in left) == (e.v in left):
                raise PipelineError(f"edge {eid} does not join the two sides")
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
    diagnostics), which raises ``PipelineError`` on a graph too wide for it.
    """
    _check_accuracy(eps, delta)
    p = as_params(params)
    _check_graph_class(graph, graph_class)
    plan = plan_transform(p, graph_class)
    if plan is None:
        report = plan_report(p, graph_class)
        raise PipelineError(
            f"no group element maps {tuple(map(str, p))} into the rapidly-mixing "
            f"region; per-element diagnostics: {report}"
        )
    if any(x == 0 for x in plan.image):
        try:
            value = z8v_exact(graph, plan.image)
        except ValueError as exc:  # a graph too wide for the contraction
            raise PipelineError(f"zero entries in the image; exact fallback: {exc}") from exc
        estimate = Estimate(
            value=float(value),
            relative_error_target=eps,
            failure_probability=delta,
            stages=0,
            groups=0,
            samples_per_stage=0,
            diagnostics={
                "exact_fallback_zero_params": True,
                "exact_value": str(value),
            },
        )
        return estimate, plan
    estimate = anneal_estimate(graph, plan.image, eps, delta, cfg)
    return estimate, plan
