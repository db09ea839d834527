import math
from fractions import Fraction

import pytest

from eightvertex.estimator import (
    PipelineError,
    anneal_estimate,
    build_schedule,
    default_stage_count,
    estimate_z8v,
)
from eightvertex.exact import as_params, z8v_exact
from eightvertex.graphs import LabeledGraph, gen_torus
from eightvertex.mcmc import ChainConfig
from eightvertex.states import CycleKernel


def test_anchor_values(octahedron, k44, torus24, torus44):
    # the anchor 2^k is the even-orientation count, Z at the uniform point
    for graph, anchor in ((octahedron, 128), (k44, 512), (torus24, 512), (torus44, 1 << 17)):
        assert 1 << CycleKernel(graph).dimension == anchor
        assert z8v_exact(graph, (1, 1, 1, 1)) == anchor


def test_schedule_endpoints_and_flags(octahedron):
    sched = build_schedule(octahedron, (3, 3, 3, 1))
    assert sched.params[0] == (1.0, 1.0, 1.0, 1.0)
    final = sched.params[-1]
    assert all(abs(x - y) < 1e-9 for x, y in zip(final, (3, 3, 3, 1)))
    assert all(sched.inside_yz)
    assert not sched.warning
    assert all(x > 0 for stage in sched.params for x in stage)


def test_schedule_outside_region_warns_without_refining(octahedron):
    # more stages lie on the same geometric curve, so q stays at its default
    sched = build_schedule(octahedron, (1, 1, 5, 1))
    assert sched.warning
    assert not all(sched.inside_yz)
    assert sched.stage_count == default_stage_count(octahedron, as_params((1, 1, 5, 1)))


def test_schedule_rejects_nonpositive_target(octahedron):
    with pytest.raises(ValueError, match="positive"):
        build_schedule(octahedron, (1, 1, 0, 1))


def test_uniform_target_returns_exact_anchor(octahedron):
    est = anneal_estimate(octahedron, (1, 1, 1, 1), 0.05, 0.25, ChainConfig(seed=1))
    assert est.value == 128.0
    assert est.stages == 0
    assert est.diagnostics["exact_anchor"]


def test_anneal_rejects_targets_outside_region(octahedron):
    with pytest.raises(ValueError, match="region"):
        anneal_estimate(octahedron, (1, 1, 5, 1), 0.05, 0.25, ChainConfig(seed=1))


def test_anneal_accuracy_small_target(octahedron):
    exact = float(z8v_exact(octahedron, (2, 2, 3, 1)))
    est = anneal_estimate(octahedron, (2, 2, 3, 1), 0.05, 0.25, ChainConfig(seed=3))
    assert abs(est.value / exact - 1) < 0.05
    assert est.stages > 0
    assert est.groups >= 12


def test_seeded_reproducibility(octahedron):
    cfg = ChainConfig(seed=77)
    a = anneal_estimate(octahedron, (2, 2, 2, 1), 0.05, 0.25, cfg)
    b = anneal_estimate(octahedron, (2, 2, 2, 1), 0.05, 0.25, cfg)
    assert a.value == b.value
    c = anneal_estimate(octahedron, (2, 2, 2, 1), 0.05, 0.25, ChainConfig(seed=78))
    assert a.value != c.value


def test_pipeline_octahedron_ordered_phase(octahedron):
    exact = float(z8v_exact(octahedron, (1, 1, 5, 1)))
    est, plan = estimate_z8v(
        octahedron, (1, 1, 5, 1), "planar", 0.05, 0.25, ChainConfig(seed=11)
    )
    assert plan.element.label == "MZ^2"
    assert plan.image == (3, 3, 3, 1)
    assert abs(est.value / exact - 1) < 0.05


def test_pipeline_k44_ordered_phase(k44):
    exact = float(z8v_exact(k44, (1, 1, 1, 5)))
    est, plan = estimate_z8v(
        k44, (1, 1, 1, 5), "bipartite", 0.05, 0.25, ChainConfig(seed=12)
    )
    assert plan.element.label == "MZ^5"
    assert abs(est.value / exact - 1) < 0.05


def test_pipeline_identity_plan_returns_anchor(octahedron):
    est, plan = estimate_z8v(
        octahedron, (1, 1, 1, 1), "planar", 0.05, 0.25, ChainConfig(seed=1)
    )
    assert plan.element.label == "I"
    assert est.value == 128.0


def test_pipeline_agrees_across_plans(k44):
    # equivalent parameter points found through different group elements
    # must estimate the same value within the error envelope
    exact = float(z8v_exact(k44, (1, 1, 1, 5)))
    est_direct = anneal_estimate(k44, (3, 3, 3, 1), 0.05, 0.25, ChainConfig(seed=5))
    est_piped, _ = estimate_z8v(
        k44, (1, 1, 1, 5), "bipartite", 0.05, 0.25, ChainConfig(seed=5)
    )
    assert abs(est_direct.value / exact - 1) < 0.05
    assert abs(est_piped.value / est_direct.value - 1) < 0.1


def test_pipeline_rejects_wrong_structure(octahedron, k44, torus34):
    with pytest.raises(PipelineError, match="bipartition"):
        estimate_z8v(octahedron, (1, 1, 1, 1), "bipartite", 0.05, 0.25, ChainConfig(seed=1))
    with pytest.raises(PipelineError, match="rotation"):
        estimate_z8v(k44, (1, 1, 1, 1), "planar", 0.05, 0.25, ChainConfig(seed=1))
    with pytest.raises(PipelineError, match="face-2-colorable"):
        estimate_z8v(torus34, (1, 1, 1, 1), "planar", 0.05, 0.25, ChainConfig(seed=1))


def test_pipeline_reports_unplannable_points(octahedron):
    with pytest.raises(PipelineError, match="diagnostics"):
        estimate_z8v(octahedron, (12, 1, 1, 1), "planar", 0.05, 0.25, ChainConfig(seed=1))


def test_zero_image_falls_back_to_exact(k44):
    # (2,2,0,0) sits in the mixing region but on its boundary with zeros
    est, plan = estimate_z8v(
        k44, (2, 2, 0, 0), "bipartite", 0.05, 0.25, ChainConfig(seed=1)
    )
    assert est.diagnostics.get("exact_fallback_zero_params")
    assert est.value == float(z8v_exact(k44, (2, 2, 0, 0)))


def test_zero_image_falls_back_past_the_census():
    # k = 37: the fallback contracts the torus instead of walking 2^37 states
    torus = gen_torus(6, 6)
    est, plan = estimate_z8v(
        torus, (2, 2, 0, 0), "bipartite", 0.05, 0.25, ChainConfig(seed=1)
    )
    assert est.diagnostics.get("exact_fallback_zero_params")
    exact = z8v_exact(torus, (2, 2, 0, 0))
    assert est.diagnostics["exact_value"] == str(exact)
    assert est.value == float(exact)


def test_zero_image_fallback_refuses_wide_graph():
    with pytest.raises(PipelineError, match="frontier width 26"):
        estimate_z8v(gen_torus(12, 12), (2, 2, 0, 0), "bipartite", 0.05, 0.25,
                     ChainConfig(seed=1))


def test_group_count_scales_with_delta(octahedron):
    est_loose = anneal_estimate(
        octahedron, (2, 2, 2, 1), 0.1, 0.25, ChainConfig(seed=2)
    )
    est_tight = anneal_estimate(
        octahedron, (2, 2, 2, 1), 0.1, 0.001, ChainConfig(seed=2)
    )
    assert est_tight.groups > est_loose.groups


def test_face_moves_refused_on_torus(torus22):
    with pytest.raises(ValueError, match="rank 3 .* k=5"):
        anneal_estimate(torus22, (1, 3, 3, 1), 0.1, 0.25, ChainConfig(seed=1, proposal="face"))


@pytest.mark.parametrize("eps, delta, match", [
    (0, 0.25, "eps"), (-0.1, 0.25, "eps"), (1, 0.25, "eps"),
    (0.1, 0, "delta"), (0.1, 1, "delta"), (0.1, 1e-300, "200 groups"),
])
def test_accuracy_targets_validated(octahedron, k44, eps, delta, match):
    with pytest.raises(ValueError, match=match):
        anneal_estimate(octahedron, (2, 2, 2, 1), eps, delta, ChainConfig(seed=1))
    if match != "200 groups":  # the exact fallback needs no groups
        with pytest.raises(ValueError, match=match):
            estimate_z8v(k44, (2, 2, 0, 0), "bipartite", eps, delta, ChainConfig(seed=1))
