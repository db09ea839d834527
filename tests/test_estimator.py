import math
import os
import sys
import threading
import time
from fractions import Fraction
from random import Random
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eightvertex import _native, estimator, mcmc
from eightvertex.estimator import (
    PILOT_PARTICLES,
    PipelineError,
    _cpu_order,
    _group_count,
    _particle_count,
    _run_pinned,
    _variance,
    anneal_estimate,
    build_schedule,
    default_stage_count,
    estimate_z8v,
)
from eightvertex.exact import as_params, z8v_exact
from eightvertex.graphs import gen_octahedron, gen_torus
from eightvertex.mcmc import Chain, ChainConfig
from eightvertex.states import CycleKernel
from eightvertex.transforms import in_yz

from ._brute import schedule_by_loops
from .conftest import needs_affinity, one_cpu


def test_anchor_values(octahedron, k44, torus24, torus44):
    # the anchor 2^k is the even-orientation count, Z at the uniform point
    for graph, anchor in ((octahedron, 128), (k44, 512), (torus24, 512), (torus44, 1 << 17)):
        assert 1 << CycleKernel(graph).dimension == anchor
        assert z8v_exact(graph, (1, 1, 1, 1)) == anchor


def test_schedule_endpoints(octahedron):
    sched = build_schedule(octahedron, (3, 3, 3, 1), 0.05, 0.25, 7)
    assert len(sched.params) - 1 == default_stage_count(octahedron, as_params((3, 3, 3, 1)))
    assert sched.params[0].tolist() == [1.0, 1.0, 1.0, 1.0]
    final = sched.params[-1]
    assert all(abs(x - y) < 1e-9 for x, y in zip(final, (3, 3, 3, 1)))
    assert all(x > 0 for stage in sched.params for x in stage)


POSITIVE = st.fractions(min_value=Fraction(1, 1000), max_value=1000).filter(lambda x: x > 0)


SCHEDULE_GRAPHS = {"octahedron": gen_octahedron(), "torus2x2": gen_torus(2, 2),
                   "torus4x4": gen_torus(4, 4)}


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(sorted(SCHEDULE_GRAPHS)),
       target=st.tuples(POSITIVE, POSITIVE, POSITIVE, POSITIVE), q=st.integers(1, 3000))
# the octahedron's default q at (3, 3, 3, 1): ceil(8 n ln 3) = 53
@example(name="octahedron", target=(3, 3, 3, 1), q=53)
@example(name="torus4x4", target=(Fraction(1, 1000), 1000, 7, 1), q=3000)
def test_schedule_holds_every_run_count(name, target, q):
    # the kernel's arrays, read-only, and byte for byte the tuple loops'
    # products and logs: numpy multiplies stage by stage in the same order
    graph = SCHEDULE_GRAPHS[name]
    k = CycleKernel(graph).dimension
    with patch.object(estimator, "default_stage_count", lambda graph, target: q):
        sched = build_schedule(graph, target, 0.05, 0.25, k)
    stages, log_ratios = schedule_by_loops(as_params(target), q)
    for got, want in ((sched.params, stages), (sched.log_ratios, log_ratios)):
        assert got.dtype == np.float64 and got.flags.c_contiguous and not got.flags.writeable
        assert got.shape == np.shape(want) and got.tobytes() == np.array(want).tobytes()
    assert sched.groups == _group_count(0.25)
    assert sched.thinning == (k + 1) // 2


def test_particle_count_follows_the_pilot_variance(octahedron):
    # N = max(16, ceil(4 (e^V - 1) / eps^2)): Chebyshev with relvar = e^V - 1
    sched = build_schedule(octahedron, (3, 3, 3, 1), 0.1, 0.25, 7)
    assert _particle_count(sched, 0.0, 0.1) == 16
    assert _particle_count(sched, 0.05, 0.1) == math.ceil(400 * math.expm1(0.05)) == 21
    assert _particle_count(sched, 1.0, 0.01) == math.ceil(40000 * math.expm1(1.0))
    # a chain of 2^63 steps or more is refused, as is the infinite count of an
    # eps^2 that underflows, an e^V that overflows or a V that is not a number
    assert (len(sched.params) - 1) * sched.thinning > 3  # so 4e18 particles are too many
    for variance, eps in ((math.log(2), 1e-9), (0.0, 1e-200), (1e3, 0.1), (math.nan, 0.1)):
        with pytest.raises(ValueError, match=f"eps={eps} .* steps per chain, past 2"):
            _particle_count(sched, variance, eps)


def _stages_outside_yz(stages) -> list[int]:
    """The index of each float stage whose exact value lies outside Y and Z."""
    return [g for g, stage in enumerate(stages) if not in_yz([Fraction(x) for x in stage])]


def _ravi_target(x, y, z, u):
    # (y+z, x+z, x+y) is any triangle; d <= 2 min(x, y, z) keeps Y, and
    # d = 2 min(x, y, z), at u = 1, puts the target on Y's boundary
    return y + z, x + z, x + y, 2 * u * min(x, y, z)


def _z_boundary_target(n, p, extra, order):
    # a^2 = b^2 + c^2 + d^2 on Z's boundary, in Y as n + p <= m; Y and Z are
    # symmetric in a, b and c
    m = n + p + extra
    abc = (m * m + n * n + p * p, m * m + n * n - p * p, 2 * m * p)
    return tuple(abc[i] for i in order) + (2 * n * p,)


RAVI = st.fractions(min_value=Fraction(1, 10), max_value=30, max_denominator=100)
YZ_TARGETS = st.one_of(
    st.builds(_ravi_target, RAVI, RAVI, RAVI,
              st.fractions(min_value=Fraction(1, 10), max_value=1, max_denominator=20)),
    st.builds(_z_boundary_target, st.integers(1, 6), st.integers(1, 6), st.integers(0, 8),
              st.permutations(range(3))),
).filter(in_yz)


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(["octahedron", "torus2x2"]), target=YZ_TARGETS)
# c + d = a + b on Y's boundary, and a^2 = b^2 + c^2 + d^2 (m, n, p = 3, 1, 1)
@example(name="octahedron", target=(3, 4, 5, 2))
@example(name="octahedron", target=(11, 9, 6, 2))
def test_every_stage_that_runs_lies_in_yz(name, target):
    # no chain runs stage q, the float rounding of the target, so at most
    # that stage may fall outside Y and Z; the octahedron's q is at most 296
    graph = SCHEDULE_GRAPHS[name]
    sched = build_schedule(graph, target, 0.1, 0.25, CycleKernel(graph).dimension)
    assert _stages_outside_yz(sched.params[:-1]) == []


def test_the_target_stage_can_round_out_of_yz(octahedron):
    # the check above, run on all q + 1 stages, fails where stage q rounds out
    sched = build_schedule(octahedron, (3, 4, 5, 2), 0.1, 0.25, 7)
    assert _stages_outside_yz(sched.params) == [len(sched.params) - 1] == [78]


def test_schedule_rejects_nonpositive_target(octahedron):
    with pytest.raises(ValueError, match="positive"):
        build_schedule(octahedron, (1, 1, 0, 1), 0.05, 0.25, 7)


def test_uniform_target_returns_exact_anchor(octahedron):
    est = anneal_estimate(octahedron, (1, 1, 1, 1), 0.05, 0.25, ChainConfig(seed=1))
    assert est.value == 128.0
    assert (est.stages, est.groups, est.samples_per_stage) == (0, 0, 0)
    assert est.diagnostics["exact_anchor"]


def test_variance_adds_left_to_right():
    # from CPython 3.12 on, sum() of floats is compensated: there
    # sum([1.0, 1e-16, 1e-16]) is 1.0000000000000002, left to right it is 1.0
    xs = [1.0, 1e-16, 1e-16]
    mean = 1.0 / 3
    second = 0.0
    for x in xs:
        second += (x - mean) * (x - mean)
    assert _variance(xs) == second / 2
    assert _variance([2.0, 2.0]) == 0.0


def test_batches_draw_what_one_call_draws(monkeypatch, octahedron):
    # a chain runs its particles in calls of at most CALL_STEPS steps, or one
    # particle; cut into a call per particle, pilot included, every group's
    # mean, and so every bit, stays
    whole = anneal_estimate(octahedron, (2, 2, 3, 1), 0.05, 0.25, ChainConfig(seed=8))
    assert whole.diagnostics["particles"] > 1
    made, native_ais, python_ais = [], _native.NativeChain.ais, Chain._python_ais

    def counted(run):
        def call(self, stages, particles, *args):
            made.append(particles)
            return run(self, stages, particles, *args)
        return call

    monkeypatch.setattr(_native.NativeChain, "ais", counted(native_ais))
    monkeypatch.setattr(Chain, "_python_ais", counted(python_ais))
    monkeypatch.setattr(mcmc, "CALL_STEPS", 1)
    cut = anneal_estimate(octahedron, (2, 2, 3, 1), 0.05, 0.25, ChainConfig(seed=8))
    assert cut.to_jsonable() == whole.to_jsonable()
    assert made == [1] * (PILOT_PARTICLES + cut.groups * cut.diagnostics["particles"])


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


@pytest.fixture(params=["compiled", "python"])
def stepper(request, monkeypatch):
    """Step the chains in the compiled kernel (wherever it builds) or in Python."""
    if request.param == "python":
        monkeypatch.setattr(mcmc, "_load_kernel", lambda: None)
    return request.param


SEED, DELTA = 5, 0.1


@pytest.fixture
def chain_index(monkeypatch):
    """Each chain built in this test, mapped to its index in the master seed
    order: -1 for the pilot, then 0, 1, ... for the groups."""
    master, index, init = Random(SEED), {}, Chain.__init__
    states = [Random(master.getrandbits(64)).getstate() for _ in range(1 + _group_count(DELTA))]

    def recording_init(self, kernel, rng, *args):
        index[self] = states.index(rng.getstate()) - 1
        init(self, kernel, rng, *args)

    monkeypatch.setattr(Chain, "__init__", recording_init)
    return index


def _octahedron_estimate(octahedron):
    return anneal_estimate(octahedron, (2, 2, 3, 1), 0.05, DELTA, ChainConfig(seed=SEED))


def test_the_schedule_alone_drives_the_run(monkeypatch, octahedron, stepper, chain_index):
    # the pilot, then every group chain, runs the schedule in one Chain.ais;
    # the pilot's weights decide the groups' particles and enter no estimate
    calls, ais = {}, Chain.ais

    def recording_ais(self, *args):
        calls.setdefault(chain_index[self], []).append(args)
        return ais(self, *args)

    monkeypatch.setattr(Chain, "ais", recording_ais)
    est = _octahedron_estimate(octahedron)
    sched = build_schedule(octahedron, (2, 2, 3, 1), 0.05, DELTA, CycleKernel(octahedron).dimension)
    particles = est.diagnostics["particles"]
    # every chain reads the one pair of schedule arrays, as they are
    made = [args for runs in calls.values() for args in runs]
    assert all(args[0] is made[0][0] and args[3] is made[0][3] for args in made)
    listed = {i: [(stages.tolist(), *rest, logs.tolist()) for stages, *rest, logs in runs]
              for i, runs in calls.items()}
    stages, log_ratios = sched.params[:-1].tolist(), sched.log_ratios.tolist()
    run = (stages, particles, sched.thinning, log_ratios)
    assert listed == {-1: [(stages, PILOT_PARTICLES, sched.thinning, log_ratios)],
                      **{i: [run] for i in range(sched.groups)}}
    assert particles == _particle_count(sched, est.diagnostics["pilot_log_weight_variance"], 0.05)
    assert est.stages == len(sched.params) - 1
    assert (est.groups, est.samples_per_stage) == (sched.groups, sched.groups * particles)
    assert est.diagnostics["thinning"] == sched.thinning


@needs_affinity
def test_every_thread_count_gives_the_same_bits(monkeypatch, octahedron, stepper,
                                                 chain_index):
    # the chains run on one pinned thread per allowed CPU and their sums are
    # combined in chain order, so the CPU count changes no bit of the output,
    # even where the first chain finishes last
    with one_cpu():
        alone = repr(_octahedron_estimate(octahedron).to_jsonable())
    ais = Chain.ais

    def slow_first_ais(self, *args):
        if chain_index[self] == 0:
            time.sleep(0.2)
        return ais(self, *args)

    monkeypatch.setattr(Chain, "ais", slow_first_ais)
    threads, cpus = threading.active_count(), os.sched_getaffinity(0)
    assert repr(_octahedron_estimate(octahedron).to_jsonable()) == alone
    assert threading.active_count() == threads
    assert os.sched_getaffinity(0) == cpus
    monkeypatch.delattr(os, "sched_getaffinity")  # no affinity API: the caller alone
    assert repr(_octahedron_estimate(octahedron).to_jsonable()) == alone


@needs_affinity
def test_a_failed_pin_leaves_the_thread_unpinned(monkeypatch, octahedron):
    # the allowed CPU set can change between the get and the set; the
    # estimate then runs unpinned rather than failing
    expected = repr(_octahedron_estimate(octahedron).to_jsonable())

    def refused(pid, mask):
        raise OSError(22, "Invalid argument")

    monkeypatch.setattr(os, "sched_setaffinity", refused)
    threads = threading.active_count()
    assert repr(_octahedron_estimate(octahedron).to_jsonable()) == expected
    assert threading.active_count() == threads


def test_the_pool_runs_each_index_once():
    # a switch after nearly every bytecode, so that an index handed out twice
    # or lost between the threads would show
    seen, interval = [], sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _run_pinned(2000, seen.append, threading.Event())
    finally:
        sys.setswitchinterval(interval)
    assert sorted(seen) == list(range(2000))


@needs_affinity
@pytest.mark.parametrize("pid", [0, 1, 7])
def test_each_pool_thread_pins_itself_to_its_own_cpu(monkeypatch, pid):
    # unpinned, the threads shared one CPU of a 2-vCPU host and gained nothing;
    # the CPU list turns by the process id, so concurrent processes start apart
    cpus, caller = sorted(os.sched_getaffinity(0)), threading.current_thread()
    turned = _cpu_order(cpus, pid, 3)
    pins, setaffinity = [], os.sched_setaffinity

    def recording_setaffinity(pid, mask):
        pins.append((threading.current_thread() is caller, sorted(mask)))
        setaffinity(pid, mask)

    monkeypatch.setattr(os, "getpid", lambda: pid)
    monkeypatch.setattr(os, "sched_setaffinity", recording_setaffinity)
    _run_pinned(3, lambda i: None, threading.Event())
    assert pins[0] == (True, turned[:1]) and pins[-1] == (True, cpus)  # pinned, then restored
    helpers = sorted(mask for by_caller, mask in pins if not by_caller)
    assert helpers == sorted([cpu] for cpu in turned[1:3])


def test_cpu_order_gives_consecutive_processes_disjoint_blocks():
    # fake pids and CPU lists: no thread starts and no affinity changes
    cpus = list(range(64))
    for pid in (0, 1, 4321):
        blocks = [set(_cpu_order(cpus, p, 12)[:12]) for p in (pid, pid + 1, pid + 2)]
        assert all(len(b) == 12 for b in blocks)
        assert not (blocks[0] & blocks[1] or blocks[1] & blocks[2] or blocks[0] & blocks[2])
    # a turn by the pid alone would start pids 5 and 6 one CPU apart, sharing 11 CPUs
    assert _cpu_order(cpus, 5, 12)[:3] == [60, 61, 62]
    assert _cpu_order(cpus, 6, 12)[:12] == list(range(8, 20))


@given(cpus=st.sets(st.integers(0, 255), max_size=40), pid=st.integers(0, 2**22),
       count=st.integers(0, 300))
def test_cpu_order_is_a_turn_of_the_sorted_cpus(cpus, pid, count):
    order = _cpu_order(cpus, pid, count)
    ranked = sorted(cpus)
    assert sorted(order) == ranked
    turn = ranked.index(order[0]) if order else 0
    assert order == ranked[turn:] + ranked[:turn]
    if count >= len(cpus):  # every process runs on every CPU: no turn
        assert order == ranked


def test_cpu_order_on_two_cpus():
    # the caller takes the first CPU and a helper the second: with two or more
    # tasks every process uses both, and one task alternates by the pid
    assert _cpu_order({1, 0}, 7, 12) == [0, 1]
    assert _cpu_order([0, 1], 7, 1) == [1, 0]
    assert _cpu_order([0, 1], 8, 1) == [0, 1]
    assert _cpu_order([], 7, 12) == []


@needs_affinity
@pytest.mark.parametrize("failing", ["first", "last", "helper"])
def test_a_chain_error_reaches_the_caller(monkeypatch, octahedron, stepper, chain_index,
                                         failing):
    if failing == "helper" and len(os.sched_getaffinity(0)) < 2:
        pytest.skip("one allowed CPU: no helper thread")
    ais, caller = Chain.ais, threading.current_thread()

    def failing_ais(self, *args):
        if chain_index[self] < 0:  # the pilot runs in the caller before any group
            return ais(self, *args)
        if failing == "helper":
            fails = threading.current_thread() is not caller
        else:
            fails = chain_index[self] == (0 if failing == "first" else _group_count(DELTA) - 1)
        if fails:
            raise AssertionError("chain class counts drifted from the masks")
        return ais(self, *args)

    monkeypatch.setattr(Chain, "ais", failing_ais)
    threads, cpus = threading.active_count(), os.sched_getaffinity(0)
    with pytest.raises(AssertionError, match="drifted"):
        _octahedron_estimate(octahedron)
    assert threading.active_count() == threads
    assert os.sched_getaffinity(0) == cpus


@needs_affinity
def test_ctrl_c_stops_the_helpers_at_their_next_call(monkeypatch, octahedron, stepper,
                                                     chain_index):
    # a helper's chain would run for 10 s; Ctrl-C in the caller must stop it
    # at its next call boundary, not wait for it to finish
    ais, caller = Chain.ais, threading.current_thread()
    has_helpers = len(os.sched_getaffinity(0)) > 1
    helping, finished = threading.Event(), []

    def interrupted_ais(self, *args):
        if chain_index[self] < 0:  # the pilot runs in the caller before any group
            yield from ais(self, *args)
            return
        if threading.current_thread() is caller:
            if has_helpers:
                helping.wait(10)
            raise KeyboardInterrupt
        helping.set()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            yield from ais(self, *args)
        finished.append(self)

    monkeypatch.setattr(Chain, "ais", interrupted_ais)
    threads, cpus = threading.active_count(), os.sched_getaffinity(0)
    with pytest.raises(KeyboardInterrupt):
        _octahedron_estimate(octahedron)
    assert not finished
    assert threading.active_count() == threads
    assert os.sched_getaffinity(0) == cpus
