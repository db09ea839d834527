"""Calibration of the (eps, delta) claim against exact truth.

Each target is estimated under many seeds and compared with ``z8v_exact``.
An estimate misses when |value/Z - 1| > eps, which the estimator claims
happens with probability at most delta.  The seeds are fixed, so the miss
counts are too; the bound they must meet is the binomial one at
significance ``ALPHA``.  The test prints each target's slack, the
(1 - delta) quantile of |value/Z - 1| divided by eps, and its mean signed
error, so a run with ``-s`` shows how far inside the claim the estimator
sits.
"""
import math

import pytest

from eightvertex.estimator import estimate_z8v
from eightvertex.exact import z8v_exact
from eightvertex.graphs import gen_k44, gen_octahedron, gen_torus
from eightvertex.mcmc import ChainConfig

DELTA = 0.25
# the chance that an estimator which misses with probability delta misses
# more often than the bound below, over a target's seeds
ALPHA = 1e-3

# (name, graph, params, class, eps, seeds): the octahedron and K4,4 run at
# their planned images, (3,3,3,1) and (3/2,5/2,5/2,1/2); (1,2,2,1) is its
# own image and lies on the boundary b+d = a+c of Y
TARGETS = [
    ("octahedron", gen_octahedron, (1, 1, 5, 1), "planar", 0.1, 60),
    ("torus4x4", lambda: gen_torus(4, 4), (1, 2, 2, 1), "planar", 0.1, 60),
    ("k44", gen_k44, (2, 1, 1, 3), "bipartite", 0.1, 60),
    ("torus6x6", lambda: gen_torus(6, 6), (1, 2, 2, 1), "planar", 0.05, 24),
]


def miss_bound(seeds: int, delta: float, alpha: float) -> int:
    """The least m with P[Binomial(seeds, delta) > m] <= alpha."""
    pmf = [math.comb(seeds, j) * delta**j * (1 - delta) ** (seeds - j) for j in range(seeds + 1)]
    return next(m for m in range(seeds + 1) if sum(pmf[m + 1:]) <= alpha)


def test_miss_bound():
    assert miss_bound(60, 0.25, 1e-3) == 26
    assert miss_bound(24, 0.25, 1e-3) == 13
    assert miss_bound(10, 0.0, 1e-3) == 0


@pytest.mark.slow
@pytest.mark.parametrize("name, make, params, graph_class, eps, seeds", TARGETS,
                         ids=[target[0] for target in TARGETS])
def test_misses_stay_within_the_binomial_bound_of_delta(name, make, params, graph_class,
                                                        eps, seeds):
    graph = make()
    z = float(z8v_exact(graph, params))
    errors = []
    for seed in range(seeds):
        est, _ = estimate_z8v(graph, params, graph_class, eps, DELTA, ChainConfig(seed=seed))
        errors.append(est.value / z - 1.0)
    ranked = sorted(map(abs, errors))
    slack = ranked[math.ceil((1 - DELTA) * seeds) - 1] / eps
    misses = sum(e > eps for e in ranked)
    bound = miss_bound(seeds, DELTA, ALPHA)
    print(f"\n{name} eps={eps}: slack {slack:.3f}, mean signed error "
          f"{sum(errors) / seeds:+.3%}, misses {misses}/{seeds} (bound {bound})")
    assert misses <= bound
