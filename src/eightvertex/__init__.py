"""Eight-vertex model toolkit for labeled 4-regular graphs.

Exact partition-function oracles over the rationals, the planar and
bipartite parameter-transform groups, even-orientation/even-coloring
bijections, a cycle-flip Metropolis sampler with exact diagnostics, and an
annealed estimator that composes with the transform planner.
"""

__version__ = "0.1.0"

from .exact import Census, as_params, census_8v, census_ec, holant_exact, z8v_exact, zec_exact
from .estimator import Estimate, anneal_estimate, estimate_z8v
from .graphs import (
    Edge,
    LabeledGraph,
    gen_k44,
    gen_octahedron,
    gen_torus,
    parse_graph,
    serialize_graph,
)
from .holant import (
    QuarticFunction,
    appendix_lemma_check,
    binary_transform_check,
    constraint_from_params,
    holo_transform,
)
from .mcmc import ChainConfig, exact_chain_diagnostics, sample
from .states import (
    CycleBasis,
    FaceColoring,
    VertexClass,
    canonical_bipartite_orientation,
    canonical_planar_orientation,
    cycle_basis,
    enumerate_even_orientations,
    face_two_coloring,
    orientation_to_coloring,
    reference_even_orientation,
)
from .transforms import (
    GroupElement,
    HalfIntMatrix,
    TransformPlan,
    bipartite_group,
    group_closure,
    group_fingerprint,
    plan_transform,
    planar_group,
    preimage_spotcheck,
    region,
    sign_normalize,
)
