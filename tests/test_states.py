import numpy as np
import pytest
from hypothesis import given, settings

from eightvertex import states
from eightvertex.graphs import gen_torus
from eightvertex.states import (
    CLASS_BY_MASK,
    DEFAULT_DIM_CAP,
    CycleKernel,
    DualNotBipartiteError,
    VertexClass,
    canonical_bipartite_orientation,
    canonical_planar_orientation,
    coloring_classes,
    cycle_basis,
    enumerate_even_orientations,
    face_two_coloring,
    in_masks,
    orientation_classes,
    orientation_to_coloring,
    orientation_to_bitstring,
    red_masks,
    reference_even_orientation,
)

from ._brute import (
    bitstring_to_orientation,
    even_colorings_naive,
    even_orientations_naive,
    is_even_orientation,
    is_even_subgraph,
    orientation_from_masks,
)
from .conftest import multigraphs


def test_class_table_matches_constraint_positions():
    # in-label sets {1,2},{3,4} -> A; {1,4},{2,3} -> B; {1,3},{2,4} -> C; rest D
    assert CLASS_BY_MASK[0b1100] == VertexClass.A  # labels {3,4}
    assert CLASS_BY_MASK[0b1010] == VertexClass.C  # labels {2,4}
    assert CLASS_BY_MASK[0b1111] == VertexClass.D
    assert CLASS_BY_MASK[0b0110] == VertexClass.B  # labels {2,3}
    assert 0b0001 not in CLASS_BY_MASK


def test_reference_orientation_is_eulerian(octahedron, k44, torus22, loop_graph):
    for g in (octahedron, k44, torus22, loop_graph):
        ref = reference_even_orientation(g)
        masks = in_masks(g, ref)
        assert all(bin(m).count("1") == 2 for m in masks)
        assert reference_even_orientation(g) == ref  # deterministic


def test_cycle_basis_dimensions(octahedron, k44, torus44, two_components):
    assert cycle_basis(octahedron).dimension == 7
    assert cycle_basis(k44).dimension == 9
    assert cycle_basis(torus44).dimension == 17
    basis = cycle_basis(two_components)
    assert basis.components == 2
    assert basis.roots == (0,) * 4 + (4,) * 4
    g = two_components
    assert basis.dimension == g.edge_count - g.vertex_count + 2


def test_cycle_basis_elements_are_even_subgraphs(octahedron, loop_graph):
    for g in (octahedron, loop_graph):
        basis = cycle_basis(g)
        for element in basis.elements:
            assert is_even_subgraph(g, element)


def test_cycle_basis_independent_markers(octahedron):
    # every element owns a non-tree edge absent from all other elements
    basis = cycle_basis(octahedron)
    for i, element in enumerate(basis.elements):
        others = set().union(
            *(e for j, e in enumerate(basis.elements) if j != i)
        )
        assert element - others


def test_enumeration_counts(octahedron, k44, torus22):
    assert sum(1 for _ in enumerate_even_orientations(octahedron)) == 128
    assert sum(1 for _ in enumerate_even_orientations(k44)) == 512
    assert sum(1 for _ in enumerate_even_orientations(torus22)) == 32


def test_enumeration_matches_naive_filter(octahedron, torus22, loop_graph):
    for g in (octahedron, torus22, loop_graph):
        ours = set(enumerate_even_orientations(g))
        naive = set(even_orientations_naive(g))
        assert ours == naive


def test_enumeration_cap():
    g = gen_torus(4, 4)
    with pytest.raises(ValueError, match="cap"):
        list(enumerate_even_orientations(g, dim_cap=10))


def test_kernel_reads_orientations_from_masks(octahedron, loop_graph, torus44):
    for g in (octahedron, loop_graph, torus44):
        kernel = CycleKernel(g)
        orients = even_orientations_naive(g) if g.edge_count <= 12 else [kernel.reference]
        masks = np.array([in_masks(g, t) for t in orients], np.uint8)
        rows = kernel.orientations(masks)
        assert rows.dtype == np.uint8
        assert [tuple(r) for r in rows.tolist()] == orients
        assert [orientation_from_masks(g, m) for m in masks.tolist()] == orients


def assert_flip_masks_even(kernel):
    # the chain weighs a flip of xm at an even mask m by the ratio at
    # class(m ^ xm) << 2 | class(m): an odd xm makes m ^ xm odd, of class -1
    flips = [xm for moves in kernel.touch for _, xm in moves]
    assert flips and all(bin(xm).count("1") in (2, 4) for xm in flips)


def test_flip_masks_are_even(octahedron, k44, torus22, torus24, torus34, torus44, k5,
                             loop_graph, two_components):
    for g in (octahedron, k44, torus22, torus24, torus34, torus44, k5, loop_graph,
              two_components):
        assert_flip_masks_even(CycleKernel(g))
    assert_flip_masks_even(CycleKernel(octahedron, "face"))


@settings(max_examples=150, deadline=None)
@given(g=multigraphs(max_vertices=6, embedding="rotation_system"))
def test_flip_masks_are_even_on_random_multigraphs(g):
    assert_flip_masks_even(CycleKernel(g))
    try:
        face = CycleKernel(g, "face")
    except ValueError:  # a dual that is not bipartite, or faces of too low a rank
        return
    assert_flip_masks_even(face)


@pytest.mark.parametrize("block", [1, 2, 4, 12])
def test_blocks_list_the_coset_in_coordinate_order(monkeypatch, torus24, block):
    # k = 9: blocks of 2 and 4 moves leave a narrower last chunk, 12 is one block
    monkeypatch.setattr(states, "BLOCK_MOVES", block)
    kernel = CycleKernel(torus24)
    k, n = kernel.dimension, torus24.vertex_count
    low, starts = kernel.blocks(kernel.reference_masks, k)
    starts = list(starts)
    width = 1 << min(k, block)
    assert low.shape == (n, width) and low.dtype == np.uint8
    assert [s.shape for s in starts] == [(n,)] * ((1 << k) // width)
    listed = np.hstack([low ^ s[:, None] for s in starts]).T.tolist()
    for coordinate in range(1 << k):
        flip = set()
        for j in range(k):
            if coordinate >> j & 1:
                flip ^= kernel.moves[j]
        t = tuple(b ^ (e in flip) for e, b in enumerate(kernel.reference))
        assert listed[coordinate] == in_masks(torus24, t)


def test_blocks_need_independent_moves(octahedron):
    kernel = CycleKernel(octahedron, "face")
    assert len(kernel.moves) == 8  # the face boundaries sum to zero
    with pytest.raises(ValueError, match="independent"):
        kernel.blocks(kernel.reference_masks, 30)


def test_blocks_refuse_when_called(torus44):
    # the check runs at the call, not at the first block, before any table is built
    kernel = CycleKernel(torus44)
    with pytest.raises(ValueError, match="dimension 17 exceeds enumeration cap 10"):
        kernel.blocks(kernel.reference_masks, 10)


def test_enumeration_default_cap():
    # torus 6x6 has k = 37, above DEFAULT_DIM_CAP
    assert DEFAULT_DIM_CAP == 30
    with pytest.raises(ValueError, match="dimension 37 exceeds enumeration cap 30"):
        next(enumerate_even_orientations(gen_torus(6, 6)))


def test_coset_property(torus22):
    # flipping an edge set keeps evenness iff the set is an even subgraph
    ref = reference_even_orientation(torus22)
    m = torus22.edge_count
    for subset in range(1 << m):
        edges = {i for i in range(m) if subset >> i & 1}
        flipped = tuple(b ^ (i in edges) for i, b in enumerate(ref))
        assert is_even_orientation(torus22, flipped) == is_even_subgraph(
            torus22, edges
        )


def test_face_two_coloring_octahedron(octahedron):
    fc = face_two_coloring(octahedron)
    assert len(fc.faces) == 8
    assert fc.colors.count(0) == 4 and fc.colors.count(1) == 4
    assert fc.colors[0] == 0  # reference face is white
    for eid in range(octahedron.edge_count):
        f0, f1 = fc.side_faces(eid)
        assert fc.colors[f0] != fc.colors[f1]


def test_face_two_coloring_tori(torus44, torus34):
    fc = face_two_coloring(torus44)
    assert len(fc.faces) == 16
    assert fc.colors.count(0) == 8
    with pytest.raises(DualNotBipartiteError) as err:
        face_two_coloring(torus34)
    assert len(err.value.odd_cycle) % 2 == 1


def test_face_coloring_requires_rotation_system(k44):
    with pytest.raises(ValueError, match="rotation"):
        face_two_coloring(k44)


def test_canonical_planar_orientation_all_class_c(octahedron, torus44, torus24):
    for g in (octahedron, torus44, torus24):
        tau = canonical_planar_orientation(g, face_two_coloring(g))
        classes = orientation_classes(g, tau)
        assert all(c == VertexClass.C for c in classes)
        assert all(bin(m).count("1") == 2 for m in in_masks(g, tau))


def test_canonical_bipartite_orientation_sinks_sources(k44, torus44):
    for g, sinks in ((k44, 4), (torus44, 8)):
        tau = canonical_bipartite_orientation(g)
        masks = in_masks(g, tau)
        assert sum(1 for m in masks if m == 0b1111) == sinks
        assert sum(1 for m in masks if m == 0) == sinks
        assert all(c == VertexClass.D for c in orientation_classes(g, tau))


def test_canonical_bipartite_requires_bipartition(octahedron):
    with pytest.raises(ValueError, match="bipartition"):
        canonical_bipartite_orientation(octahedron)


def test_identity_and_reversal_colorings(octahedron):
    fc = face_two_coloring(octahedron)
    tau = canonical_planar_orientation(octahedron, fc)
    assert orientation_to_coloring(octahedron, tau, tau) == (0,) * 12
    reversed_tau = tuple(1 - b for b in tau)
    assert orientation_to_coloring(octahedron, reversed_tau, tau) == (1,) * 12


def test_bijection_hits_every_even_coloring(octahedron):
    fc = face_two_coloring(octahedron)
    tau = canonical_planar_orientation(octahedron, fc)
    images = {
        orientation_to_coloring(octahedron, t, tau)
        for t in enumerate_even_orientations(octahedron)
    }
    assert len(images) == 128
    assert images == set(even_colorings_naive(octahedron))


def _class_multiset(classes):
    return tuple(sorted(classes))


def test_per_state_planar_class_swap(octahedron, torus22, torus24):
    swap = {
        VertexClass.A: VertexClass.B,
        VertexClass.B: VertexClass.A,
        VertexClass.C: VertexClass.D,
        VertexClass.D: VertexClass.C,
    }
    for g in (octahedron, torus22, torus24):
        tau = canonical_planar_orientation(g, face_two_coloring(g))
        for t in enumerate_even_orientations(g):
            coloring = orientation_to_coloring(g, t, tau)
            want = _class_multiset(swap[c] for c in orientation_classes(g, t))
            got = _class_multiset(coloring_classes(g, coloring))
            assert want == got


def test_per_state_bipartite_class_preservation(k44, torus22, torus24):
    for g in (k44, torus22, torus24):
        tau = canonical_bipartite_orientation(g)
        for t in enumerate_even_orientations(g):
            coloring = orientation_to_coloring(g, t, tau)
            assert _class_multiset(orientation_classes(g, t)) == _class_multiset(
                coloring_classes(g, coloring)
            )


def test_vertex_class_single_lookups(octahedron):
    ref = reference_even_orientation(octahedron)
    masks = in_masks(octahedron, ref)
    assert orientation_classes(octahedron, ref) == [CLASS_BY_MASK[m] for m in masks]
    all_red = (1,) * 12
    assert coloring_classes(octahedron, all_red) == [VertexClass.D] * 6


def test_vertex_class_rejects_odd_states(octahedron):
    ref = reference_even_orientation(octahedron)
    odd = (1 - ref[0],) + ref[1:]
    with pytest.raises(ValueError, match="not even"):
        orientation_classes(octahedron, odd)


def test_bitstring_roundtrip(octahedron, loop_graph):
    for g in (octahedron, loop_graph):
        ref = reference_even_orientation(g)
        text = orientation_to_bitstring(g, ref)
        assert len(text) == g.edge_count
        assert bitstring_to_orientation(g, text) == ref


def test_loop_graph_masks(loop_graph):
    # a red self-loop puts both of its labels in the vertex mask
    coloring = (1, 0, 0, 0)
    masks = red_masks(loop_graph, coloring)
    assert masks[0] == 0b0011 and masks[1] == 0
