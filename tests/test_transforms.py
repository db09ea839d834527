from fractions import Fraction
from random import Random

import pytest

from eightvertex.exact import census_8v
from eightvertex.transforms import (
    BIPARTITE_PREIMAGE_TABLE,
    D_FLIP,
    HalfIntMatrix,
    IDENTITY,
    MHZ,
    MHZ_PLANAR,
    MZ,
    MZ_PLANAR,
    NEG_IDENTITY,
    PLANAR_PREIMAGE_TABLE,
    PLANAR_SWAP,
    ClosureCapError,
    SignNormalizeError,
    bipartite_group,
    group_closure,
    group_fingerprint,
    plan_report,
    plan_transform,
    planar_group,
    preimage_spotcheck,
    region,
    sample_region_point,
    sign_normalize,
)

from ._brute import in_region_all, random_rationals

H = Fraction(1, 2)


def _m(rows):
    return HalfIntMatrix(tuple(tuple(Fraction(x) * H for x in row) for row in rows))


# the six planar transform matrices, doubled (so entries are integers here)
PLANAR_TABLE_MATRICES = {
    "I": _m([[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]]),
    "MZ": _m([[1, -1, 1, -1], [-1, 1, 1, -1], [1, 1, 1, 1], [1, 1, -1, -1]]),
    "MZ^2": _m([[1, -1, 1, 1], [-1, 1, 1, 1], [1, 1, 1, -1], [-1, -1, 1, -1]]),
    "MHZ": _m([[1, -1, 1, 1], [-1, 1, 1, 1], [1, 1, 1, -1], [1, 1, -1, 1]]),
    "MZ*MHZ": _m([[1, -1, 1, -1], [-1, 1, 1, -1], [1, 1, 1, 1], [-1, -1, 1, 1]]),
    "MZ^2*MHZ": _m([[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, -2]]),
}

BIPARTITE_TABLE_MATRICES = {
    "I": _m([[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]]),
    "MZ": _m([[-1, 1, 1, -1], [1, -1, 1, -1], [1, 1, -1, -1], [1, 1, 1, 1]]),
    "MZ^2": _m([[1, -1, -1, -1], [-1, 1, -1, -1], [-1, -1, 1, -1], [1, 1, 1, -1]]),
    "MZ^3": _m([[-2, 0, 0, 0], [0, -2, 0, 0], [0, 0, -2, 0], [0, 0, 0, -2]]),
    "MHZ": _m([[-1, 1, 1, 1], [1, -1, 1, 1], [1, 1, -1, 1], [1, 1, 1, -1]]),
    "MZ*MHZ": _m([[1, -1, -1, 1], [-1, 1, -1, 1], [-1, -1, 1, 1], [1, 1, 1, 1]]),
    "MZ^2*MHZ": _m([[-2, 0, 0, 0], [0, -2, 0, 0], [0, 0, -2, 0], [0, 0, 0, 2]]),
}


def test_half_integer_validation():
    with pytest.raises(ValueError, match="half-integer"):
        HalfIntMatrix(
            tuple(
                tuple(Fraction(1, 3) if i == j == 0 else Fraction(int(i == j)) for j in range(4))
                for i in range(4)
            )
        )
    with pytest.raises(ValueError, match="singular"):
        HalfIntMatrix(tuple(tuple(Fraction(1) for _ in range(4)) for _ in range(4)))


def test_matrix_inverse_roundtrip():
    for m in (MZ, MHZ, MZ_PLANAR, MHZ_PLANAR, PLANAR_SWAP):
        assert m @ m.inverse() == IDENTITY


def test_planar_generators_compose_swap_with_holographic_maps():
    assert MZ_PLANAR == PLANAR_SWAP @ MZ
    assert MHZ_PLANAR == PLANAR_SWAP @ MHZ


def test_planar_group_matches_table():
    elements = {el.label: el.matrix for el in planar_group()}
    assert len(elements) == 6
    for label, want in PLANAR_TABLE_MATRICES.items():
        assert elements[label] == want, label


def test_bipartite_group_matches_table():
    elements = {el.label: el for el in bipartite_group()}
    assert len(elements) == 12
    for label, want in BIPARTITE_TABLE_MATRICES.items():
        assert elements[label].matrix == want, label
    # the remaining five rows are stated as negatives of earlier rows
    assert elements["MZ^4"].matrix == -elements["MZ"].matrix
    assert elements["MZ^5"].matrix == -elements["MZ^2"].matrix
    assert elements["MZ^3*MHZ"].matrix == -elements["MHZ"].matrix
    assert elements["MZ^4*MHZ"].matrix == -elements["MZ*MHZ"].matrix
    assert elements["MZ^5*MHZ"].matrix == -elements["MZ^2*MHZ"].matrix


def test_special_elements():
    planar = {el.label: el.matrix for el in planar_group()}
    bipartite = {el.label: el.matrix for el in bipartite_group()}
    assert planar["MZ^2*MHZ"] == D_FLIP
    assert bipartite["MZ^3"] == NEG_IDENTITY
    assert (planar["MZ^2*MHZ"] @ planar["MZ^2*MHZ"]) == IDENTITY
    assert bipartite["MZ"].power(6) == IDENTITY


def test_group_fingerprints():
    fp = group_fingerprint(planar_group())
    assert fp["order"] == 6 and not fp["abelian"]
    assert fp["element_orders"] == {1: 1, 2: 3, 3: 2}
    fp = group_fingerprint(bipartite_group())
    assert fp["order"] == 12 and not fp["abelian"]
    assert fp["element_orders"] == {1: 1, 2: 7, 3: 2, 6: 2}


def test_generic_closures():
    only_identity = group_closure([("I", IDENTITY)])
    assert len(only_identity) == 1
    neg = group_closure([("N", NEG_IDENTITY)])
    assert len(neg) == 2
    fp = group_fingerprint(neg)
    assert fp["order"] == 2 and fp["abelian"]


def test_closure_cap():
    # a matrix of infinite order blows past any cap
    shear = HalfIntMatrix(
        (
            (Fraction(1), Fraction(1), Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(1), Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(0), Fraction(1), Fraction(0)),
            (Fraction(0), Fraction(0), Fraction(0), Fraction(1)),
        )
    )
    with pytest.raises(ClosureCapError):
        group_closure([("S", shear)], cap=64)


def test_fingerprint_rejects_non_closed_input():
    with pytest.raises(ValueError, match="not closed"):
        group_fingerprint([el for el in planar_group() if el.label == "MZ"])


def test_apply_examples():
    assert MZ.apply((1, 1, 1, 1)) == (0, 0, 0, 2)
    mz2 = {el.label: el.matrix for el in planar_group()}["MZ^2"]
    assert mz2.apply((1, 1, 5, 1)) == (3, 3, 3, 1)
    dflip = {el.label: el.matrix for el in planar_group()}["MZ^2*MHZ"]
    rng = Random(2)
    for _ in range(5):
        a, b, c, d = random_rationals(rng)
        assert dflip.apply((a, b, c, d)) == (a, b, c, -d)


def test_region_examples():
    assert region((1, 1, 1, 1), "Y") and region((1, 1, 1, 1), "Z")
    assert region((1, 1, 5, 1), "Cbar")
    assert in_region_all((3, 3, 3, 1), ("Y", "Z"))
    assert not region((1, 1, 5, 1), "Y")
    assert region((1, 1, 1, 0), "Y")  # closed boundaries count
    with pytest.raises(ValueError, match="nonnegative"):
        region((-1, 1, 1, 1), "Y")
    with pytest.raises(KeyError):
        region((1, 1, 1, 1), "Q")


def test_region_containments():
    rng = Random(41)
    for _ in range(1000):
        p = random_rationals(rng)
        if region(p, "Y"):
            assert region(p, "X")
        if region(p, "Z"):
            assert region(p, "X")
        if region(p, "AD"):
            assert region(p, "A") and region(p, "D")
        if region(p, "BD"):
            assert region(p, "B") and region(p, "D")
        if region(p, "CD"):
            assert region(p, "C") and region(p, "D")


def test_pullback_containment_without_quadratic_factor():
    # inverse images of Y-and-Z samples under MHZ_PLANAR stay in the stated
    # linear region; the quadratic complement claim fails near the fixed
    # hyperplane a+b = c+d, so it is deliberately not asserted
    rng = Random(43)
    inv = MHZ_PLANAR.inverse()
    for _ in range(500):
        q = sample_region_point(rng, ("AD", "BD", "CD", "Z"))
        p = inv.apply(q)
        assert all(x >= 0 for x in p)
        assert in_region_all(p, ("AD", "BD", "CDbar", "C"))


def test_pullback_quadratic_factor_counterexample():
    inv = MHZ_PLANAR.inverse()
    q = (Fraction(1), Fraction(1), Fraction(1), Fraction(99, 100))
    assert in_region_all(q, ("Y", "Z"))
    p = inv.apply(q)
    assert region(p, "Z") and not region(p, "Zbar")


def test_sign_normalize_examples():
    vec, flips = sign_normalize((1, 1, 1, -2), "odd")
    assert vec == (1, 1, 1, 2) and flips == ["d"]
    vec, flips = sign_normalize((-1, -1, -1, 2), "even")
    assert vec == (1, 1, 1, 2) and flips == ["all", "d"]
    with pytest.raises(SignNormalizeError):
        sign_normalize((-1, 1, 1, 1), "odd")
    vec, flips = sign_normalize((1, 1, 1, 1), "even")
    assert flips == []


def test_sign_normalize_preserves_value(octahedron, k44):
    rng = Random(47)
    census_oct = census_8v(octahedron)
    census_k44 = census_8v(k44)
    for _ in range(10):
        p = random_rationals(rng, signed=True)
        try:
            vec, _flips = sign_normalize(p, "even")
        except SignNormalizeError:
            continue
        assert census_oct.evaluate(p) == census_oct.evaluate(vec)
        assert census_k44.evaluate(p) == census_k44.evaluate(vec)


def test_plan_examples():
    plan = plan_transform((1, 1, 5, 1), "planar")
    assert plan.element.label == "MZ^2"
    assert plan.image == (3, 3, 3, 1)

    plan = plan_transform((1, 1, 1, 5), "bipartite")
    assert plan.element.label == "MZ^5"
    assert plan.image == (3, 3, 3, 1)

    for graph_class in ("planar", "bipartite"):
        plan = plan_transform((1, 1, 1, 1), graph_class)
        assert plan.element.label == "I"


def test_flip_composites_stay_inside_the_groups():
    # both sign flips are themselves group elements, so every
    # element-plus-flip composite is some other element's raw action and
    # successful plans never need a flip
    planar_rows = {el.matrix.rows for el in planar_group()}
    for el in planar_group():
        assert (D_FLIP @ el.matrix).rows in planar_rows
    bipartite_rows = {el.matrix.rows for el in bipartite_group()}
    for el in bipartite_group():
        assert (D_FLIP @ el.matrix).rows in bipartite_rows
        assert (NEG_IDENTITY @ el.matrix).rows in bipartite_rows


def test_plans_cover_union_of_table_regions():
    rng = Random(67)
    for _ in range(200):
        p = random_rationals(rng)
        plan = plan_transform(p, "planar")
        if plan is not None:
            assert in_region_all(plan.image, ("Y", "Z"))
        plan = plan_transform(p, "bipartite")
        if plan is not None:
            assert in_region_all(plan.image, ("Y", "Z"))


def test_plan_none_comes_with_diagnostics():
    # far outside every preimage: a-dominant is not reachable planar-side
    p = (12, 1, 1, 1)
    assert plan_transform(p, "planar") is None
    report = plan_report(p, "planar")
    assert len(report) == 6
    assert all("element" in row for row in report)


def test_planned_images_preserve_value(octahedron, k44):
    rng = Random(53)
    census_oct = census_8v(octahedron)
    census_k44 = census_8v(k44)
    for _ in range(10):
        p = random_rationals(rng)
        plan = plan_transform(p, "planar")
        if plan is not None:
            assert census_oct.evaluate(p) == census_oct.evaluate(plan.image)
        plan = plan_transform(p, "bipartite")
        if plan is not None:
            assert census_k44.evaluate(p) == census_k44.evaluate(plan.image)


def test_invariance_under_full_groups(octahedron, torus22, torus24, k44):
    rng = Random(59)
    for g in (octahedron, torus22, torus24):
        census = census_8v(g)
        for el in planar_group():
            for _ in range(3):
                p = random_rationals(rng)
                assert census.evaluate(p) == census.evaluate(el.matrix.apply(p))
    for g in (k44, torus22, torus24):
        census = census_8v(g)
        for el in bipartite_group():
            for _ in range(3):
                p = random_rationals(rng)
                assert census.evaluate(p) == census.evaluate(el.matrix.apply(p))


def test_preimage_tables_cover_all_elements():
    assert len(PLANAR_PREIMAGE_TABLE) == 6
    assert len(BIPARTITE_PREIMAGE_TABLE) == 12


def test_preimage_spotcheck_passes():
    report = preimage_spotcheck(samples_per_row=60, seed=61)
    assert report.passed
    assert all(r.complement_violations == 0 for r in report.rows)
    assert len(report.rows) == 18
