from fractions import Fraction
from random import Random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from eightvertex import transforms
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
    in_yz,
    plan_transform,
    planar_group,
    preimage_spotcheck,
    region,
    sample_region_point,
    sign_normalize,
)

from ._brute import (
    closure_by_products,
    in_region_all,
    inverse,
    normal_form_by_products,
    random_rationals,
    rows_product,
    region_by_hand,
)

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


@st.composite
def half_int_matrices(draw):
    """A random invertible half-integer matrix, integral half of the time
    (so that products with it stay in (1/2) * Z), or a group element."""
    if draw(st.booleans()):
        return draw(st.sampled_from([el.matrix for el in bipartite_group() + planar_group()]))
    step = 2 if draw(st.booleans()) else 1
    twice = draw(st.lists(st.integers(-3, 3), min_size=16, max_size=16))
    rows = tuple(tuple(Fraction(step * x, 2) for x in twice[i:i + 4]) for i in range(0, 16, 4))
    try:
        return HalfIntMatrix(rows)
    except ValueError:
        assume(False)


def _half_integral(rows) -> bool:
    return all((2 * x).denominator == 1 for row in rows for x in row)


@settings(max_examples=300, deadline=None)
@given(half_int_matrices(), half_int_matrices())
def test_product_matches_fraction_arithmetic(a, b):
    want = rows_product(a.rows, b.rows)
    if _half_integral(want):
        assert (a @ b).rows == want
    else:
        with pytest.raises(ValueError, match="not a half-integer"):
            a @ b


@settings(max_examples=200, deadline=None)
@given(half_int_matrices(),
       st.lists(st.fractions(min_value=-10, max_value=10, max_denominator=50),
                min_size=4, max_size=4))
def test_apply_matches_fraction_arithmetic(a, p):
    assert a.apply(p) == tuple(sum(a.rows[i][j] * p[j] for j in range(4)) for i in range(4))


@settings(max_examples=200, deadline=None)
@given(half_int_matrices(), st.integers(0, 6))
def test_negation_and_power_match_fraction_arithmetic(a, k):
    assert (-a).rows == tuple(tuple(-x for x in row) for row in a.rows)
    want = IDENTITY.rows
    for _ in range(k):
        want = rows_product(want, a.rows)
        if not _half_integral(want):
            with pytest.raises(ValueError, match="not a half-integer"):
                a.power(k)
            return
    assert a.power(k).rows == want


@settings(max_examples=200, deadline=None)
@given(half_int_matrices(), half_int_matrices())
def test_equality_and_hash_follow_the_rows(a, b):
    assert (a == b) == (a.rows == b.rows)
    same = HalfIntMatrix(a.rows)
    assert same == a and hash(same) == hash(a)


def test_matrix_inverse_roundtrip():
    for m in (MZ, MHZ, MZ_PLANAR, MHZ_PLANAR, PLANAR_SWAP):
        assert m @ inverse(m) == IDENTITY


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


@pytest.mark.parametrize("group, mz, mhz", [
    (planar_group, MZ_PLANAR, MHZ_PLANAR),
    (bipartite_group, MZ, MHZ),
])
def test_groups_match_the_matrix_product_closure(group, mz, mhz):
    # the group against one built from Fraction products of the rows: rows,
    # word, label and order of each element, in table order
    want = normal_form_by_products(mz, mhz, "MZ", "MHZ")
    got = group()
    assert [(el.matrix.rows, el.word, el.label, el.order) for el in got] == [
        (el.matrix.rows, el.word, el.label, el.order) for el in want]
    assert group_closure([("MZ", mz), ("MHZ", mhz)]) == closure_by_products(
        [("MZ", mz), ("MHZ", mhz)])


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


REGION_NAMES = tuple(
    name + suffix
    for name in ("A", "B", "C", "D", "AD", "BD", "CD", "X", "Y", "Z")
    for suffix in ("", "bar")
)
NONNEG = st.fractions(min_value=0, max_value=8, max_denominator=12)
# integer points with one square equal to the sum of the other three
SQUARE_BOUNDARIES = ((3, 2, 2, 1), (7, 6, 3, 2), (9, 8, 4, 1), (1, 1, 0, 0))


@st.composite
def boundary_points(draw):
    """Nonnegative points on one region boundary, coordinates shuffled."""
    kind = draw(st.sampled_from(("single", "pair", "square")))
    if kind == "single":
        x, y, z = draw(st.tuples(NONNEG, NONNEG, NONNEG))
        point = [x + y + z, x, y, z]
    elif kind == "pair":
        s1, t1 = draw(st.tuples(NONNEG, NONNEG))
        total = max(s1, t1) + draw(NONNEG)
        point = [s1, total - s1, t1, total - t1]
    else:
        point = [draw(NONNEG) * x for x in draw(st.sampled_from(SQUARE_BOUNDARIES))]
    return tuple(draw(st.permutations(point)))


@settings(max_examples=300, deadline=None)
@given(p=st.tuples(NONNEG, NONNEG, NONNEG, NONNEG) | boundary_points())
@example(p=(Fraction(1), Fraction(2), Fraction(2), Fraction(1)))  # a+d = b+c
@example(p=(Fraction(0),) * 4)
def test_regions_match_hand_written_inequalities(p):
    for name in REGION_NAMES:
        assert region(p, name) == region_by_hand(p, name), name
    assert in_yz(p) == (region_by_hand(p, "Y") and region_by_hand(p, "Z"))


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
    inv = inverse(MHZ_PLANAR)
    for _ in range(500):
        q = sample_region_point(rng, ("AD", "BD", "CD", "Z"))
        p = inv.apply(q)
        assert all(x >= 0 for x in p)
        assert in_region_all(p, ("AD", "BD", "CDbar", "C"))


def test_pullback_quadratic_factor_counterexample():
    inv = inverse(MHZ_PLANAR)
    q = (Fraction(1), Fraction(1), Fraction(1), Fraction(99, 100))
    assert in_region_all(q, ("Y", "Z"))
    p = inv.apply(q)
    assert region(p, "Z") and not region(p, "Zbar")


def test_sign_normalize_examples():
    vec, flips = sign_normalize((1, 1, 1, -2), "odd")
    assert vec == (1, 1, 1, 2) and flips == ["d"]
    vec, flips = sign_normalize((-1, -1, -1, 2), "even")
    assert vec == (1, 1, 1, 2) and flips == ["all", "d"]
    with pytest.raises(SignNormalizeError, match=r"makes \(-1, 1, 1, 1/2\) nonnegative"):
        sign_normalize(("-1", "1", "1", "1/2"), "odd")
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


def test_preimage_spotcheck_counts_the_complement(monkeypatch):
    # with Z added to the identity row's region, points of Y outside Z fall
    # in the row's complement yet map into Y, while every point inside the
    # stated region still does: only the complement direction can fail
    table = (("I", (), ("AD", "BD", "CD", "Z")),) + PLANAR_PREIMAGE_TABLE[1:]
    monkeypatch.setattr(transforms, "PLANAR_PREIMAGE_TABLE", table)
    report = preimage_spotcheck(samples_per_row=60, seed=61)
    assert all(r.failures == 0 for r in report.rows)
    assert report.rows[0].complement_violations > 0
    assert not report.passed
