"""Parameter-transform groups, region predicates and transform planning.

All matrices and predicates here are exact rationals: the group identities
are exact and are tested with zero tolerance.  A ``HalfIntMatrix`` holds
twice its entries as integers, so its products, powers and orders, and the
group closures built from them, run in integer arithmetic.  The planar
group (order 6, the symmetric group on three letters) composes the
holographic parameter maps with the face-coloring swap (b, a, d, c); the
bipartite group (order 12, dihedral) uses the holographic maps directly.

The groups already contain the admissible sign maps: the d flip is the
planar element MZ^2*MHZ (and the bipartite MZ^5*MHZ), and -I is the
bipartite element MZ^3.  A sign-flipped image is therefore another
element's plain image, and the planner needs a single pass over the
elements.  ``sign_normalize`` serves the diagnostics printed when no
element works.  The flip names it returns, and that the preimage tables
use, stand for these matrices: "d" for ``D_FLIP`` and "all" for
``NEG_IDENTITY``.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from random import Random
from typing import Iterable, Sequence

from .exact import ParamVec, as_params, format_rational

_HALF = Fraction(1, 2)
# HalfIntMatrix.order gives up past this; the group elements have order <= 6
ORDER_CAP = 64


@dataclass(frozen=True, init=False)
class HalfIntMatrix:
    """Invertible 4x4 matrix with entries in (1/2) * Z, held as twice its entries."""

    twice: tuple[tuple[int, ...], ...]

    def __init__(self, rows: Sequence[Sequence]):
        rows = tuple(tuple(Fraction(x) for x in row) for row in rows)
        if len(rows) != 4 or any(len(r) != 4 for r in rows):
            raise ValueError("expected a 4x4 matrix")
        for row in rows:
            for x in row:
                if (2 * x).denominator != 1:
                    raise ValueError(f"entry {x} is not a half-integer")
        twice = tuple(tuple(int(2 * x) for x in row) for row in rows)
        if _det(twice) == 0:
            raise ValueError("matrix is singular")
        object.__setattr__(self, "twice", twice)

    @classmethod
    def _of_twice(cls, twice: tuple[tuple[int, ...], ...]) -> "HalfIntMatrix":
        """Unchecked: for negations and products of matrices already checked."""
        out = object.__new__(cls)
        object.__setattr__(out, "twice", twice)
        return out

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(x, 2) for x in row) for row in self.twice)

    def __matmul__(self, other: "HalfIntMatrix") -> "HalfIntMatrix":
        """The product, refused unless it is a half-integer matrix."""
        columns = tuple(zip(*other.twice))
        out = []
        for row in self.twice:
            for column in columns:
                x = row[0] * column[0] + row[1] * column[1] + row[2] * column[2] + row[3] * column[3]
                if x % 2:
                    raise ValueError(f"entry {Fraction(x, 4)} is not a half-integer")
                out.append(x // 2)
        return HalfIntMatrix._of_twice(tuple(tuple(out[i:i + 4]) for i in range(0, 16, 4)))

    def __neg__(self) -> "HalfIntMatrix":
        return HalfIntMatrix._of_twice(tuple(tuple(-x for x in row) for row in self.twice))

    def apply(self, p: Sequence) -> ParamVec:
        """The image of ``p``, summed in integers over a common denominator."""
        p = as_params(p)
        den = lcm(*(x.denominator for x in p))
        n = [x.numerator * (den // x.denominator) for x in p]
        return tuple(  # type: ignore[return-value]
            Fraction(r[0] * n[0] + r[1] * n[1] + r[2] * n[2] + r[3] * n[3], 2 * den)
            for r in self.twice
        )

    def power(self, k: int) -> "HalfIntMatrix":
        out = IDENTITY
        for _ in range(k):
            out = out @ self
        return out

    def order(self) -> int:
        acc = self
        for k in range(1, ORDER_CAP + 1):
            if acc == IDENTITY:
                return k
            acc = acc @ self
        raise ValueError(f"order exceeds {ORDER_CAP}")


def _det(m) -> int:
    """Determinant by expansion along the first row."""
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _det([r[:j] + r[j + 1:] for r in m[1:]])
               for j in range(len(m)) if m[0][j])


def _m(entries: Iterable[Iterable[int]], scale: Fraction = Fraction(1)) -> HalfIntMatrix:
    return HalfIntMatrix(tuple(tuple(scale * x for x in row) for row in entries))


IDENTITY = _m([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
NEG_IDENTITY = -IDENTITY
D_FLIP = _m([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]])
# the sign maps under the names that sign_normalize and the preimage tables use
_FLIPS = {"d": D_FLIP, "all": NEG_IDENTITY}

# holographic parameter maps between the eight-vertex and even-coloring models
MZ = _m([[-1, 1, 1, -1], [1, -1, 1, -1], [1, 1, -1, -1], [1, 1, 1, 1]], _HALF)
MHZ = _m([[-1, 1, 1, 1], [1, -1, 1, 1], [1, 1, -1, 1], [1, 1, 1, -1]], _HALF)

# the face-coloring bijection swaps (a, b, c, d) -> (b, a, d, c)
PLANAR_SWAP = _m([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])

MZ_PLANAR = PLANAR_SWAP @ MZ
MHZ_PLANAR = PLANAR_SWAP @ MHZ


@dataclass(frozen=True)
class GroupElement:
    matrix: HalfIntMatrix
    word: tuple[str, ...]  # shortest product of generator names found
    label: str  # normal form, e.g. "MZ^2*MHZ"
    order: int


class ClosureCapError(RuntimeError):
    pass


def group_closure(
    generators: Sequence[tuple[str, HalfIntMatrix]], cap: int = 1024
) -> list[GroupElement]:
    """Close a generator set under exact matrix products.

    Breadth-first, so each element carries a shortest word (ties resolved
    by generator order).  Raises :class:`ClosureCapError` past ``cap``
    elements, which signals the input does not generate a small group.
    """
    seen = {IDENTITY: ()}
    frontier = [IDENTITY]
    while frontier:
        next_frontier = []
        for matrix in frontier:
            word = seen[matrix]
            for name, gen in generators:
                prod = matrix @ gen
                if prod not in seen:
                    seen[prod] = word + (name,)
                    next_frontier.append(prod)
                    if len(seen) > cap:
                        raise ClosureCapError(
                            f"closure exceeded {cap} elements; not a small group"
                        )
        frontier = next_frontier
    elements = [GroupElement(matrix, word, "*".join(word) if word else "I", matrix.order())
                for matrix, word in seen.items()]
    elements.sort(key=lambda el: (len(el.word), el.word))
    return elements


def _normal_form_elements(
    mz: HalfIntMatrix, mhz: HalfIntMatrix, mz_name: str, mhz_name: str
) -> list[GroupElement]:
    """The closure relabeled in normal-form order MZ^i, then MZ^i*MHZ."""
    by_matrix = {el.matrix: el for el in group_closure([(mz_name, mz), (mhz_name, mhz)])}
    ordered = []
    for with_ref in (False, True):
        rotation = IDENTITY
        for i in range(mz.order()):
            matrix = rotation @ mhz if with_ref else rotation
            rot = "" if i == 0 else (mz_name if i == 1 else f"{mz_name}^{i}")
            label = (f"{rot}*{mhz_name}" if rot else mhz_name) if with_ref else (rot or "I")
            base = by_matrix.pop(matrix)
            ordered.append(GroupElement(matrix, base.word, label, base.order))
            rotation = rotation @ mz
    if by_matrix:
        raise RuntimeError("normal form did not cover the closure")
    return ordered


@lru_cache(maxsize=None)
def planar_group() -> tuple[GroupElement, ...]:
    """The 6 planar parameter transforms, in table order I, MZ, .., MZ^2*MHZ."""
    return tuple(_normal_form_elements(MZ_PLANAR, MHZ_PLANAR, "MZ", "MHZ"))


@lru_cache(maxsize=None)
def bipartite_group() -> tuple[GroupElement, ...]:
    """The 12 bipartite parameter transforms, in table order."""
    return tuple(_normal_form_elements(MZ, MHZ, "MZ", "MHZ"))


def group_for_class(graph_class: str) -> tuple[GroupElement, ...]:
    if graph_class == "planar":
        return planar_group()
    if graph_class == "bipartite":
        return bipartite_group()
    raise ValueError(f"unknown graph class {graph_class!r}")


def group_fingerprint(elements: Sequence[GroupElement]) -> dict:
    """Order, abelianness and the multiset of element orders.

    (6, nonabelian) pins the symmetric group S3; order 12 with order
    multiset {1:1, 2:7, 3:2, 6:2} pins the dihedral group D6.
    """
    matrices = [el.matrix for el in elements]
    keys = set(matrices)
    if len(keys) != len(matrices):
        raise ValueError("input contains duplicate elements")
    abelian = True
    for i, a in enumerate(matrices):
        for b in matrices[i:]:
            ab, ba = a @ b, b @ a
            if ab not in keys or ba not in keys:
                raise ValueError("input is not closed under products")
            if ab != ba:
                abelian = False
    orders: dict[int, int] = {}
    for el in elements:
        orders[el.order] = orders.get(el.order, 0) + 1
    return {"order": len(matrices), "abelian": abelian, "element_orders": orders}


# ----------------------------------------------------------------------
# region predicates (closed inequalities, nonnegative parameters only)


def _require_nonneg(p: ParamVec):
    if any(x < 0 for x in p):
        shown = ", ".join(map(format_rational, p))
        raise ValueError(f"region predicates need nonnegative parameters, got ({shown})")


def region(params: Sequence, name: str) -> bool:
    """Membership in the named parameter region, decided exactly.

    Each region bounds sums of parameters by half the total, so that a sum
    is at most the sum of the remaining parameters.  A single letter bounds
    one parameter (A: a <= b+c+d); AD, BD and CD bound that letter plus d
    (AD: a+d <= b+c); X asks this of all four letters and Y of all three
    pairs; Z is X on the squared parameters.  A trailing "bar" reverses the
    inequality, and for X, Y and Z asks for at least one reversed.  Unknown
    names raise ``KeyError``.
    """
    p = as_params(params)
    _require_nonneg(p)
    return _in_region(p, name)


# the index sets of each region, whose sums are bounded by half the total
_REGION_SETS = {
    "A": ((0,),), "B": ((1,),), "C": ((2,),), "D": ((3,),),
    "AD": ((0, 3),), "BD": ((1, 3),), "CD": ((2, 3),),
    "X": ((0,), (1,), (2,), (3,)),
    "Y": ((0, 3), (1, 3), (2, 3)),
    "Z": ((0,), (1,), (2,), (3,)),
}


def _in_region(p: ParamVec, name: str) -> bool:
    """``region`` on nonnegative entries."""
    base = name.removesuffix("bar")
    if base == "Z":
        p = tuple(x * x for x in p)
    total = sum(p)
    sums = (2 * sum(p[i] for i in s) for s in _REGION_SETS[base])
    if base == name:
        return all(x <= total for x in sums)
    return any(x >= total for x in sums)


def in_yz(params: Sequence) -> bool:
    p = as_params(params)
    return all(x >= 0 for x in p) and _in_region(p, "Y") and _in_region(p, "Z")


# ----------------------------------------------------------------------
# sign normalization and transform planning


class SignNormalizeError(ValueError):
    pass


def _apply_flips(p: ParamVec, flips: Sequence[str]) -> ParamVec:
    for flip in flips:
        p = _FLIPS[flip].apply(p)
    return p


def sign_normalize(
    params: Sequence, vertex_count_parity: str
) -> tuple[ParamVec, list[str]]:
    """Flip signs to reach a nonnegative vector with the same partition function.

    Negating d is always admissible (sinks pair with sources); negating all
    four entries is admissible only on graphs with an even vertex count.
    Returns the fewest-flips nonnegative orbit member, or raises
    :class:`SignNormalizeError` when no flip combination works.
    """
    if vertex_count_parity not in ("even", "odd"):
        raise ValueError("parity must be 'even' or 'odd'")
    p = as_params(params)
    candidates: list[tuple[str, ...]] = [(), ("d",)]
    if vertex_count_parity == "even":
        candidates += [("all",), ("all", "d")]
    for flips in candidates:
        q = _apply_flips(p, flips)
        if all(x >= 0 for x in q):
            return q, list(flips)
    raise SignNormalizeError(
        f"no admissible sign flip makes ({', '.join(map(format_rational, p))}) nonnegative"
    )


@dataclass(frozen=True)
class TransformPlan:
    element: GroupElement
    image: ParamVec  # nonnegative, inside Y and Z

    def to_jsonable(self) -> dict:
        return {
            "element_word": self.element.label,
            "matrix": [[format_rational(x) for x in row] for row in self.element.matrix.rows],
            "image": [format_rational(x) for x in self.image],
            "flips": [],  # kept in the JSON: plans never need a sign flip
        }


_CLASS_PARITY = {"planar": "odd", "bipartite": "even"}


def _search_order(elements: Sequence[GroupElement]) -> list[GroupElement]:
    return sorted(elements, key=lambda el: (len(el.word), el.word))


def plan_transform(params: Sequence, graph_class: str) -> TransformPlan | None:
    """Find a group element whose image of ``params`` lies in Y and Z.

    Elements are tried by shortest generator word, then lexicographically.
    No sign flip is ever tried: each admissible flip (the d flip for the
    planar class, which may have an odd vertex count, and also the all flip
    for the bipartite class) is itself a group element, so every flipped
    image is some element's plain image and this one pass finds it.
    """
    p = as_params(params)
    _require_nonneg(p)
    elements = _search_order(group_for_class(graph_class))
    for el in elements:
        q = el.matrix.apply(p)
        if in_yz(q):
            return TransformPlan(el, q)
    return None


def plan_report(params: Sequence, graph_class: str) -> list[dict]:
    """The per-element rows that ``plan`` prints when no element works.

    One JSON-ready row per element in search order: ``element`` (its
    label), ``normalized`` (the sign-normalized image as rational strings,
    or None), ``in_Y`` and ``in_Z`` (None when there is no nonnegative
    image) and ``reason`` (why there is none, else None).
    """
    p = as_params(params)
    _require_nonneg(p)
    parity = _CLASS_PARITY[graph_class]
    rows = []
    for el in _search_order(group_for_class(graph_class)):
        row = {"element": el.label, "normalized": None, "in_Y": None, "in_Z": None,
               "reason": None}
        try:
            normalized, _ = sign_normalize(el.matrix.apply(p), parity)
        except SignNormalizeError:
            row["reason"] = "no nonnegative sign orbit"
        else:
            row["normalized"] = [format_rational(x) for x in normalized]
            row["in_Y"] = region(normalized, "Y")
            row["in_Z"] = region(normalized, "Z")
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# table rows: preimages of Y under each element (with sign wrappers)

# (element label, sign wrapper applied to the sampled point, region names)
PLANAR_PREIMAGE_TABLE: tuple[tuple[str, tuple[str, ...], tuple[str, ...]], ...] = (
    ("I", (), ("AD", "BD", "CD")),
    ("MZ", ("d",), ("AD", "BD", "CDbar", "C")),
    ("MZ^2", (), ("Cbar",)),
    ("MHZ", (), ("AD", "BD", "CDbar", "C")),
    ("MZ*MHZ", ("d",), ("Cbar",)),
    ("MZ^2*MHZ", ("d",), ("AD", "BD", "CD")),
)

BIPARTITE_PREIMAGE_TABLE: tuple[tuple[str, tuple[str, ...], tuple[str, ...]], ...] = (
    ("I", (), ("AD", "BD", "CD")),
    ("MZ", ("d",), ("ADbar", "BDbar", "CDbar", "D")),
    ("MZ^2", ("all",), ("Dbar",)),
    ("MZ^3", ("all",), ("AD", "BD", "CD")),
    ("MZ^4", ("d", "all"), ("ADbar", "BDbar", "CDbar", "D")),
    ("MZ^5", (), ("Dbar",)),
    ("MHZ", (), ("ADbar", "BDbar", "CDbar", "D")),
    ("MZ*MHZ", ("d", "all"), ("Dbar",)),
    ("MZ^2*MHZ", ("d", "all"), ("AD", "BD", "CD")),
    ("MZ^3*MHZ", ("all",), ("ADbar", "BDbar", "CDbar", "D")),
    ("MZ^4*MHZ", ("d",), ("Dbar",)),
    ("MZ^5*MHZ", ("d",), ("AD", "BD", "CD")),
)

SAMPLE_DENOMINATOR = 1 << 16
REJECTION_CAP = 100_000


def sample_region_point(rng: Random, names: Sequence[str]) -> ParamVec:
    """Uniform rational point of the unit box conditioned on the region.

    With no region names (``()``) this is one plain draw from the box.
    """
    for _ in range(REJECTION_CAP):
        p = tuple(
            Fraction(rng.randrange(SAMPLE_DENOMINATOR + 1), SAMPLE_DENOMINATOR)
            for _ in range(4)
        )
        if all(_in_region(p, n) for n in names):
            return p  # type: ignore[return-value]
    raise RuntimeError(f"rejection sampling exhausted for region {names}")


@dataclass(frozen=True)
class SpotcheckRow:
    graph_class: str
    element: str
    failures: int
    complement_violations: int


@dataclass(frozen=True)
class SpotcheckReport:
    rows: tuple[SpotcheckRow, ...]

    @property
    def passed(self) -> bool:
        return all(r.failures == 0 and r.complement_violations == 0 for r in self.rows)


def preimage_spotcheck(samples_per_row: int = 100, seed: int = 0) -> SpotcheckReport:
    """Sample each table row's stated preimage and verify it maps into Y.

    Points drawn inside the stated region (then sign-wrapped) must map to a
    nonnegative vector in Y; box points strictly outside the region must
    not.  The report passes only when both directions do.
    """
    rng = Random(seed)
    rows = []
    for graph_class, table in (
        ("planar", PLANAR_PREIMAGE_TABLE),
        ("bipartite", BIPARTITE_PREIMAGE_TABLE),
    ):
        by_label = {el.label: el for el in group_for_class(graph_class)}
        for label, wrapper, names in table:
            matrix = by_label[label].matrix
            failures = 0
            for _ in range(samples_per_row):
                p = sample_region_point(rng, names)
                image = matrix.apply(_apply_flips(p, wrapper))
                if not (all(x >= 0 for x in image) and _in_region(image, "Y")):
                    failures += 1
            comp_samples = comp_violations = 0
            while comp_samples < samples_per_row:
                p = sample_region_point(rng, ())
                if all(_in_region(p, n) for n in names):
                    continue
                comp_samples += 1
                image = matrix.apply(_apply_flips(p, wrapper))
                if all(x >= 0 for x in image) and _in_region(image, "Y"):
                    comp_violations += 1
            rows.append(SpotcheckRow(graph_class, label, failures, comp_violations))
    return SpotcheckReport(tuple(rows))
