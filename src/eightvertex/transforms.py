"""Parameter-transform groups, region predicates and transform planning.

All matrices and predicates here are exact rationals: the group identities
are exact and are tested with zero tolerance.  The planar group (order 6,
the symmetric group on three letters) composes the holographic parameter
maps with the face-coloring swap (b, a, d, c); the bipartite group (order
12, dihedral) uses the holographic maps directly.

The groups already contain the admissible sign maps: the d flip is the
planar element MZ^2*MHZ (and the bipartite MZ^5*MHZ), and -I is the
bipartite element MZ^3.  A sign-flipped image is therefore another
element's plain image, and the planner needs a single pass over the
elements.  ``sign_normalize`` serves the diagnostics printed when no
element works.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from random import Random
from typing import Iterable, Sequence

from .exact import ParamVec, as_params

_HALF = Fraction(1, 2)


@dataclass(frozen=True)
class HalfIntMatrix:
    """Invertible 4x4 matrix with entries in (1/2) * Z, stored exactly."""

    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(Fraction(x) for x in row) for row in self.rows)
        if len(rows) != 4 or any(len(r) != 4 for r in rows):
            raise ValueError("expected a 4x4 matrix")
        for row in rows:
            for x in row:
                if (2 * x).denominator != 1:
                    raise ValueError(f"entry {x} is not a half-integer")
        object.__setattr__(self, "rows", rows)
        if _det4(rows) == 0:
            raise ValueError("matrix is singular")

    def __matmul__(self, other: "HalfIntMatrix") -> "HalfIntMatrix":
        a, b = self.rows, other.rows
        return HalfIntMatrix(
            tuple(
                tuple(sum(a[i][k] * b[k][j] for k in range(4)) for j in range(4))
                for i in range(4)
            )
        )

    def __neg__(self) -> "HalfIntMatrix":
        return HalfIntMatrix(tuple(tuple(-x for x in row) for row in self.rows))

    def apply(self, p: Sequence) -> ParamVec:
        p = as_params(p)
        return tuple(sum(row[j] * p[j] for j in range(4)) for row in self.rows)  # type: ignore[return-value]

    def inverse(self) -> "HalfIntMatrix":
        return HalfIntMatrix(_invert4(self.rows))

    def power(self, k: int) -> "HalfIntMatrix":
        out = IDENTITY
        base = self
        if k < 0:
            base, k = self.inverse(), -k
        for _ in range(k):
            out = out @ base
        return out

    def order(self, cap: int = 64) -> int:
        acc = self
        for k in range(1, cap + 1):
            if acc == IDENTITY:
                return k
            acc = acc @ self
        raise ValueError(f"order exceeds {cap}")


def _det4(rows) -> Fraction:
    def det3(r):
        return (
            r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
            - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
            + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0])
        )

    total = Fraction(0)
    for j in range(4):
        minor = [[rows[i][k] for k in range(4) if k != j] for i in range(1, 4)]
        total += (-1) ** j * rows[0][j] * det3(minor)
    return total


def _invert4(rows) -> tuple[tuple[Fraction, ...], ...]:
    # Gauss-Jordan over the rationals
    aug = [list(rows[i]) + [Fraction(int(i == j)) for j in range(4)] for i in range(4)]
    for col in range(4):
        pivot = next((r for r in range(col, 4) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(4):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[4:]) for row in aug)


def _m(entries: Iterable[Iterable[int]], scale: Fraction = Fraction(1)) -> HalfIntMatrix:
    return HalfIntMatrix(tuple(tuple(scale * x for x in row) for row in entries))


IDENTITY = _m([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
NEG_IDENTITY = -IDENTITY
D_FLIP = _m([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]])

# holographic parameter maps between the eight-vertex and even-coloring models
MZ = _m([[-1, 1, 1, -1], [1, -1, 1, -1], [1, 1, -1, -1], [1, 1, 1, 1]], _HALF)
MHZ = _m([[-1, 1, 1, 1], [1, -1, 1, 1], [1, 1, -1, 1], [1, 1, 1, -1]], _HALF)

# the face-coloring bijection swaps (a, b, c, d) -> (b, a, d, c)
PLANAR_SWAP = _m([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])

MZ_PLANAR = PLANAR_SWAP @ MZ
MHZ_PLANAR = PLANAR_SWAP @ MHZ
MZ_BIPARTITE = MZ
MHZ_BIPARTITE = MHZ


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
    seen: dict[tuple, tuple[HalfIntMatrix, tuple[str, ...]]] = {}
    frontier: list[tuple[HalfIntMatrix, tuple[str, ...]]] = [(IDENTITY, ())]
    seen[IDENTITY.rows] = (IDENTITY, ())
    while frontier:
        next_frontier = []
        for matrix, word in frontier:
            for name, gen in generators:
                prod = matrix @ gen
                if prod.rows not in seen:
                    entry = (prod, word + (name,))
                    seen[prod.rows] = entry
                    next_frontier.append(entry)
                    if len(seen) > cap:
                        raise ClosureCapError(
                            f"closure exceeded {cap} elements; not a small group"
                        )
        frontier = next_frontier
    elements = []
    for matrix, word in seen.values():
        label = "*".join(word) if word else "I"
        elements.append(GroupElement(matrix, word, label, matrix.order()))
    elements.sort(key=lambda el: (len(el.word), el.word))
    return elements


def _normal_form_elements(
    mz: HalfIntMatrix, mhz: HalfIntMatrix, mz_name: str, mhz_name: str
) -> list[GroupElement]:
    """Closure relabeled in normal-form order MZ^i, then MZ^i*MHZ."""
    closure = group_closure([(mz_name, mz), (mhz_name, mhz)])
    by_rows = {el.matrix.rows: el for el in closure}
    rotations = mz.order()
    ordered = []
    for with_ref in (0, 1):
        acc = IDENTITY
        for i in range(rotations):
            matrix = acc @ mhz if with_ref else acc
            rot = "" if i == 0 else (mz_name if i == 1 else f"{mz_name}^{i}")
            if with_ref:
                label = f"{rot}*{mhz_name}" if rot else mhz_name
            else:
                label = rot or "I"
            base = by_rows.pop(matrix.rows)
            ordered.append(GroupElement(matrix, base.word, label, base.order))
            acc = acc @ mz
    if by_rows:
        raise RuntimeError("normal form did not cover the closure")
    return ordered


@lru_cache(maxsize=None)
def planar_group() -> tuple[GroupElement, ...]:
    """The 6 planar parameter transforms, in table order I, MZ, .., MZ^2*MHZ."""
    return tuple(_normal_form_elements(MZ_PLANAR, MHZ_PLANAR, "MZ", "MHZ"))


@lru_cache(maxsize=None)
def bipartite_group() -> tuple[GroupElement, ...]:
    """The 12 bipartite parameter transforms, in table order."""
    return tuple(_normal_form_elements(MZ_BIPARTITE, MHZ_BIPARTITE, "MZ", "MHZ"))


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
    keys = {m.rows for m in matrices}
    if len(keys) != len(matrices):
        raise ValueError("input contains duplicate elements")
    abelian = True
    for i, a in enumerate(matrices):
        for b in matrices[i:]:
            ab, ba = a @ b, b @ a
            if ab.rows not in keys or ba.rows not in keys:
                raise ValueError("input is not closed under products")
            if ab.rows != ba.rows:
                abelian = False
    orders: dict[int, int] = {}
    for el in elements:
        orders[el.order] = orders.get(el.order, 0) + 1
    return {"order": len(matrices), "abelian": abelian, "element_orders": orders}


# ----------------------------------------------------------------------
# region predicates (closed inequalities, nonnegative parameters only)


def _require_nonneg(p: ParamVec):
    if any(x < 0 for x in p):
        raise ValueError(f"region predicates need nonnegative parameters, got {p}")


def region(params: Sequence, name: str) -> bool:
    """Membership in the named parameter region, decided exactly.

    Single-letter names bound one parameter by the sum of the others
    (A: a <= b+c+d and so on); two-letter names compare pair sums
    (AD: a+d <= b+c); X and Y are the intersections of those families; Z
    compares squares.  A trailing "bar" reverses the inequality (for the
    intersection regions X, Y, Z it asks for at least one reversed).
    """
    p = as_params(params)
    _require_nonneg(p)
    return _REGIONS[name](p)


def _linear(i: int):
    def pred(p: ParamVec) -> bool:
        return p[i] <= sum(p) - p[i]

    def bar(p: ParamVec) -> bool:
        return p[i] >= sum(p) - p[i]

    return pred, bar


def _pair(i: int):
    # p[i] + p[3] vs the other two (i in 0..2)
    def pred(p: ParamVec) -> bool:
        return p[i] + p[3] <= sum(p) - p[i] - p[3]

    def bar(p: ParamVec) -> bool:
        return p[i] + p[3] >= sum(p) - p[i] - p[3]

    return pred, bar


def _quad(p: ParamVec) -> bool:
    sq = [x * x for x in p]
    return all(sq[i] <= sum(sq) - sq[i] for i in range(4))


def _quad_bar(p: ParamVec) -> bool:
    sq = [x * x for x in p]
    return any(sq[i] >= sum(sq) - sq[i] for i in range(4))


_REGIONS: dict = {}
for _i, _name in enumerate("ABCD"):
    _REGIONS[_name], _REGIONS[_name + "bar"] = _linear(_i)
for _i, _name in enumerate(("AD", "BD", "CD")):
    _REGIONS[_name], _REGIONS[_name + "bar"] = _pair(_i)
_REGIONS["X"] = lambda p: all(_REGIONS[n](p) for n in "ABCD")
_REGIONS["Xbar"] = lambda p: any(_REGIONS[n + "bar"](p) for n in "ABCD")
_REGIONS["Y"] = lambda p: all(_REGIONS[n](p) for n in ("AD", "BD", "CD"))
_REGIONS["Ybar"] = lambda p: any(_REGIONS[n + "bar"](p) for n in ("AD", "BD", "CD"))
_REGIONS["Z"] = _quad
_REGIONS["Zbar"] = _quad_bar

def in_yz(params: Sequence) -> bool:
    p = as_params(params)
    if any(x < 0 for x in p):
        return False
    return _REGIONS["Y"](p) and _REGIONS["Z"](p)


# ----------------------------------------------------------------------
# sign normalization and transform planning


class SignNormalizeError(ValueError):
    pass


def _apply_flips(p: ParamVec, flips: Sequence[str]) -> ParamVec:
    out = p
    for flip in flips:
        if flip == "d":
            out = (out[0], out[1], out[2], -out[3])
        elif flip == "all":
            out = tuple(-x for x in out)  # type: ignore[assignment]
        else:
            raise ValueError(f"unknown flip {flip!r}")
    return out


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
        f"no admissible sign flip makes {tuple(map(str, p))} nonnegative"
    )


@dataclass(frozen=True)
class TransformPlan:
    element: GroupElement
    image: ParamVec  # nonnegative, inside Y and Z

    def to_jsonable(self) -> dict:
        from .exact import format_rational

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
        if all(x >= 0 for x in q) and in_yz(q):
            return TransformPlan(el, q)
    return None


def plan_report(params: Sequence, graph_class: str) -> list[dict]:
    """Per-element diagnostics for a failed (or successful) plan search."""
    p = as_params(params)
    _require_nonneg(p)
    parity = _CLASS_PARITY[graph_class]
    rows = []
    for el in _search_order(group_for_class(graph_class)):
        q = el.matrix.apply(p)
        entry: dict = {"element": el.label, "raw_image": q}
        try:
            normalized, flips = sign_normalize(q, parity)
            entry["normalized"] = normalized
            entry["flips"] = flips
            entry["in_Y"] = region(normalized, "Y")
            entry["in_Z"] = region(normalized, "Z")
        except SignNormalizeError:
            entry["normalized"] = None
            entry["reason"] = "no nonnegative sign orbit"
        rows.append(entry)
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


def sample_region_point(
    rng: Random, names: Sequence[str], cap: int = REJECTION_CAP
) -> ParamVec:
    """Uniform rational point of the unit box conditioned on the region."""
    for _ in range(cap):
        p = tuple(
            Fraction(rng.randrange(SAMPLE_DENOMINATOR + 1), SAMPLE_DENOMINATOR)
            for _ in range(4)
        )
        if all(_REGIONS[n](p) for n in names):
            return p  # type: ignore[return-value]
    raise RuntimeError(f"rejection sampling exhausted for region {names}")


@dataclass(frozen=True)
class SpotcheckRow:
    graph_class: str
    element: str
    samples: int
    failures: int
    complement_samples: int
    complement_violations: int


@dataclass(frozen=True)
class SpotcheckReport:
    rows: tuple[SpotcheckRow, ...]

    @property
    def passed(self) -> bool:
        return all(r.failures == 0 for r in self.rows)


def preimage_spotcheck(samples_per_row: int = 100, seed: int = 0) -> SpotcheckReport:
    """Sample each table row's stated preimage and verify it maps into Y.

    Points drawn inside the stated region (then sign-wrapped) must map to a
    nonnegative vector in Y; box points strictly outside the region must
    not.  The complement direction is reported alongside.
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
                if not (all(x >= 0 for x in image) and _REGIONS["Y"](image)):
                    failures += 1
            comp_samples = comp_violations = 0
            while comp_samples < samples_per_row:
                p = tuple(
                    Fraction(rng.randrange(SAMPLE_DENOMINATOR + 1), SAMPLE_DENOMINATOR)
                    for _ in range(4)
                )
                if all(_REGIONS[n](p) for n in names):
                    continue
                comp_samples += 1
                image = matrix.apply(_apply_flips(p, wrapper))
                if all(x >= 0 for x in image) and _REGIONS["Y"](image):
                    comp_violations += 1
            rows.append(
                SpotcheckRow(
                    graph_class,
                    label,
                    samples_per_row,
                    failures,
                    comp_samples,
                    comp_violations,
                )
            )
    return SpotcheckReport(tuple(rows))
