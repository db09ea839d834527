"""Arity-4 constraint tensors and holographic basis changes.

Everything here is floating-point complex (the 1/sqrt(2) factors are
irrational); the identities other modules consume are re-expressed over
rationals in :mod:`eightvertex.transforms`.  ``verify holant`` ties the two
together: the Z and HZ basis changes on every leg must act on (a, b, c, d)
as the planner's matrices ``transforms.MZ`` and ``transforms.MHZ``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

TOL_EXACT = 1e-12
TOL_REAL = 1e-10


def _index(x1: int, x2: int, x3: int, x4: int) -> int:
    return (x1 << 3) | (x2 << 2) | (x3 << 1) | x4


@dataclass(frozen=True)
class QuarticFunction:
    """Truth table of 16 complex values indexed by (x1, x2, x3, x4)."""

    table: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.table, dtype=complex).reshape(16)
        object.__setattr__(self, "table", arr)


def constraint_from_params(a, b, c, d) -> QuarticFunction:
    """The zero-field eight-vertex constraint, with x_i the bit of label i.

    a and b are the two adjacent pairs (labels 1,2 or 3,4 and labels 2,3
    or 1,4), c the opposite pairs (1,3 or 2,4) and d none or all, as in
    ``states.CLASS_BY_MASK``.
    """
    t = np.zeros(16, dtype=complex)
    t[_index(1, 1, 0, 0)] = t[_index(0, 0, 1, 1)] = a
    t[_index(0, 1, 1, 0)] = t[_index(1, 0, 0, 1)] = b
    t[_index(0, 1, 0, 1)] = t[_index(1, 0, 1, 0)] = c
    t[_index(0, 0, 0, 0)] = t[_index(1, 1, 1, 1)] = d
    return QuarticFunction(t)


# 2x2 basis changes
Z_BASIS = np.array([[1, 1], [1j, -1j]], dtype=complex) / np.sqrt(2)
H_BASIS = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
HZ_BASIS = np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex) / 2

EQ2 = np.array([1, 0, 0, 1], dtype=complex)
NEQ2 = np.array([0, 1, 1, 0], dtype=complex)


def kron_power(T: np.ndarray, n: int) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for _ in range(n):
        out = np.kron(out, T)
    return out


def holo_transform(T: np.ndarray, f: QuarticFunction) -> QuarticFunction:
    """Apply the basis change on every leg: T tensored four times times f."""
    T = np.asarray(T, dtype=complex)
    if T.shape != (2, 2):
        raise ValueError("basis change must be a 2x2 matrix")
    if abs(np.linalg.det(T)) < TOL_EXACT:
        raise ValueError("singular basis change")
    return QuarticFunction(kron_power(T, 4) @ f.table)


def transform_binary_row(T_inv: np.ndarray, g: Sequence) -> np.ndarray:
    """Row vector of a binary function times the inverse basis on both legs."""
    g = np.asarray(g, dtype=complex).reshape(4)
    return kron_power(np.asarray(T_inv, dtype=complex).T, 2) @ g


def binary_transform_check() -> dict:
    """Disequality becomes equality under the Z change; equality survives H."""
    z_image = transform_binary_row(np.linalg.inv(Z_BASIS), NEQ2)
    h_image = transform_binary_row(np.linalg.inv(H_BASIS), EQ2)
    z_ok = bool(np.allclose(z_image, EQ2, atol=TOL_EXACT))
    h_ok = bool(np.allclose(h_image, EQ2, atol=TOL_EXACT))
    return {
        "z_case": z_ok,
        "h_case": h_ok,
        "passed": z_ok and h_ok,
        "z_image": z_image,
        "h_image": h_image,
    }


def appendix_lemma_check(trials: int, arity: int, seed: int = 0) -> dict:
    """Arrow reversal symmetry of a real table iff its Z-image is real.

    Random real tables: symmetric ones must transform to (numerically)
    real tables, non-symmetric ones must show an imaginary part.
    """
    if arity not in (2, 4):
        raise ValueError("arity must be 2 or 4")
    rng = np.random.default_rng(seed)
    size = 1 << arity
    full = size - 1
    zn = kron_power(Z_BASIS, arity)

    sym_failures = []
    nonsym_failures = []
    for t in range(trials):
        raw = rng.uniform(-1, 1, size)
        sym = np.array([(raw[i] + raw[i ^ full]) / 2 for i in range(size)])
        image = zn @ sym.astype(complex)
        if np.max(np.abs(image.imag)) >= TOL_REAL:
            sym_failures.append(t)

        nonsym = rng.uniform(-1, 1, size)
        while max(abs(nonsym[i] - nonsym[i ^ full]) for i in range(size)) < 0.1:
            nonsym = rng.uniform(-1, 1, size)
        image = zn @ nonsym.astype(complex)
        if np.max(np.abs(image.imag)) <= 1e-6:
            nonsym_failures.append(t)

    return {
        "trials": trials,
        "arity": arity,
        "symmetric_pass": not sym_failures,
        "nonsymmetric_pass": not nonsym_failures,
        "passed": not sym_failures and not nonsym_failures,
        "symmetric_failures": sym_failures,
        "nonsymmetric_failures": nonsym_failures,
    }
