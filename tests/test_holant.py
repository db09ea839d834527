from fractions import Fraction
from random import Random

import numpy as np
import pytest

from eightvertex.holant import (
    EQ2,
    H_BASIS,
    HZ_BASIS,
    NEQ2,
    Z_BASIS,
    QuarticFunction,
    appendix_lemma_check,
    binary_transform_check,
    constraint_from_params,
    holo_transform,
    kron_power,
    transform_binary_row,
)

from ._brute import arrow_reversal_symmetric


def test_constraint_placement():
    f = constraint_from_params(1, 0, 0, 0)
    nonzero = {i for i, x in enumerate(f.table) if x != 0}
    assert nonzero == {0b0011, 0b1100}
    f = constraint_from_params(0, 0, 0, 1)
    nonzero = {i for i, x in enumerate(f.table) if x != 0}
    assert nonzero == {0b0000, 0b1111}


def test_constraint_matrix_layout():
    f = constraint_from_params(1, 2, 3, 4)
    want = np.array(
        [[4, 0, 0, 1], [0, 2, 3, 0], [0, 3, 2, 0], [1, 0, 0, 4]], dtype=complex
    )
    assert np.array_equal(f.constraint_matrix(), want)


def test_constraints_are_arrow_reversal_symmetric():
    f = constraint_from_params(1, 2, 3, 4)
    assert arrow_reversal_symmetric(f.table)
    bad = [0.0] * 16
    bad[0b0000], bad[0b1111] = 1.0, 2.0
    assert not arrow_reversal_symmetric(bad)


def test_arrow_reversal_exact_entries():
    table = [Fraction(1)] * 4
    assert arrow_reversal_symmetric(table)
    table[0] = Fraction(2)
    assert not arrow_reversal_symmetric(table)
    with pytest.raises(ValueError):
        arrow_reversal_symmetric([1, 2, 3])


def test_hz_is_h_times_z():
    assert np.allclose(H_BASIS @ Z_BASIS, HZ_BASIS, atol=1e-14)


def test_identity_transform_is_noop():
    rng = np.random.default_rng(0)
    f = QuarticFunction(rng.normal(size=16) + 1j * rng.normal(size=16))
    out = holo_transform(np.eye(2), f)
    assert np.allclose(out.table, f.table, atol=1e-14)


def test_singular_basis_rejected():
    with pytest.raises(ValueError, match="singular"):
        holo_transform(np.array([[1, 1], [1, 1]]), constraint_from_params(1, 1, 1, 1))


def test_z_image_closed_form():
    rng = Random(3)
    for _ in range(100):
        a, b, c, d = (rng.uniform(-2, 2) for _ in range(4))
        got = holo_transform(Z_BASIS, constraint_from_params(a, b, c, d))
        want = 0.5 * np.array(
            [
                [a + b + c + d, 0, 0, -a + b + c - d],
                [0, a - b + c - d, a + b - c - d, 0],
                [0, a + b - c - d, a - b + c - d, 0],
                [-a + b + c - d, 0, 0, a + b + c + d],
            ]
        )
        assert np.abs(got.constraint_matrix() - want).max() < 1e-10


def test_hz_image_closed_form():
    rng = Random(4)
    for _ in range(100):
        a, b, c, d = (rng.uniform(-2, 2) for _ in range(4))
        got = holo_transform(HZ_BASIS, constraint_from_params(a, b, c, d))
        want = 0.5 * np.array(
            [
                [a + b + c - d, 0, 0, -a + b + c + d],
                [0, a - b + c + d, a + b - c + d, 0],
                [0, a + b - c + d, a - b + c + d, 0],
                [-a + b + c + d, 0, 0, a + b + c - d],
            ]
        )
        assert np.abs(got.constraint_matrix() - want).max() < 1e-10


def test_binary_transforms():
    report = binary_transform_check()
    assert report["z_case"] and report["h_case"]
    # negative control: a perturbed basis must fail
    wrong = Z_BASIS + np.array([[0.01, 0], [0, 0]])
    image = transform_binary_row(np.linalg.inv(wrong), NEQ2)
    assert not np.allclose(image, EQ2, atol=1e-12)


def test_functoriality_of_transforms():
    rng = np.random.default_rng(7)
    for _ in range(20):
        f = QuarticFunction(rng.normal(size=16) + 1j * rng.normal(size=16))
        t1 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        t2 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        lhs = holo_transform(t2, holo_transform(t1, f)).table
        rhs = holo_transform(t2 @ t1, f).table
        assert np.abs(lhs - rhs).max() < 1e-12 * max(1.0, np.abs(rhs).max())


def test_symmetric_tables_transform_real():
    rng = np.random.default_rng(11)
    raw = rng.uniform(-1, 1, 16)
    sym = np.array([(raw[i] + raw[i ^ 15]) / 2 for i in range(16)])
    image = kron_power(Z_BASIS, 4) @ sym.astype(complex)
    assert np.abs(image.imag).max() < 1e-10


def test_appendix_biconditional():
    for arity in (2, 4):
        report = appendix_lemma_check(100, arity, seed=arity)
        assert report["symmetric_pass"]
        assert report["nonsymmetric_pass"]


def test_appendix_arity2_hand_value():
    # (1, 2, 2, 1) is symmetric; its Z-image is real
    image = kron_power(Z_BASIS, 2) @ np.array([1, 2, 2, 1], dtype=complex)
    assert np.abs(image.imag).max() < 1e-12
    assert np.allclose(image.real, [3, 0, 0, 1])


def test_appendix_rejects_other_arities():
    with pytest.raises(ValueError):
        appendix_lemma_check(5, 3)
