"""The shared numeric pieces: the stacked product and its weight gradient,
the overflow-free sigmoid, and the composed flow map with its VJP, checked
against central finite differences for a random probe ``g``."""

import numpy as np
import pytest

from flowcast import autodiff as ad


def _fd_grad(f, x, eps=1e-6):
    """Central-difference gradient of scalar f at array x."""
    g = np.zeros_like(x, dtype=float)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(x)
        flat[i] = orig - eps
        lo = f(x)
        flat[i] = orig
        gf[i] = (hi - lo) / (2 * eps)
    return g


def test_matmul_gradients(rng):
    # the VJPs of a _rows product: _rows(g, w^T) into x, _weight_grad(x, g) into w
    x0 = rng.standard_normal((2, 3, 4))
    w0 = rng.standard_normal((4, 2))
    g = rng.standard_normal((2, 3, 2))
    np.testing.assert_allclose(ad._rows(g, w0.T), _fd_grad(lambda x: np.sum(ad._rows(x, w0) * g), x0.copy()), rtol=1e-6, atol=1e-8)
    np.testing.assert_allclose(ad._weight_grad(x0, g), _fd_grad(lambda w: np.sum(ad._rows(x0, w) * g), w0.copy()), rtol=1e-6, atol=1e-8)


def test_matmul_stacked_left_operand(rng):
    # the leading axes run as one 2-D product: the product and its weight
    # gradient are that product bit for bit, and numpy's stacked matmul to rounding
    a0 = rng.standard_normal((2, 3, 5, 4))
    b0 = rng.standard_normal((4, 6))
    g = rng.standard_normal((2, 3, 5, 6))
    for got, flat, stacked in [
        (ad._rows(a0, b0), (a0.reshape(-1, 4) @ b0).reshape(g.shape), np.matmul(a0, b0)),
        (ad._weight_grad(a0, g), a0.reshape(-1, 4).T @ g.reshape(-1, 6), np.tensordot(a0, g, axes=([0, 1, 2], [0, 1, 2]))),
    ]:
        np.testing.assert_array_equal(got, flat)
        np.testing.assert_allclose(got, stacked, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("shape", [(64, 1), (37, 10, 5, 1), (3, 100, 1)])
def test_one_feature_rows_product_is_matmul_bit_for_bit(rng, shape):
    # K = 1 (the layer-0 input u without covariates) runs through np.dot: the same numbers as @
    x = rng.standard_normal(shape)
    w = rng.standard_normal((1, 7))
    got = ad._rows(x, w)
    assert got.shape == shape[:-1] + (7,)
    assert got.tobytes() == (x.reshape(-1, 1) @ w).reshape(got.shape).tobytes()
    assert got.tobytes() == np.matmul(x, w).tobytes()


def test_sigmoid_is_stable_at_large_inputs():
    big = ad._sigmoid_np(np.array([800.0, -800.0]))
    np.testing.assert_allclose(big, [1.0, 0.0], atol=1e-12)
    assert np.all(np.isfinite(big))


def test_sigmoid_matches_two_branch_formula_at_extremes():
    # 1 / (1 + exp(-x)) for x >= 0, exp(x) / (1 + exp(x)) below: neither branch overflows
    x = np.array([800.0, -800.0, 1e-300, -1e-300, 0.0, -0.0, 36.7, -36.7, 709.0, -745.0, np.inf, -np.inf, np.nan])
    with np.errstate(over="raise", invalid="raise"):
        got = ad._sigmoid_np(x)
    pos = x >= 0
    want = np.where(pos, 1.0 / (1.0 + np.exp(-np.where(pos, x, 0.0))), np.exp(np.where(pos, 0.0, x)) / (1.0 + np.exp(np.where(pos, 0.0, x))))
    np.testing.assert_array_equal(got, want)
    assert got[0] == 1.0 and got[1] == 0.0 and got[4] == got[5] == 0.5


def _where_sigmoid(x):
    """The sigmoid as one ``np.where`` over ``exp(-|x|)``: the reference ``_sigmoid_np`` must equal bit for bit."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def test_sigmoid_is_the_where_formula_bit_for_bit(rng):
    edges = np.array([0.0, 5e-324, 1e-300, 1.0, 36.0, 709.0, 745.0, np.inf])
    x = np.concatenate([edges, -edges, [np.nan], 30.0 * rng.standard_normal(2000)])
    got = ad._sigmoid_np(x)
    want = _where_sigmoid(x)
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
    assert got[~np.isnan(got)].tobytes() == want[~np.isnan(want)].tobytes()
    kept = x.copy()
    ad._sigmoid_np(x)
    assert x.tobytes() == kept.tobytes()  # the input is left as it is


def _flow_map_coefficients(rng, b_sz=2, d=5, n=3):
    """Random (PHt, H, K, k) with N < D; K is not symmetric, as a flow with varying r composes it."""
    pht = rng.standard_normal((b_sz, d, n))
    h = rng.standard_normal((n, d))
    k_mat = rng.standard_normal((b_sz, n, n))
    k_vec = rng.standard_normal((b_sz, 1, n))
    return pht, h, k_mat, k_vec


def test_flow_map_matches_affine_formula(rng):
    x = rng.standard_normal((2, 4, 5))
    pht, h, k_mat, k_vec = _flow_map_coefficients(rng)
    got = ad.flow_map(x, pht, h, k_mat, k_vec)
    for i in range(2):
        a = pht[i] @ k_mat[i].T @ h  # the dense map x (I + A^T) + b
        b = k_vec[i, 0] @ pht[i].T
        np.testing.assert_allclose(got[i], x[i] + x[i] @ a.T + b, rtol=1e-13)


def test_flow_map_zero_map_is_identity(rng):
    x = rng.standard_normal((2, 4, 5))
    pht, h, k_mat, k_vec = _flow_map_coefficients(rng)
    got = ad.flow_map(x, pht, h, np.zeros_like(k_mat), np.zeros_like(k_vec))
    np.testing.assert_array_equal(got, x)


def test_flow_map_gradient_treats_map_as_constant(rng):
    # a non-symmetric K catches a missing transpose in the VJP
    x0 = rng.standard_normal((2, 3, 5))
    pht, h, k_mat, k_vec = _flow_map_coefficients(rng)
    assert np.max(np.abs(k_mat - np.swapaxes(k_mat, 1, 2))) > 0.1
    g = rng.standard_normal(x0.shape)
    want = _fd_grad(lambda x: np.sum(ad.flow_map(x, pht, h, k_mat, k_vec) * g), x0.copy())
    np.testing.assert_allclose(ad.flow_map_vjp(g, pht, h, k_mat), want, rtol=1e-6, atol=1e-8)
