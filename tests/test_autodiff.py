"""Reverse-mode tape: every op's gradient is checked against central
finite differences of its own forward evaluation."""

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


def _check(build, x0, rtol=1e-6, atol=1e-8):
    """build(var) -> scalar Var; compares tape gradient to FD."""
    v = ad.Var(x0.copy())
    out = build(v)
    ad.backward(out)
    got = v.grad

    def f(x):
        return float(ad.val(build(ad.Var(x))))

    want = _fd_grad(f, x0.copy())
    np.testing.assert_allclose(got, want, rtol=rtol, atol=atol)


@pytest.fixture
def x(rng):
    return rng.standard_normal((3, 4))


def test_add_sub_mul_div_gradients(x, rng):
    other = rng.standard_normal((3, 4)) + 3.0
    _check(lambda v: ad.sum_(ad.mul(ad.add(v, other), ad.sub(v, 1.5))), x)
    _check(lambda v: ad.sum_(ad.div(v, other)), x)
    _check(lambda v: ad.sum_(ad.div(other, ad.add(v, 10.0))), x)


def test_broadcasting_add_reduces_gradient(rng):
    row = rng.standard_normal(4)
    full = rng.standard_normal((3, 4))
    v = ad.Var(row.copy())
    out = ad.sum_(ad.add(full, v))
    ad.backward(out)
    np.testing.assert_allclose(v.grad, np.full(4, 3.0))


def test_matmul_gradients(rng):
    a0 = rng.standard_normal((3, 4))
    b0 = rng.standard_normal((4, 2))
    _check(lambda v: ad.sum_(ad.matmul(v, b0)), a0)
    _check(lambda v: ad.sum_(ad.matmul(a0, v)), b0)


def test_matmul_stacked_left_operand(rng):
    a0 = rng.standard_normal((2, 5, 3))
    b0 = rng.standard_normal((3, 4))
    _check(lambda v: ad.sum_(ad.square(ad.matmul(v, b0))), a0)
    _check(lambda v: ad.sum_(ad.square(ad.matmul(a0, v))), b0)


def test_node_mix_gradients(rng):
    a0 = rng.standard_normal((3, 3))
    z0 = rng.standard_normal((2, 4, 3, 5))
    _check(lambda v: ad.sum_(ad.square(ad.node_mix(v, z0))), a0, atol=1e-6)
    _check(lambda v: ad.sum_(ad.square(ad.node_mix(a0, v))), z0, atol=1e-6)


@pytest.mark.parametrize("shape", [(7, 3, 1), (7, 3, 8), (1, 3, 8), (2, 4, 3, 1), (1, 4, 3, 8)])
def test_node_mix_matches_its_einsum_definition(rng, shape):
    # forward and both VJPs against the einsum formulas they replace, on 3-D
    # and 4-D stacks, one feature (the mixed input) or eight, a leading axis of one
    a0, z0, g = rng.standard_normal((3, 3)), rng.standard_normal(shape), rng.standard_normal(shape)
    a, z = ad.Var(a0), ad.Var(z0)
    out = ad.node_mix(a, z)
    ad.backward(ad.sum_(ad.mul(out, g)))
    n, f = shape[-2:]
    want_a = np.einsum("bif,bjf->ij", g.reshape(-1, n, f), z0.reshape(-1, n, f))
    for got, want in [
        (out.value, np.einsum("ij,...jf->...if", a0, z0)),
        (a.grad, want_a),
        (z.grad, np.einsum("ij,...if->...jf", a0, g)),
    ]:
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize(
    "op",
    [ad.sigmoid, ad.tanh, ad.softplus, ad.square, ad.abs_],
    ids=lambda f: f.__name__,
)
def test_elementwise_gradients(op, x):
    shift = x + (3.0 if op is ad.abs_ else 0.0)  # keep |.| away from the kink
    _check(lambda v: ad.sum_(op(v)), shift)


def test_relu_gradient_off_the_kink(rng):
    x0 = rng.standard_normal((3, 4))
    x0[np.abs(x0) < 0.1] += 0.5
    _check(lambda v: ad.sum_(ad.relu(v)), x0)


def test_log_gradients(rng):
    x0 = rng.uniform(0.5, 3.0, (3, 4))
    _check(lambda v: ad.sum_(ad.log(v)), x0)


def test_sigmoid_is_stable_at_large_inputs():
    big = ad.sigmoid(ad.Var(np.array([800.0, -800.0])))
    np.testing.assert_allclose(ad.val(big), [1.0, 0.0], atol=1e-12)
    assert np.all(np.isfinite(ad.val(big)))


def test_sigmoid_matches_two_branch_formula_at_extremes():
    # 1 / (1 + exp(-x)) for x >= 0, exp(x) / (1 + exp(x)) below: neither branch overflows
    x = np.array([800.0, -800.0, 1e-300, -1e-300, 0.0, -0.0, 36.7, -36.7, 709.0, -745.0, np.inf, -np.inf, np.nan])
    with np.errstate(over="raise", invalid="raise"):
        got = ad.val(ad.sigmoid(x))
    pos = x >= 0
    want = np.where(pos, 1.0 / (1.0 + np.exp(-np.where(pos, x, 0.0))), np.exp(np.where(pos, 0.0, x)) / (1.0 + np.exp(np.where(pos, 0.0, x))))
    np.testing.assert_array_equal(got, want)
    assert got[0] == 1.0 and got[1] == 0.0 and got[4] == got[5] == 0.5


def test_softplus_matches_logaddexp(rng):
    x0 = rng.standard_normal(5) * 20
    np.testing.assert_allclose(ad.val(ad.softplus(ad.Var(x0))), np.logaddexp(0.0, x0), rtol=1e-15)


def test_mean_and_axis_reductions(x):
    _check(lambda v: ad.mean_(ad.square(v)), x)
    _check(lambda v: ad.sum_(ad.mean_(v, axis=0)), x)
    _check(lambda v: ad.sum_(ad.square(ad.sum_(v, axis=1, keepdims=True))), x)


def test_logsumexp_gradient_and_stability(rng):
    x0 = rng.standard_normal((4, 3))
    _check(lambda v: ad.sum_(ad.logsumexp(v, axis=1)), x0)
    huge = ad.logsumexp(ad.Var(np.array([[1000.0, 1000.0]])), axis=1)
    np.testing.assert_allclose(ad.val(huge), [1000.0 + np.log(2.0)], rtol=1e-15)


def test_softmax_rows_gradient(rng):
    x0 = rng.standard_normal((3, 3))
    _check(lambda v: ad.sum_(ad.square(ad.softmax_rows(v))), x0)
    sm = ad.val(ad.softmax_rows(ad.Var(x0)))
    np.testing.assert_allclose(sm.sum(axis=-1), np.ones(3), rtol=1e-14)


def test_reshape_concat_stack_gradients(rng):
    x0 = rng.standard_normal((2, 6))
    _check(lambda v: ad.sum_(ad.square(ad.reshape(v, (3, 4)))), x0)
    other = rng.standard_normal((2, 6))
    _check(lambda v: ad.sum_(ad.square(ad.concat([v, other], axis=1))), x0)
    _check(lambda v: ad.sum_(ad.square(ad.stack([v, ad.mul(v, 2.0)], axis=0))), x0)


def test_gather_gradient_accumulates_duplicates(rng):
    x0 = rng.standard_normal((4, 3))
    idx = np.array([[1, 1, 0]])
    v = ad.Var(x0.copy())
    out = ad.sum_(ad.gather(v, idx, axis=0))
    ad.backward(out)
    want = np.zeros_like(x0)
    want[1, 0] += 1.0
    want[1, 1] += 1.0
    want[0, 2] += 1.0
    np.testing.assert_allclose(v.grad, want)


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
    coefficients = _flow_map_coefficients(rng)
    assert np.max(np.abs(coefficients[2] - np.swapaxes(coefficients[2], 1, 2))) > 0.1
    _check(lambda v: ad.sum_(ad.square(ad.flow_map(v, *coefficients))), x0)


def test_gradient_accumulates_across_reuse(rng):
    x0 = rng.standard_normal(4)
    v = ad.Var(x0.copy())
    out = ad.sum_(ad.add(ad.mul(v, v), ad.mul(3.0, v)))
    ad.backward(out)
    np.testing.assert_allclose(v.grad, 2 * x0 + 3.0, rtol=1e-12)


def test_backward_only_touches_reachable_nodes(rng):
    v = ad.Var(rng.standard_normal(3))
    unused = ad.Var(rng.standard_normal(3))
    out = ad.sum_(ad.square(v))
    ad.backward(out)
    assert unused.grad is None


def test_deep_chain_does_not_recurse(rng):
    v = ad.Var(np.array([1.0]))
    node = v
    for _ in range(5000):
        node = ad.add(node, 0.001)
    ad.backward(ad.sum_(node))
    np.testing.assert_allclose(v.grad, [1.0])


def test_composite_gru_like_expression(rng):
    w0 = rng.standard_normal((3, 3)) * 0.4
    x0 = rng.standard_normal((5, 3))

    def build(v):
        h = ad.tanh(ad.matmul(x0, v))
        gate = ad.sigmoid(ad.matmul(x0, v))
        mixed = ad.add(ad.mul(gate, h), ad.mul(ad.sub(1.0, gate), x0))
        return ad.mean_(ad.square(mixed))

    _check(build, w0, rtol=1e-5)
