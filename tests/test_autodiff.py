"""Reverse-mode tape: every op's gradient is checked against central
finite differences of its own forward evaluation, probed through ``<out, g>``
for a random ``g``."""

import numpy as np
import pytest

from flowcast import autodiff as ad
from gradient_probe import dot
from reference_cells import node_mix, sigmoid, tanh  # the ops the recurrent cells were composed of


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
    """build(var) -> Var; compares the tape gradient of ``<out, g>``, for a fixed random ``g``, to FD."""
    v = ad.Var(x0.copy())
    out = build(v)
    g = np.random.default_rng(99).standard_normal(out.value.shape)
    ad.backward(dot(out, g))
    got = v.grad

    def f(x):
        return float(np.sum(ad.val(build(ad.Var(x))) * g))

    want = _fd_grad(f, x0.copy())
    np.testing.assert_allclose(got, want, rtol=rtol, atol=atol)


@pytest.fixture
def x(rng):
    return rng.standard_normal((3, 4))


def test_add_mul_gradients(x, rng):
    other = rng.standard_normal((3, 4)) + 3.0
    _check(lambda v: ad.mul(ad.add(v, other), ad.add(v, -1.5)), x)
    _check(lambda v: ad.mul(other, v), x)
    _check(lambda v: ad.mul(v, v), x)


def test_broadcasting_add_reduces_gradient(rng):
    row = rng.standard_normal(4)
    full = rng.standard_normal((3, 4))
    v = ad.Var(row.copy())
    ad.backward(dot(ad.add(full, v), np.ones((3, 4))))
    np.testing.assert_allclose(v.grad, np.full(4, 3.0))


def test_matmul_gradients(rng):
    a0 = rng.standard_normal((3, 4))
    b0 = rng.standard_normal((4, 2))
    _check(lambda v: ad.matmul(v, b0), a0)
    _check(lambda v: ad.matmul(a0, v), b0)


def test_matmul_stacked_left_operand(rng):
    a0 = rng.standard_normal((2, 3, 5, 4))
    b0 = rng.standard_normal((4, 6))
    _check(lambda v: ad.matmul(v, b0), a0)
    _check(lambda v: ad.matmul(a0, v), b0)
    # the leading axes run as one 2-D product: forward and the VJP into a are
    # that product bit for bit, and numpy's stacked matmul to rounding
    g = rng.standard_normal((2, 3, 5, 6))
    a = ad.Var(a0)
    out = ad.matmul(a, b0)
    ad.backward(dot(out, g))
    for got, flat, stacked in [
        (out.value, (a0.reshape(-1, 4) @ b0).reshape(g.shape), np.matmul(a0, b0)),
        (a.grad, (g.reshape(-1, 6) @ b0.T).reshape(a0.shape), np.matmul(g, b0.T)),
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


def test_node_mix_gradients(rng):
    a0 = rng.standard_normal((3, 3))
    z0 = rng.standard_normal((2, 4, 3, 5))
    _check(lambda v: node_mix(v, z0), a0, atol=1e-6)
    _check(lambda v: node_mix(a0, v), z0, atol=1e-6)


@pytest.mark.parametrize("shape", [(7, 3, 1), (7, 3, 8), (1, 3, 8), (2, 4, 3, 1), (1, 4, 3, 8)])
def test_node_mix_matches_its_einsum_definition(rng, shape):
    # forward and both VJPs against the einsum formulas they replace, on 3-D
    # and 4-D stacks, one feature (the mixed input) or eight, a leading axis of one
    a0, z0, g = rng.standard_normal((3, 3)), rng.standard_normal(shape), rng.standard_normal(shape)
    a, z = ad.Var(a0), ad.Var(z0)
    out = node_mix(a, z)
    ad.backward(dot(out, g))
    n, f = shape[-2:]
    want_a = np.einsum("bif,bjf->ij", g.reshape(-1, n, f), z0.reshape(-1, n, f))
    for got, want in [
        (out.value, np.einsum("ij,...jf->...if", a0, z0)),
        (a.grad, want_a),
        (z.grad, np.einsum("ij,...if->...jf", a0, g)),
    ]:
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("op", [sigmoid, tanh, ad.softplus], ids=lambda f: f.__name__)
def test_elementwise_gradients(op, x):
    _check(op, x)


def test_relu_gradient_off_the_kink(rng):
    x0 = rng.standard_normal((3, 4))
    x0[np.abs(x0) < 0.1] += 0.5
    _check(ad.relu, x0)


def test_sigmoid_is_stable_at_large_inputs():
    big = sigmoid(ad.Var(np.array([800.0, -800.0])))
    np.testing.assert_allclose(ad.val(big), [1.0, 0.0], atol=1e-12)
    assert np.all(np.isfinite(ad.val(big)))


def test_sigmoid_matches_two_branch_formula_at_extremes():
    # 1 / (1 + exp(-x)) for x >= 0, exp(x) / (1 + exp(x)) below: neither branch overflows
    x = np.array([800.0, -800.0, 1e-300, -1e-300, 0.0, -0.0, 36.7, -36.7, 709.0, -745.0, np.inf, -np.inf, np.nan])
    with np.errstate(over="raise", invalid="raise"):
        got = ad.val(sigmoid(x))
    pos = x >= 0
    want = np.where(pos, 1.0 / (1.0 + np.exp(-np.where(pos, x, 0.0))), np.exp(np.where(pos, 0.0, x)) / (1.0 + np.exp(np.where(pos, 0.0, x))))
    np.testing.assert_array_equal(got, want)
    assert got[0] == 1.0 and got[1] == 0.0 and got[4] == got[5] == 0.5


def test_softplus_matches_logaddexp(rng):
    x0 = rng.standard_normal(5) * 20
    np.testing.assert_allclose(ad.val(ad.softplus(ad.Var(x0))), np.logaddexp(0.0, x0), rtol=1e-15)


def test_softmax_rows_gradient(rng):
    x0 = rng.standard_normal((3, 3))
    _check(ad.softmax_rows, x0)
    sm = ad.val(ad.softmax_rows(ad.Var(x0)))
    np.testing.assert_allclose(sm.sum(axis=-1), np.ones(3), rtol=1e-14)


def test_reshape_concat_stack_gradients(rng):
    x0 = rng.standard_normal((2, 6))
    _check(lambda v: ad.reshape(v, (3, 4)), x0)
    other = rng.standard_normal((2, 6))
    _check(lambda v: ad.concat([v, other], axis=1), x0)
    _check(lambda v: ad.stack([v, ad.mul(v, 2.0)], axis=0), x0)


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
    _check(lambda v: ad.flow_map(v, *coefficients), x0)


def _fused_product(a, b, calls):
    """``a @ b`` as one fused node; ``calls`` counts the VJP's calls."""
    av, bv = ad.val(a), ad.val(b)

    def vjp(g):
        calls.append(None)
        return [g @ bv.T, av.T @ g]

    return ad.fused(av @ bv, [a, b], vjp)


def test_fused_node_gradients(rng):
    a0, b0 = rng.standard_normal((3, 4)), rng.standard_normal((4, 2))
    _check(lambda v: _fused_product(v, b0, []), a0)
    _check(lambda v: _fused_product(a0, v, []), b0)
    assert isinstance(_fused_product(a0, b0, []), np.ndarray)  # no Var in, no node out


def test_fused_node_runs_its_vjp_once_per_backward_pass(rng):
    a, b, calls = ad.Var(rng.standard_normal((3, 4))), ad.Var(rng.standard_normal((4, 2))), []
    out = _fused_product(a, b, calls)
    g = rng.standard_normal((3, 2))
    loss = ad.add(dot(ad.mul(out, out), g), dot(out, g))  # two paths into the node, one VJP call
    ad.backward(loss)
    assert len(calls) == 1
    first = a.grad.copy(), b.grad.copy()
    nodes = [loss]
    for node in nodes:  # clear the tape, then run a second pass: the VJP runs again
        node.grad = None
        nodes.extend(parent for parent, _ in node._parents)
    ad.backward(loss)
    assert len(calls) == 2
    np.testing.assert_array_equal(a.grad, first[0])
    np.testing.assert_array_equal(b.grad, first[1])


def test_gradient_accumulates_across_reuse(rng):
    x0 = rng.standard_normal(4)
    v = ad.Var(x0.copy())
    ad.backward(dot(ad.add(ad.mul(v, v), ad.mul(3.0, v)), np.ones(4)))
    np.testing.assert_allclose(v.grad, 2 * x0 + 3.0, rtol=1e-12)


def test_backward_only_touches_reachable_nodes(rng):
    v = ad.Var(rng.standard_normal(3))
    unused = ad.Var(rng.standard_normal(3))
    ad.backward(dot(ad.mul(v, v), np.ones(3)))
    assert unused.grad is None


def test_deep_chain_does_not_recurse(rng):
    v = ad.Var(np.array([1.0]))
    node = v
    for _ in range(5000):
        node = ad.add(node, 0.001)
    ad.backward(dot(node, np.ones(1)))
    np.testing.assert_allclose(v.grad, [1.0])


def test_composite_gru_like_expression(rng):
    w0 = rng.standard_normal((3, 3)) * 0.4
    x0 = rng.standard_normal((5, 3))

    def build(v):
        h = tanh(ad.matmul(x0, v))
        gate = sigmoid(ad.matmul(x0, v))
        return ad.add(ad.mul(gate, h), ad.mul(ad.add(1.0, ad.mul(-1.0, gate)), x0))

    _check(build, w0, rtol=1e-5)
