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


@pytest.mark.parametrize(
    "op",
    [ad.sigmoid, ad.tanh, ad.softplus, ad.exp, ad.square, ad.abs_],
    ids=lambda f: f.__name__,
)
def test_elementwise_gradients(op, x):
    shift = x + (3.0 if op is ad.abs_ else 0.0)  # keep |.| away from the kink
    _check(lambda v: ad.sum_(op(v)), shift)


def test_relu_gradient_off_the_kink(rng):
    x0 = rng.standard_normal((3, 4))
    x0[np.abs(x0) < 0.1] += 0.5
    _check(lambda v: ad.sum_(ad.relu(v)), x0)


def test_log_sqrt_gradients(rng):
    x0 = rng.uniform(0.5, 3.0, (3, 4))
    _check(lambda v: ad.sum_(ad.log(v)), x0)
    _check(lambda v: ad.sum_(ad.sqrt(v)), x0)


def test_sigmoid_is_stable_at_large_inputs():
    big = ad.sigmoid(ad.Var(np.array([800.0, -800.0])))
    np.testing.assert_allclose(ad.val(big), [1.0, 0.0], atol=1e-12)
    assert np.all(np.isfinite(ad.val(big)))


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


def test_flow_step_matches_affine_formula(rng):
    x = rng.standard_normal((2, 4, 3))
    a = rng.standard_normal((2, 3, 3))
    b = rng.standard_normal((2, 3))
    got = ad.flow_step(x, a, b, 0.25)
    for i in range(2):
        np.testing.assert_allclose(got[i], x[i] + 0.25 * (x[i] @ a[i].T + b[i]), rtol=1e-14)


def test_flow_step_zero_eps_is_identity(rng):
    x = rng.standard_normal((2, 4, 3))
    got = ad.flow_step(x, rng.standard_normal((2, 3, 3)), rng.standard_normal((2, 3)), 0.0)
    np.testing.assert_array_equal(got, x)


def test_flow_step_gradient_treats_coefficients_as_constant(rng):
    x0 = rng.standard_normal((2, 3, 4))
    a = rng.standard_normal((2, 4, 4))
    b = rng.standard_normal((2, 4))
    _check(lambda v: ad.sum_(ad.square(ad.flow_step(v, a, b, 0.13))), x0)


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
