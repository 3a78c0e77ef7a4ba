"""Minimal eager reverse-mode automatic differentiation over numpy arrays.

A :class:`Var` wraps an ``ndarray`` and remembers how it was produced;
:func:`backward` walks the recorded graph once in reverse topological
order and accumulates vector-Jacobian products into ``.grad``.

Every op in this module accepts a mix of :class:`Var` and plain
arrays/scalars.  Plain inputs are treated as constants; if *no* argument
is a :class:`Var` the op short-circuits to plain numpy and returns an
``ndarray``, so the same forward code serves both the differentiated
training path and fast inference.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "Var",
    "val",
    "backward",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "matmul",
    "transpose2",
    "node_mix",
    "sigmoid",
    "tanh",
    "softplus",
    "relu",
    "log",
    "square",
    "abs_",
    "sum_",
    "mean_",
    "logsumexp",
    "softmax_rows",
    "concat",
    "stack",
    "reshape",
    "gather",
    "flow_map",
]


class Var:
    """A node in the computation graph: a value plus its provenance."""

    __slots__ = ("value", "_parents", "grad")

    def __init__(self, value, parents=()):
        self.value = np.asarray(value, dtype=np.float64)
        self._parents = parents  # tuple of (Var, vjp callable)
        self.grad = None


def val(x) -> np.ndarray:
    """The underlying array of ``x`` whether or not it is a Var."""
    if isinstance(x, Var):
        return x.value
    return np.asarray(x, dtype=np.float64)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _make(out, parents):
    if not parents:
        return out
    return Var(out, tuple(parents))


def backward(root: Var) -> None:
    """Accumulate gradients of a scalar ``root`` into every ancestor's ``.grad``."""
    if root.value.ndim != 0:
        raise ValueError("backward() expects a scalar root")
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent, _ in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    root.grad = np.ones_like(root.value)
    for node in reversed(order):
        g = node.grad
        if g is None:
            continue
        for parent, vjp in node._parents:
            pg = vjp(g)
            parent.grad = pg if parent.grad is None else parent.grad + pg


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------


def add(a, b):
    av, bv = val(a), val(b)
    out = av + bv
    parents = []
    if isinstance(a, Var):
        parents.append((a, lambda g: _unbroadcast(g, av.shape)))
    if isinstance(b, Var):
        parents.append((b, lambda g: _unbroadcast(g, bv.shape)))
    return _make(out, parents)


def sub(a, b):
    av, bv = val(a), val(b)
    out = av - bv
    parents = []
    if isinstance(a, Var):
        parents.append((a, lambda g: _unbroadcast(g, av.shape)))
    if isinstance(b, Var):
        parents.append((b, lambda g: _unbroadcast(-g, bv.shape)))
    return _make(out, parents)


def mul(a, b):
    av, bv = val(a), val(b)
    out = av * bv
    parents = []
    if isinstance(a, Var):
        parents.append((a, lambda g: _unbroadcast(g * bv, av.shape)))
    if isinstance(b, Var):
        parents.append((b, lambda g: _unbroadcast(g * av, bv.shape)))
    return _make(out, parents)


def div(a, b):
    av, bv = val(a), val(b)
    out = av / bv
    parents = []
    if isinstance(a, Var):
        parents.append((a, lambda g: _unbroadcast(g / bv, av.shape)))
    if isinstance(b, Var):
        parents.append((b, lambda g: _unbroadcast(-g * av / (bv * bv), bv.shape)))
    return _make(out, parents)


def neg(a):
    av = val(a)
    parents = [(a, lambda g: -g)] if isinstance(a, Var) else []
    return _make(-av, parents)


def matmul(a, b):
    """Matrix product ``a @ b`` where ``b`` is 2-D and ``a`` may be stacked."""
    av, bv = val(a), val(b)
    if bv.ndim != 2:
        raise ValueError("matmul expects a 2-D right operand")
    out = av @ bv
    parents = []
    if isinstance(a, Var):
        parents.append((a, lambda g: g @ bv.T))
    if isinstance(b, Var):
        k = av.shape[-1]

        def vjp_b(g):
            return av.reshape(-1, k).T @ g.reshape(-1, g.shape[-1])

        parents.append((b, vjp_b))
    return _make(out, parents)


def transpose2(a):
    """Transpose of a 2-D array."""
    av = val(a)
    parents = [(a, lambda g: g.T)] if isinstance(a, Var) else []
    return _make(av.T, parents)


def node_mix(a, z):
    """``a @ z``: mix the node axis of ``z`` by ``a``, ``einsum('ij,...jf->...if', a, z)``.

    ``a`` is (N, N); ``z`` is (..., N, F).  Gradients flow into both:
    ``a^T @ g`` into ``z``, and into ``a`` the contraction of ``g`` with
    ``z`` over every axis but the node axis.  On a graph-GRU state stack
    the stacked ``matmul`` runs several times faster than ``einsum`` and
    agrees with it to rounding.
    """
    av, zv = val(a), val(z)
    out = np.matmul(av, zv)
    parents = []
    if isinstance(a, Var):
        others = [ax for ax in range(zv.ndim) if ax != zv.ndim - 2]  # the stacked and feature axes
        parents.append((a, lambda g: np.tensordot(g, zv, axes=(others, others))))
    if isinstance(z, Var):
        parents.append((z, lambda g: np.matmul(av.T, g)))
    return _make(out, parents)


# ---------------------------------------------------------------------------
# elementwise nonlinearities
# ---------------------------------------------------------------------------


def _sigmoid_np(x: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(x))  # exp(-x) where x >= 0, exp(x) elsewhere: never overflows
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def sigmoid(a):
    av = val(a)
    s = _sigmoid_np(av)
    parents = [(a, lambda g: g * s * (1.0 - s))] if isinstance(a, Var) else []
    return _make(s, parents)


def tanh(a):
    av = val(a)
    t = np.tanh(av)
    parents = [(a, lambda g: g * (1.0 - t * t))] if isinstance(a, Var) else []
    return _make(t, parents)


def softplus(a):
    av = val(a)
    out = np.logaddexp(0.0, av)
    if isinstance(a, Var):
        s = _sigmoid_np(av)
        return _make(out, [(a, lambda g: g * s)])
    return out


def relu(a):
    av = val(a)
    out = np.maximum(av, 0.0)
    parents = [(a, lambda g: g * (av > 0.0))] if isinstance(a, Var) else []
    return _make(out, parents)


def log(a):
    av = val(a)
    out = np.log(av)
    parents = [(a, lambda g: g / av)] if isinstance(a, Var) else []
    return _make(out, parents)


def square(a):
    av = val(a)
    parents = [(a, lambda g: g * 2.0 * av)] if isinstance(a, Var) else []
    return _make(av * av, parents)


def abs_(a):
    av = val(a)
    parents = [(a, lambda g: g * np.sign(av))] if isinstance(a, Var) else []
    return _make(np.abs(av), parents)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def _restore_axes(g: np.ndarray, shape: tuple, axis, keepdims: bool) -> np.ndarray:
    if axis is None:
        return np.broadcast_to(g, shape)
    if not keepdims:
        axes = axis if isinstance(axis, tuple) else (axis,)
        axes = tuple(a % len(shape) for a in axes)
        for a in sorted(axes):
            g = np.expand_dims(g, a)
    return np.broadcast_to(g, shape)


def sum_(a, axis=None, keepdims=False):
    av = val(a)
    out = av.sum(axis=axis, keepdims=keepdims)
    if not isinstance(a, Var):
        return out
    shape = av.shape
    return _make(out, [(a, lambda g: _restore_axes(g, shape, axis, keepdims))])


def mean_(a, axis=None, keepdims=False):
    av = val(a)
    out = av.mean(axis=axis, keepdims=keepdims)
    if not isinstance(a, Var):
        return out
    shape = av.shape
    count = av.size
    if axis is not None:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = int(np.prod([shape[x % len(shape)] for x in axes]))
    return _make(out, [(a, lambda g: _restore_axes(g / count, shape, axis, keepdims))])


def logsumexp(a, axis):
    av = val(a)
    m = np.max(av, axis=axis, keepdims=True)
    shifted = np.exp(av - m)
    total = shifted.sum(axis=axis, keepdims=True)
    out = np.squeeze(m + np.log(total), axis=axis)
    if not isinstance(a, Var):
        return out
    soft = shifted / total

    def vjp(g):
        return np.expand_dims(g, axis) * soft

    return _make(out, [(a, vjp)])


def softmax_rows(a):
    """Softmax along the last axis."""
    av = val(a)
    m = np.max(av, axis=-1, keepdims=True)
    e = np.exp(av - m)
    out = e / e.sum(axis=-1, keepdims=True)
    if not isinstance(a, Var):
        return out

    def vjp(g):
        dot = np.sum(g * out, axis=-1, keepdims=True)
        return out * (g - dot)

    return _make(out, [(a, vjp)])


# ---------------------------------------------------------------------------
# shape surgery
# ---------------------------------------------------------------------------


def reshape(a, shape):
    av = val(a)
    out = av.reshape(shape)
    if not isinstance(a, Var):
        return out
    orig = av.shape
    return _make(out, [(a, lambda g: g.reshape(orig))])


def concat(parts: Sequence, axis=0):
    vals = [val(p) for p in parts]
    out = np.concatenate(vals, axis=axis)
    parents = []
    offset = 0
    for p, v in zip(parts, vals):
        width = v.shape[axis]
        if isinstance(p, Var):
            lo, hi = offset, offset + width

            def vjp(g, lo=lo, hi=hi):
                slicer = [slice(None)] * g.ndim
                slicer[axis] = slice(lo, hi)
                return g[tuple(slicer)]

            parents.append((p, vjp))
        offset += width
    return _make(out, parents)


def stack(parts: Sequence, axis=0):
    vals = [val(p) for p in parts]
    out = np.stack(vals, axis=axis)
    parents = []
    for i, p in enumerate(parts):
        if isinstance(p, Var):
            parents.append((p, lambda g, i=i: np.take(g, i, axis=axis)))
    return _make(out, parents)


def gather(a, indices: np.ndarray, axis: int):
    """``np.take_along_axis`` with a constant index array."""
    av = val(a)
    out = np.take_along_axis(av, indices, axis=axis)
    if not isinstance(a, Var):
        return out
    shape = av.shape

    def vjp(g):
        z = np.zeros(shape, dtype=g.dtype)
        mesh = list(np.indices(g.shape, sparse=False))
        mesh[axis] = np.broadcast_to(indices, g.shape)
        np.add.at(z, tuple(mesh), g)
        return z

    return _make(out, [(a, vjp)])


# ---------------------------------------------------------------------------
# the composed flow map (its coefficients are constants by contract)
# ---------------------------------------------------------------------------


def flow_map(x, pht: np.ndarray, h_mat: np.ndarray, k_mat: np.ndarray, k_vec: np.ndarray):
    """A whole observation-space flow as one affine map, batched over windows.

    Every particle row ``x`` of window ``i`` moves to ``x + (x H^T K_i +
    k_i) PHt_i^T``, the composition of the flow's Euler steps.  ``x`` has
    shape (B, P, D), ``pht`` (B, D, N), ``h_mat`` (N, D), ``k_mat`` (B, N, N)
    and ``k_vec`` (B, 1, N): no (D, D) matrix is formed.  ``K`` is not
    symmetric in general.  Gradients do not flow into the coefficients.
    """
    xv = val(x)
    b_sz, n_p, d = xv.shape
    xh = (xv.reshape(b_sz * n_p, d) @ h_mat.T).reshape(b_sz, n_p, -1)  # one product for every particle
    out = xv + (xh @ k_mat + k_vec) @ np.swapaxes(pht, 1, 2)
    if not isinstance(x, Var):
        return out

    def vjp(g):
        return g + ((g @ pht) @ np.swapaxes(k_mat, 1, 2)) @ h_mat

    return _make(out, [(x, vjp)])
