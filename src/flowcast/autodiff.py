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
    "mul",
    "matmul",
    "transpose2",
    "softplus",
    "relu",
    "softmax_rows",
    "concat",
    "stack",
    "reshape",
    "flow_map",
    "fused",
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


def mul(a, b):
    av, bv = val(a), val(b)
    out = av * bv
    parents = []
    if isinstance(a, Var):
        parents.append((a, lambda g: _unbroadcast(g * bv, av.shape)))
    if isinstance(b, Var):
        parents.append((b, lambda g: _unbroadcast(g * av, bv.shape)))
    return _make(out, parents)


def _rows(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w`` for a (K, F) ``w`` and a (..., K) ``x``, the leading axes of ``x`` run as one (M, K) @ (K, F) product.

    A one-feature product (K = 1) goes through ``np.dot``, several times
    faster than ``@`` there; each element is one product, so it is the same
    number either way.
    """
    rows = x.reshape(-1, x.shape[-1])
    return (np.dot(rows, w) if w.shape[0] == 1 else rows @ w).reshape(x.shape[:-1] + w.shape[1:])


def _weight_grad(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The gradient of ``w`` in ``_rows(x, w)`` given the output's ``g``: every leading row of ``x`` against ``g``'s."""
    return x.reshape(-1, x.shape[-1]).T @ g.reshape(-1, g.shape[-1])


def matmul(a, b):
    """Matrix product ``a @ b`` where ``b`` is (K, F) and ``a`` is (..., K).

    The leading axes of ``a`` are flattened into one 2-D product
    (:func:`_rows`), so a stack of states costs one BLAS call and its rows
    round as they would in the 2-D product; the result is (..., F).
    """
    av, bv = val(a), val(b)
    if bv.ndim != 2:
        raise ValueError("matmul expects a 2-D right operand")
    parents = []
    if isinstance(a, Var):
        parents.append((a, lambda g: _rows(g, bv.T)))
    if isinstance(b, Var):
        parents.append((b, lambda g: _weight_grad(av, g)))
    return _make(_rows(av, bv), parents)


def transpose2(a):
    """Transpose of a 2-D array."""
    av = val(a)
    parents = [(a, lambda g: g.T)] if isinstance(a, Var) else []
    return _make(av.T, parents)


# ---------------------------------------------------------------------------
# elementwise nonlinearities
# ---------------------------------------------------------------------------


def _sigmoid_np(x: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(x))  # exp(-x) where x >= 0, exp(x) elsewhere: never overflows
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


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


# ---------------------------------------------------------------------------
# the composed flow map (its coefficients are constants by contract)
# ---------------------------------------------------------------------------


def flow_map(x, pht: np.ndarray, h_mat: np.ndarray, k_mat: np.ndarray, k_vec: np.ndarray):
    """A whole observation-space flow as one affine map, batched over windows.

    Every particle row ``x`` of window ``i`` moves to ``x + (x H^T K_i +
    k_i) PHt_i^T``, the flow's exact or Euler-composed map.  ``x`` has
    shape (B, P, D), ``pht`` (B, D, N), ``h_mat`` (N, D), ``k_mat`` (B, N, N)
    and ``k_vec`` (B, 1, N): no (D, D) matrix is formed.  ``K`` is not
    symmetric in general.  Gradients do not flow into the coefficients.
    """
    xv = val(x)
    xh = _rows(xv, h_mat.T)  # one product for every particle
    out = xv + (xh @ k_mat + k_vec) @ np.swapaxes(pht, 1, 2)
    if not isinstance(x, Var):
        return out

    def vjp(g):
        return g + ((g @ pht) @ np.swapaxes(k_mat, 1, 2)) @ h_mat

    return _make(out, [(x, vjp)])


# ---------------------------------------------------------------------------
# hand-derived ops over several inputs
# ---------------------------------------------------------------------------


def fused(out: np.ndarray, inputs: Sequence, vjp):
    """``out``, computed from ``inputs``, as one tape node whose gradients one call gives.

    ``vjp(g)`` returns one gradient per entry of ``inputs``, in order (any
    value for a constant input).  The backward pass calls it once, at the
    first taped input's turn, and hands every taped input its own entry:
    the several-input form of a hand-derived op such as :func:`flow_map`.
    If no input is a Var, ``out`` is returned as it is.
    """
    taped = [i for i, x in enumerate(inputs) if isinstance(x, Var)]
    held = {}  # this pass's gradients, until each taped input has taken its own

    def take(i):
        def grad(g):
            if not held:
                grads = vjp(g)
                held.update((j, grads[j]) for j in taped)
            return held.pop(i)

        return grad

    return _make(out, [(inputs[i], take(i)) for i in taped])
