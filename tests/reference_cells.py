"""The recurrent cells as composed tape ops: the reference for ``ssm._gru_cell``.

``node_mix``, ``sigmoid`` and ``tanh`` are the tape ops the cells were
composed of before each cell became one hand-derived node; the cells below
are that composition, op for op.
"""

import numpy as np

from flowcast import autodiff as ad
from flowcast.autodiff import Var, _make, _sigmoid_np, val


def node_mix(a, z):
    """``a @ z``: mix the node axis of ``z`` by ``a``, ``einsum('ij,...jf->...if', a, z)``.

    ``a`` is (N, N); ``z`` is (..., N, F).  Gradients flow into both:
    ``a^T @ g`` into ``z``, and into ``a`` the contraction of ``g`` with
    ``z`` over every axis but the node axis.
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


def gru_cell(u, h, params, layer: int):
    w = lambda name: params[f"l{layer}.{name}"]
    pre_r = ad.add(ad.add(ad.matmul(u, w("W_r")), ad.matmul(h, w("U_r"))), w("b_r"))
    pre_z = ad.add(ad.add(ad.matmul(u, w("W_z")), ad.matmul(h, w("U_z"))), w("b_z"))
    r = sigmoid(pre_r)
    z = sigmoid(pre_z)
    hr = ad.mul(r, h)
    pre_c = ad.add(ad.add(ad.matmul(u, w("W_c")), ad.matmul(hr, w("U_c"))), w("b_c"))
    c = tanh(pre_c)
    return ad.add(ad.mul(ad.add(1.0, ad.mul(-1.0, z)), h), ad.mul(z, c))


def graph_gru_cell(u, h, a_hat, params, layer: int):
    w = lambda gate, name: params[f"l{layer}.{gate}.{name}"]
    mixed_u, mixed_h = node_mix(a_hat, u), node_mix(a_hat, h)  # mixed over the graph once, for every gate

    def pre(gate, state, mixed_state):  # graph convolutions of u and the state, plus the gate's bias
        conv_u = ad.add(ad.matmul(mixed_u, w(gate, "Wu0")), ad.matmul(u, w(gate, "Wu1")))
        conv_h = ad.add(ad.matmul(mixed_state, w(gate, "Wh0")), ad.matmul(state, w(gate, "Wh1")))
        return ad.add(ad.add(conv_u, conv_h), params[f"l{layer}.b_{gate}"])

    r, z = sigmoid(pre("r", h, mixed_h)), sigmoid(pre("z", h, mixed_h))
    hr = ad.mul(r, h)
    c = tanh(pre("c", hr, node_mix(a_hat, hr)))
    return ad.add(ad.mul(ad.add(1.0, ad.mul(-1.0, z)), h), ad.mul(z, c))


def cell(u, h, params, layer: int, a_hat=None):
    """The composed cell with ``ssm._gru_cell``'s signature: a graph GRU when ``a_hat`` is given."""
    return gru_cell(u, h, params, layer) if a_hat is None else graph_gru_cell(u, h, a_hat, params, layer)
