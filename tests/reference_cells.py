"""The recurrent cells composed of plain numpy steps: the reference for ``ssm._gru_cell``.

Each cell runs the products ``ssm._gru_cell`` runs, in the same order
(``_rows`` for every weight, ``np.matmul`` for the node mixing), so the
forward values must be bit for bit these; the cell's VJP is checked against
central differences of these.
"""

import numpy as np

from flowcast.autodiff import _rows, _sigmoid_np


def gru_cell(u, h, params, layer: int):
    w = lambda name: params[f"l{layer}.{name}"]
    r = _sigmoid_np((_rows(u, w("W_r")) + _rows(h, w("U_r"))) + w("b_r"))
    z = _sigmoid_np((_rows(u, w("W_z")) + _rows(h, w("U_z"))) + w("b_z"))
    c = np.tanh((_rows(u, w("W_c")) + _rows(r * h, w("U_c"))) + w("b_c"))
    return (1.0 - z) * h + z * c


def graph_gru_cell(u, h, a_hat, params, layer: int):
    w = lambda gate, name: params[f"l{layer}.{gate}.{name}"]
    mixed_u, mixed_h = np.matmul(a_hat, u), np.matmul(a_hat, h)  # mixed over the graph once, for every gate

    def pre(gate, state, mixed_state):  # graph convolutions of u and the state, plus the gate's bias
        conv_u = _rows(mixed_u, w(gate, "Wu0")) + _rows(u, w(gate, "Wu1"))
        conv_h = _rows(mixed_state, w(gate, "Wh0")) + _rows(state, w(gate, "Wh1"))
        return (conv_u + conv_h) + params[f"l{layer}.b_{gate}"]

    r, z = _sigmoid_np(pre("r", h, mixed_h)), _sigmoid_np(pre("z", h, mixed_h))
    hr = r * h
    c = np.tanh(pre("c", hr, np.matmul(a_hat, hr)))
    return (1.0 - z) * h + z * c


def cell(u, h, params, layer: int, a_hat=None, with_vjp=True):
    """The composed cell with ``ssm._gru_cell``'s signature (a graph GRU when ``a_hat`` is given); it has no VJP either way."""
    out = gru_cell(u, h, params, layer) if a_hat is None else graph_gru_cell(u, h, a_hat, params, layer)
    return out, None
