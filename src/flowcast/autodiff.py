"""The numeric pieces the forward pass and its hand-written reverse pass share.

There is no tape: :func:`train.gradients` walks the steps
:func:`train.batch_forward` ran in reverse, calling the VJP each piece
returned.  This module holds what several of them multiply with:
:func:`_rows` (a stacked product), :func:`_weight_grad` (its weight's
gradient), a sigmoid that never overflows, and the composed flow map with
its VJP.
"""

from __future__ import annotations

import numpy as np

__all__ = ["flow_map", "flow_map_vjp"]


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


def _sigmoid_np(x: np.ndarray) -> np.ndarray:
    """``exp(min(x, 0)) / (1 + exp(-|x|))``, which never overflows, in two buffers; ``x`` is left as it is.

    Where ``x >= 0`` the numerator is ``exp(0)``, exactly 1, and elsewhere
    ``exp(x)`` is the denominator's ``exp(-|x|)``.
    """
    den = np.abs(x)
    np.negative(den, out=den)
    np.exp(den, out=den)
    den += 1.0
    out = np.minimum(x, 0.0)
    np.exp(out, out=out)
    out /= den
    return out


def flow_map(x: np.ndarray, pht: np.ndarray, h_mat: np.ndarray, k_mat: np.ndarray, k_vec: np.ndarray) -> np.ndarray:
    """A whole observation-space flow as one affine map, batched over windows.

    Every particle row ``x`` of window ``i`` moves to ``x + (x H^T K_i +
    k_i) PHt_i^T``, the flow's exact or Euler-composed map.  ``x`` has
    shape (B, P, D), ``pht`` (B, D, N), ``h_mat`` (N, D), ``k_mat`` (B, N, N)
    and ``k_vec`` (B, 1, N): no (D, D) matrix is formed.  ``K`` is not
    symmetric in general.
    """
    xh = _rows(x, h_mat.T)  # one product for every particle
    return x + (xh @ k_mat + k_vec) @ np.swapaxes(pht, 1, 2)


def flow_map_vjp(g: np.ndarray, pht: np.ndarray, h_mat: np.ndarray, k_mat: np.ndarray) -> np.ndarray:
    """The gradient of :func:`flow_map`'s ``x`` from its output's ``g``, the map's coefficients held constant."""
    return g + ((g @ pht) @ np.swapaxes(k_mat, 1, 2)) @ h_mat
