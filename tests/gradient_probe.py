"""The scalar the gradient tests backpropagate: ``<out, g>``, whose gradient into ``out`` is ``g``."""

import numpy as np

from flowcast import autodiff as ad


def dot(out, g):
    """``sum(out * g)`` as one tape node over ``out``: ``backward`` of it hands ``out`` exactly ``g``."""
    g = np.asarray(g, dtype=np.float64)
    return ad.fused(np.sum(ad.val(out) * g), [out], lambda grad: [grad * g])
