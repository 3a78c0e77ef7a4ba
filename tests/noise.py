"""A stacked batch's noise, laid out as whole stacks, and ways to watch or replace what the forward pass draws.

Window i of a batch draws from ``SeedSequence((*seed_key, window id))``, in
one order: its time-1 draw (n_p, D), every transition draw (P+Q-1, n_p, D),
then every measurement draw (Q, n_p, N).  ``train.batch_forward`` draws
these through ``train._draw`` in blocks, as it reaches them; the helpers
here patch that one function.
"""

import math

import numpy as np

from flowcast import train


def drawn(batch, model):
    """``(init (B, n_p, D), dyn (P+Q-1, B, n_p, D), meas (Q, B, n_p, N))``: each window's stream drawn in one piece per part."""
    b, p, q, n = batch.sizes
    n_p, d = batch.n_particles, model.state_dim
    init, dyn, meas = np.empty((b, n_p, d)), np.empty((p + q - 1, b, n_p, d)), np.empty((q, b, n_p, n))
    for i, window_id in enumerate(batch.window_ids):
        rng = np.random.default_rng(np.random.SeedSequence((*batch.seed_key, window_id)))
        init[i] = rng.standard_normal(init.shape[1:])
        dyn[:, i] = rng.standard_normal(dyn.shape[:1] + dyn.shape[2:])
        meas[:, i] = rng.standard_normal(meas.shape[:1] + meas.shape[2:])
    return init, dyn, meas


def _per_pass(monkeypatch, draw):
    """Patch ``train._draw`` with ``draw(call, rngs, shape)``, where ``call`` counts the draws of the current forward pass.

    Each pass makes its own list of generators, so a new list starts a new pass.
    """
    state = {"rngs": None, "call": 0}

    def patched(rngs, shape):
        if rngs is not state["rngs"]:
            state.update(rngs=rngs, call=0)
        state["call"] += 1
        return draw(state["call"] - 1, rngs, shape)

    monkeypatch.setattr(train, "_draw", patched)


def record(monkeypatch):
    """Record every draw the forward passes make: one list of ``(steps, B, ...)`` blocks per pass, in order."""
    passes, real = [], train._draw

    def draw(call, rngs, shape):
        if call == 0:
            passes.append([])
        passes[-1].append(real(rngs, shape))
        return passes[-1][-1]

    _per_pass(monkeypatch, draw)
    return passes


def serve(monkeypatch, init, dyn, meas):
    """Make every later forward pass draw these stacks (laid out as :func:`drawn`'s) in place of its generators' numbers."""
    streams = [np.concatenate([init[i].ravel(), dyn[:, i].ravel(), meas[:, i].ravel()]) for i in range(len(init))]
    used = [0]

    def draw(call, rngs, shape):
        lo = 0 if call == 0 else used[0]
        used[0] = lo + math.prod(shape)
        return np.stack([s[lo : used[0]].reshape(shape) for s in streams], axis=1)

    _per_pass(monkeypatch, draw)
