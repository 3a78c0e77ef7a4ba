"""Particle-flow measurement update (exact Daum–Huang), in observation space.

Instead of reweighting, particles are transported through a pseudo-time
ODE whose drift ``A eta + b`` is affine in the state, chosen so that at
``lambda = 1`` the ensemble matches the Gaussian posterior of the linear
observation ``y = H x + noise`` with diagonal noise variances ``r``:

    A(l) = -1/2 P H^T S^-1 H,  S = l H P H^T + diag(r)
    b(l) = (I + 2 l A) [ (I + l A) P H^T diag(r)^-1 y + A eta_bar ]

Both factor through the N-dimensional observation space: with
``PHt = P H^T`` the drift is ``PHt (beta - 1/2 S^-1 H eta)`` where
``beta = 1/2 S^-1 (y + r * S^-1 (y - H eta_bar))``.  ``PHt`` and
``eta_bar`` are estimated once from the incoming particles and frozen
across pseudo-time; ``H`` is constant, and ``r`` may be re-read at the
running particle mean each Euler step.  Steps follow a geometric schedule,
with coefficients evaluated at the pre-increment pseudo-time.

Every Euler increment thus lies in the span of ``PHt``, so the steps
compose exactly into one affine map per ensemble (Li & Coates, IEEE TSP
2017), in row form ``x_1 = x_0 + (x_0 H^T K + k) PHt^T``: a step updates
the N x N ``K`` and the 1 x N ``k`` and touches no particle, and
:func:`autodiff.flow_map` moves the particles once.  No D x D matrix is
formed, neither ``A`` nor ``P``.  :func:`edh_flow` moves a stack of
ensembles at once; training, forecasting and the linear reference filter
call it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from . import autodiff as ad
from .errors import DataError, FlowDivergedError, FlowSolveError


@dataclass(frozen=True)
class FlowConfig:
    """Knobs of the flow integrator."""

    n_lambda: int = 29
    ratio: float = 1.2
    jitter: float = 1e-2
    single_particle_prior_scale: float = 1.0
    relinearize_every_step: bool = True

    def __post_init__(self):
        if self.n_lambda < 1:
            raise DataError("n_lambda must be >= 1")
        if self.ratio <= 0:
            raise DataError("ratio must be positive")
        if self.jitter < 0:
            raise DataError("jitter must be non-negative")
        if self.single_particle_prior_scale <= 0:
            raise DataError("single_particle_prior_scale must be positive")


# ---------------------------------------------------------------------------
# the schedule and the flow
# ---------------------------------------------------------------------------


def step_schedule(n_lambda: int, ratio: float) -> np.ndarray:
    """Geometric Euler step sizes eps_m = eps_1 * ratio^(m-1), summing to one."""
    if n_lambda < 1:
        raise DataError("n_lambda must be >= 1")
    if ratio <= 0:
        raise DataError("ratio must be positive")
    if ratio == 1.0:
        return np.full(n_lambda, 1.0 / n_lambda)
    eps_1 = (ratio - 1.0) / (ratio**n_lambda - 1.0)
    return eps_1 * ratio ** np.arange(n_lambda)


class FlowTrace(NamedTuple):
    """What a flow froze, and the affine map ``x + (x H^T K + k) PHt^T`` it composed."""

    mean: np.ndarray  # (B, D) ensemble means the flow started from
    pht: np.ndarray  # (B, D, N) P H^T of the starting ensembles
    h_mat: np.ndarray  # (N, D) observation matrix
    k_mat: np.ndarray  # (B, N, N) K, the map's gain on the observed starting point x H^T
    k_vec: np.ndarray  # (B, 1, N) k, the map's offset


def edh_flow(
    particles,
    h_mat: np.ndarray,
    y: np.ndarray,
    r: Union[np.ndarray, Callable[[np.ndarray], np.ndarray]],
    config: FlowConfig = FlowConfig(),
    return_trace: bool = False,
    encoder_step: Optional[int] = None,
    window_ids: Optional[Sequence] = None,
):
    """Transport B ensembles through the measurement update for ``y``.

    ``particles`` is a (B, n_p, D) array, or a taped :class:`autodiff.Var`
    whose gradient then flows through the composed affine map only;
    ``h_mat`` is the constant (N, D) observation matrix and ``y`` the (B, N)
    observations.  ``r`` gives the diagonal noise variances: an array that
    broadcasts to (B, N), or a callable mapping the (B, D) running particle
    means to them, read before the first step and, when
    ``config.relinearize_every_step`` is set, before every step.

    Returns the moved particles, plus a :class:`FlowTrace` when
    ``return_trace`` is true.  ``encoder_step`` and ``window_ids`` (one per
    ensemble) only label the errors: ``FlowSolveError`` when an innovation
    covariance ``S`` is not positive definite, ``FlowDivergedError`` when the
    flow map or a particle becomes non-finite.
    """
    xv = ad.val(particles)
    if xv.ndim != 3:
        raise DataError("particles must be a (B, n_particles, D) array")
    b_sz, n_p, d = xv.shape
    h_mat = np.array(h_mat, dtype=np.float64)  # a copy: the trace freezes H
    y = np.asarray(y, dtype=np.float64)
    n = h_mat.shape[0]
    if h_mat.shape != (n, d) or y.shape != (b_sz, n):
        raise DataError(f"need h_mat of shape (N, {d}) and y of shape ({b_sz}, N)")
    mean0 = xv.mean(axis=1)
    if n_p == 1:  # a single particle falls back to the prior P = scale * I, without jitter
        pht = np.broadcast_to(config.single_particle_prior_scale * h_mat.T, (b_sz, d, n))
    else:  # P = C^T C / n_p + jitter * I, applied to H^T without forming it
        centered = xv - mean0[:, None, :]
        # built as the contiguous (B, N, D) array H P, which the map multiplies by
        pht = np.swapaxes(np.swapaxes(centered @ h_mat.T, 1, 2) @ centered / n_p + config.jitter * h_mat, 1, 2)
    hph = h_mat @ pht  # (B, N, N)
    half_y = 0.5 * y[:, :, None]
    half_innov = half_y - 0.5 * (h_mat @ mean0[:, :, None])  # (y - H eta_bar) / 2, (B, N, 1)
    mean_row = np.concatenate([mean0 @ h_mat.T, np.ones((b_sz, 1))], axis=1)[:, None, :]  # [eta_bar H^T, 1]
    eps = step_schedule(config.n_lambda, config.ratio)
    where = "" if encoder_step is None else f" of encoder step {encoder_step}"

    def fail(cls, what, verb, row, m):
        window_id = None if window_ids is None else window_ids[row]
        who = f"ensemble {row}" if window_ids is None else f"window {window_id}"
        when = f"pseudo-time step {m + 1}/{config.n_lambda} (lambda={lams[m]:.6g}){where}"
        return cls(f"{what} of {who} {verb} {when}", window_id, encoder_step, m + 1, float(lams[m]))

    # after m steps each particle row is x0 + [x0 H^T, 1] coef PHt^T: coef stacks K (N rows) on k
    coef = np.zeros((b_sz, n + 1, n))
    r_now = None if callable(r) else np.broadcast_to(np.asarray(r, dtype=np.float64), (b_sz, n))
    lams = np.concatenate(([0.0], np.cumsum(eps)[:-1]))  # coefficients use the pre-step pseudo-time
    for m in range(config.n_lambda):
        if callable(r) and (m == 0 or config.relinearize_every_step):
            r_now = r(mean0 + (mean_row @ coef @ np.swapaxes(pht, 1, 2))[:, 0, :])  # at the running mean
        s = lams[m] * hph
        s.reshape(b_sz, n * n)[:, :: n + 1] += r_now  # the diagonal of each S
        try:
            np.linalg.cholesky(s)  # the SPD check
        except np.linalg.LinAlgError as exc:
            for row in range(b_sz):  # the batched factorization does not say which matrix failed
                try:
                    np.linalg.cholesky(s[row])
                except np.linalg.LinAlgError:
                    break
            raise fail(FlowSolveError, "innovation covariance", "is not positive definite at", row, m) from exc
        s_inv = np.linalg.inv(s)
        beta = s_inv @ (half_y + r_now[:, :, None] * (s_inv @ half_innov))  # (B, N, 1)
        # K <- K - eps/2 (I + K G^T) S^-1 and k <- k + eps beta - eps/2 k G^T S^-1, with G = H PHt
        pull = coef @ np.swapaxes(hph, 1, 2)
        pull.reshape(b_sz, -1)[:, : n * n : n + 1] += 1.0  # the diagonal of the K block
        coef = coef - (0.5 * eps[m]) * (pull @ s_inv)
        coef[:, n] += eps[m] * beta[:, :, 0]
        if not np.isfinite(coef).all():
            row = np.flatnonzero(~np.isfinite(coef).all(axis=(1, 2)))[0]
            raise fail(FlowDivergedError, "the flow map", "became non-finite at", row, m)
    x = ad.flow_map(particles, pht, h_mat, coef[:, :n], coef[:, n:])
    if not np.isfinite(ad.val(x)).all():
        row, particle = np.argwhere(~np.isfinite(ad.val(x)))[0][:2]
        raise fail(FlowDivergedError, f"particle {particle}", "became non-finite after", row, config.n_lambda - 1)
    if return_trace:
        return x, FlowTrace(mean0, pht, h_mat, coef[:, :n], coef[:, n:])
    return x
