"""Particle-flow measurement update (exact Daum–Huang), in observation space.

Instead of reweighting, particles are transported through a pseudo-time
ODE whose drift ``A eta + b`` is affine in the state, chosen so that at
``lambda = 1`` the ensemble matches the Gaussian posterior of the linear
observation ``y = H x + noise`` with diagonal noise variances ``r``:

    A(l) = -1/2 P H^T S^-1 H,  S = l H P H^T + diag(r)
    b(l) = (I + 2 l A) [ (I + l A) P H^T diag(r)^-1 y + A eta_bar ]

Both factor through the N-dimensional observation space: with
``PHt = P H^T`` the drift is ``PHt (beta - 1/2 S^-1 H eta)`` where
``beta = 1/2 S^-1 (y + r * S^-1 (y - H eta_bar))``, so a step costs N x N
algebra plus thin (D, N) products and forms no D x D matrix, neither
``A`` nor ``P``.  ``PHt`` and ``eta_bar`` are estimated once from the
incoming particles and frozen across pseudo-time; ``H`` is constant, and
``r`` may be re-read at the running particle mean each Euler step.  Steps
follow a geometric schedule, with coefficients evaluated at the
pre-increment pseudo-time.  :func:`edh_flow` moves a stack of ensembles
at once; training, forecasting and the linear reference filter call it.
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


@dataclass
class GaussianBelief:
    """A Gaussian summary of an ensemble: mean and covariance."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.cov = np.asarray(self.cov, dtype=np.float64)
        if self.mean.ndim != 1:
            raise DataError("belief mean must be a vector")
        d = self.mean.shape[0]
        if self.cov.shape != (d, d):
            raise DataError("belief covariance must be (D, D)")


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
    """What a flow froze: enough to replay its Euler steps exactly."""

    mean: np.ndarray  # (B, D) ensemble means the flow started from
    pht: np.ndarray  # (B, D, N) P H^T of the starting ensembles
    h_mat: np.ndarray  # (N, D) observation matrix
    steps: list  # per Euler step: (lam, eps, S^-1 of shape (B, N, N), beta of shape (B, N))


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
    whose gradient then flows through the affine Euler steps only; ``h_mat``
    is the constant (N, D) observation matrix and ``y`` the (B, N)
    observations.  ``r`` gives the diagonal noise variances: an array that
    broadcasts to (B, N), or a callable mapping the (B, D) running particle
    means to them, read before the first step and, when
    ``config.relinearize_every_step`` is set, before every step.

    Returns the moved particles, plus a :class:`FlowTrace` when
    ``return_trace`` is true.  ``encoder_step`` and ``window_ids`` (one per
    ensemble) only label the errors: ``FlowSolveError`` when an innovation
    covariance ``S`` is not positive definite, ``FlowDivergedError`` when a
    particle becomes non-finite.
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
        # built as the contiguous (B, N, D) array H P, which the Euler steps multiply by
        pht = np.swapaxes(np.swapaxes(centered @ h_mat.T, 1, 2) @ centered / n_p + config.jitter * h_mat, 1, 2)
    hph = h_mat @ pht  # (B, N, N)
    half_y = 0.5 * y[:, :, None]
    half_innov = half_y - 0.5 * (h_mat @ mean0[:, :, None])  # (y - H eta_bar) / 2, (B, N, 1)
    eps = step_schedule(config.n_lambda, config.ratio)
    where = "" if encoder_step is None else f" of encoder step {encoder_step}"

    def who(row):
        return f"ensemble {row}" if window_ids is None else f"window {window_ids[row]}"

    x = particles
    r_now = None if callable(r) else np.broadcast_to(np.asarray(r, dtype=np.float64), (b_sz, n))
    lam = 0.0
    steps = []
    for m in range(config.n_lambda):
        if callable(r) and (m == 0 or config.relinearize_every_step):
            r_now = r(ad.val(x).mean(axis=1))
        s = lam * hph
        s.reshape(b_sz, n * n)[:, :: n + 1] += r_now  # the diagonal of each S
        try:
            np.linalg.cholesky(s)  # the SPD check
        except np.linalg.LinAlgError as exc:
            for row in range(b_sz):  # the batched factorization does not say which matrix failed
                try:
                    np.linalg.cholesky(s[row])
                except np.linalg.LinAlgError:
                    break
            when = f"pseudo-time step {m + 1}/{config.n_lambda} (lambda={lam:.6g}){where}"
            raise FlowSolveError(f"innovation covariance of {who(row)} is not positive definite at {when}") from exc
        s_inv = np.linalg.inv(s)
        beta = (s_inv @ (half_y + r_now[:, :, None] * (s_inv @ half_innov)))[:, :, 0]
        x = ad.flow_step(x, pht, s_inv, h_mat, beta, float(eps[m]))
        xv = ad.val(x)
        if not np.isfinite(xv).all():
            row, particle = np.argwhere(~np.isfinite(xv))[0][:2]
            when = f"pseudo-time step {m + 1}/{config.n_lambda} (lambda={lam:.6g}){where}"
            raise FlowDivergedError(f"particle {particle} of {who(row)} became non-finite at {when}")
        if return_trace:
            steps.append((lam, float(eps[m]), s_inv, beta))
        lam += float(eps[m])
    if return_trace:
        return x, FlowTrace(mean0, pht, h_mat, steps)
    return x
