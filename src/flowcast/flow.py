"""Particle-flow measurement update (exact Daum–Huang).

Instead of reweighting, particles are transported through a pseudo-time
ODE whose drift is affine in the state, ``d eta / d lambda = A eta + b``,
with coefficients chosen so that at ``lambda = 1`` the ensemble matches
the Gaussian posterior of the linear observation ``y = H x + noise``:

    A(l) = -1/2 P H^T (l H P H^T + R)^(-1) H
    b(l) = (I + 2 l A) [ (I + l A) P H^T R^(-1) y + A eta_bar ]

``P`` and ``eta_bar`` are the predictive ensemble moments, estimated once
from the incoming particles and frozen across pseudo-time; ``H`` is
constant, and the diagonal noise variances ``R`` may be re-read at the
running particle mean each Euler step.  Steps follow a geometric schedule,
with coefficients evaluated at the pre-increment pseudo-time.

:func:`edh_flow` moves a stack of ensembles at once; training, forecasting
and the linear reference filter all call it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

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

    def validate(self, sym_tol: float = 1e-10, eig_floor: float = -1e-8) -> None:
        if not np.allclose(self.cov, self.cov.T, atol=sym_tol):
            raise DataError("belief covariance is not symmetric")
        if np.min(np.linalg.eigvalsh(self.cov)) < eig_floor:
            raise DataError("belief covariance has a significantly negative eigenvalue")


# ---------------------------------------------------------------------------
# schedule and moments
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


def ensemble_moments(particles, jitter: float = 1e-2, single_particle_scale: float = 1.0):
    """Per-ensemble mean (B, D) and regularized covariance (B, D, D) of (B, n_p, D) particles.

    Covariance uses the 1/n_p normalization plus ``jitter * I``.  A single
    particle falls back to the isotropic prior ``single_particle_scale * I``
    (no jitter term in that branch).
    """
    particles = np.asarray(particles, dtype=np.float64)
    if particles.ndim != 3:
        raise DataError("ensembles must be a (B, n_particles, D) array")
    b_sz, n_p, d = particles.shape
    mean = particles.mean(axis=1)
    if n_p == 1:
        return mean, np.broadcast_to(single_particle_scale * np.eye(d), (b_sz, d, d))
    centered = particles - mean[:, None, :]
    cov = np.swapaxes(centered, 1, 2) @ centered / n_p
    return mean, 0.5 * (cov + np.swapaxes(cov, 1, 2)) + jitter * np.eye(d)


# ---------------------------------------------------------------------------
# the flow
# ---------------------------------------------------------------------------


def edh_flow(
    particles,
    h_mat: np.ndarray,
    y: np.ndarray,
    r: Union[np.ndarray, Callable[[np.ndarray], np.ndarray]],
    config: FlowConfig = FlowConfig(),
    return_trace: bool = False,
    encoder_step: Optional[int] = None,
):
    """Transport B ensembles through the measurement update for ``y``.

    ``particles`` is a (B, n_p, D) array, or a taped :class:`autodiff.Var`
    whose gradient then flows through the affine Euler steps only; ``h_mat``
    is the constant (N, D) observation matrix and ``y`` the (B, N)
    observations.  ``r`` gives the diagonal noise variances: an array that
    broadcasts to (B, N), or a callable mapping the (B, D) running particle
    means to them, read before the first step and, when
    ``config.relinearize_every_step`` is set, before every step.

    Returns the moved particles, plus the per-step ``(lam, eps, A, b)``
    records (A of shape (B, D, D), b of shape (B, D)) when ``return_trace``
    is true.  ``encoder_step`` only labels the errors: ``FlowSolveError``
    when an innovation covariance ``lam H P H^T + diag(r)`` is not positive
    definite, ``FlowDivergedError`` when a particle becomes non-finite.
    """
    xv = ad.val(particles)
    if xv.ndim != 3:
        raise DataError("particles must be a (B, n_particles, D) array")
    b_sz, _, d = xv.shape
    h_mat = np.asarray(h_mat, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = h_mat.shape[0]
    if h_mat.shape != (n, d) or y.shape != (b_sz, n):
        raise DataError(f"need h_mat of shape (N, {d}) and y of shape ({b_sz}, N)")
    mean0, cov = ensemble_moments(xv, config.jitter, config.single_particle_prior_scale)
    pht = cov @ h_mat.T  # (B, D, N), frozen with the moments
    hph = h_mat @ pht  # (B, N, N)
    h_stack = np.broadcast_to(h_mat, (b_sz, n, d))  # numpy < 2 reads a 2-D right-hand side as vectors
    diag = np.arange(n)
    eps = step_schedule(config.n_lambda, config.ratio)
    where = "" if encoder_step is None else f" of encoder step {encoder_step}"

    x = particles
    r_now = None if callable(r) else np.broadcast_to(np.asarray(r, dtype=np.float64), (b_sz, n))
    lam = 0.0
    trace = []
    for m in range(config.n_lambda):
        if callable(r) and (m == 0 or config.relinearize_every_step):
            r_now = r(ad.val(x).mean(axis=1))
        s = lam * hph
        s[:, diag, diag] += r_now
        try:
            np.linalg.cholesky(s)  # the SPD check: numpy has no triangular solve to reuse the factor
        except np.linalg.LinAlgError as exc:
            raise FlowSolveError(
                f"innovation covariance is not positive definite at pseudo-time step {m + 1}/{config.n_lambda} (lambda={lam:.6g}){where}"
            ) from exc
        a = -0.5 * pht @ np.linalg.solve(s, h_stack)
        ph_ry = pht @ (y / r_now)[:, :, None]
        rhs = ph_ry + lam * (a @ ph_ry) + a @ mean0[:, :, None]
        b = (rhs + 2.0 * lam * (a @ rhs))[:, :, 0]
        x = ad.flow_step(x, a, b, float(eps[m]))
        xv = ad.val(x)
        if not np.all(np.isfinite(xv)):
            row, particle = np.argwhere(~np.isfinite(xv))[0][:2]
            raise FlowDivergedError(
                f"particle {particle} of ensemble {row} became non-finite at pseudo-time step "
                f"{m + 1}/{config.n_lambda} (lambda={lam:.6g}){where}"
            )
        if return_trace:
            trace.append((lam, float(eps[m]), a, b))
        lam += float(eps[m])
    if return_trace:
        return x, trace
    return x
