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

The map is composed on one of two paths.  When ``r`` stays fixed across
pseudo-time, every ``S(l)`` is diagonal in one basis: with ``G = H PHt``
(symmetric positive semi-definite) and the whitened ``g = diag(r)^-1/2 G
diag(r)^-1/2 = U diag(mu) U^T``, the columns of ``V = diag(r)^-1/2 U``
satisfy ``V^T diag(r) V = I`` and ``V^T G V = diag(mu)``, so ``S(l)^-1 = V
diag(1 / (1 + l mu)) V^T``.  One eigendecomposition per flow then turns
every step into N-vector arithmetic on the diagonals of ``V^-1 K V^-T``
and ``k V^-T``.  When ``r`` is re-read every step, the basis moves, and
each step inverts its ``S``.  Either way ``G`` is PSD by construction, so
a finite ``S`` is positive definite exactly when every ``r`` is positive:
no factorization checks it.
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

    Noise variances that stay fixed across pseudo-time (an array, or a
    callable read once at the starting means) take the diagonal path: one
    eigendecomposition of the whitened ``G`` per ensemble, then every Euler
    step on N-vectors.  Relinearized ones take the stepwise path, which
    inverts each step's ``S``.  Both compose the same map.

    Returns the moved particles, plus a :class:`FlowTrace` when
    ``return_trace`` is true.  ``encoder_step`` and ``window_ids`` (one per
    ensemble) only label the errors: ``FlowSolveError`` when an innovation
    covariance ``S`` is not positive definite (some noise variance is not
    positive, or a relinearized ``S`` is not finite), ``FlowDivergedError``
    when the flow map or a particle becomes non-finite.
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
    eps = step_schedule(config.n_lambda, config.ratio)
    lams = np.concatenate(([0.0], np.cumsum(eps)[:-1]))  # coefficients use the pre-step pseudo-time
    where = "" if encoder_step is None else f" of encoder step {encoder_step}"

    def fail(cls, what, verb, row, m):
        window_id = None if window_ids is None else window_ids[row]
        who = f"ensemble {row}" if window_ids is None else f"window {window_id}"
        when = f"pseudo-time step {m + 1}/{config.n_lambda} (lambda={lams[m]:.6g}){where}"
        return cls(f"{what} of {who} {verb} {when}", window_id, encoder_step, m + 1, float(lams[m]))

    if callable(r) and config.relinearize_every_step:
        k_mat, k_vec = _relinearized_map(r, mean0, pht, h_mat, hph, half_y, half_innov, eps, lams, fail)
    else:
        r_fixed = np.broadcast_to(np.asarray(r(mean0) if callable(r) else r, dtype=np.float64), (b_sz, n))
        k_mat, k_vec = _fixed_noise_map(r_fixed, hph, half_y, half_innov, eps, lams, fail)
    x = ad.flow_map(particles, pht, h_mat, k_mat, k_vec)
    if not np.isfinite(ad.val(x)).all():
        row, particle = np.argwhere(~np.isfinite(ad.val(x)))[0][:2]
        raise fail(FlowDivergedError, f"particle {particle}", "became non-finite after", row, config.n_lambda - 1)
    if return_trace:
        return x, FlowTrace(mean0, pht, h_mat, k_mat, k_vec)
    return x


def _not_spd(fail, ok_rows, m):
    """The FlowSolveError for the first ensemble whose ``S`` fails ``ok_rows`` at step ``m``."""
    row = np.flatnonzero(~ok_rows)[0]
    return fail(FlowSolveError, "innovation covariance", "is not positive definite at", row, m)


def _fixed_noise_map(r, hph, half_y, half_innov, eps, lams, fail):
    """(K, k) of flows whose noise variances ``r`` (B, N) stay fixed, on diagonals.

    Whitened by ``diag(r)^-1/2``, every ``S(lam) = lam G + diag(r)`` shares
    the eigenbasis ``U`` of ``g = G / (sqrt(r) sqrt(r)^T)``, with eigenvalues
    ``mu``.  In the coordinates ``V = diag(r)^-1/2 U``, where ``V^T diag(r)
    V = I`` and ``V^T G V = diag(mu)``, the map is ``K = V diag(kappa) V^T``
    and ``k = c V^T``, and a step is exact on N-vectors with ``l = 1 / (1 +
    lam mu)``: ``kappa <- kappa - eps/2 l (kappa mu + 1)`` and ``c <- c -
    eps/2 c mu l + eps l (V^T y / 2 + l V^T (y - H eta_bar) / 2)``.
    """
    positive = (r > 0).all(axis=1)  # G is PSD, so S is SPD exactly when every r is positive
    if not positive.all():
        raise _not_spd(fail, positive, 0)
    sqrt_r = np.sqrt(r)
    g = (hph + np.swapaxes(hph, 1, 2)) / (2.0 * sqrt_r[:, :, None] * sqrt_r[:, None, :])
    finite = np.isfinite(g).all(axis=(1, 2))
    g[~finite] = 0.0  # eigh returns garbage, not NaN, for a non-finite matrix
    mu, u = np.linalg.eigh(g)
    mu = np.where(finite[:, None], np.maximum(mu, 0.0), np.nan)  # G is PSD: a negative eigenvalue is rounding
    v = u / sqrt_r[:, :, None]
    vt = np.swapaxes(v, 1, 2)
    vt_y, vt_innov = (vt @ half_y)[:, :, 0], (vt @ half_innov)[:, :, 0]
    kappa = np.zeros((len(eps) + 1, *mu.shape))  # after each step, so one check finds the first bad one
    c = np.zeros_like(kappa)
    for m in range(len(eps)):
        ell = 1.0 / (1.0 + lams[m] * mu)
        half_step = (0.5 * eps[m]) * ell
        kappa[m + 1] = kappa[m] - half_step * (kappa[m] * mu + 1.0)
        c[m + 1] = c[m] - half_step * c[m] * mu + eps[m] * ell * (vt_y + ell * vt_innov)
    finite = np.isfinite(kappa).all(axis=2) & np.isfinite(c).all(axis=2)  # (steps + 1, B)
    if not finite.all():
        after, row = np.argwhere(~finite)[0]  # the first step that went non-finite, then its first ensemble
        raise fail(FlowDivergedError, "the flow map", "became non-finite at", row, after - 1)
    return (v * kappa[-1, :, None, :]) @ vt, c[-1, :, None, :] @ vt


def _relinearized_map(r, mean0, pht, h_mat, hph, half_y, half_innov, eps, lams, fail):
    """(K, k) of flows that re-read the callable ``r`` at the running means every step.

    After m steps each particle row is ``x0 + [x0 H^T, 1] coef PHt^T``, where
    ``coef`` stacks K (N rows) on k.  A step inverts its ``S``; one test of
    the whole batch checks it, and only a failure builds the per-ensemble
    mask that names the window.
    """
    b_sz, n = hph.shape[:2]
    mean_row = np.concatenate([mean0 @ h_mat.T, np.ones((b_sz, 1))], axis=1)[:, None, :]  # [eta_bar H^T, 1]
    pht_t, g_t = np.swapaxes(pht, 1, 2), np.swapaxes(hph, 1, 2)  # PHt^T and G^T = (H PHt)^T, as views
    coef = np.zeros((b_sz, n + 1, n))
    for m in range(len(eps)):
        r_now = r(mean0 + (mean_row @ coef @ pht_t)[:, 0, :])  # at the running mean
        s = lams[m] * hph
        s.reshape(b_sz, n * n)[:, :: n + 1] += r_now  # the diagonal of each S
        if not ((r_now > 0).all() and np.isfinite(s).all()):  # G is PSD: no factorization needed
            raise _not_spd(fail, (r_now > 0).all(axis=1) & np.isfinite(s).all(axis=(1, 2)), m)
        s_inv = np.linalg.inv(s)
        beta = s_inv @ (half_y + r_now[:, :, None] * (s_inv @ half_innov))  # (B, N, 1)
        # K <- K - eps/2 (I + K G^T) S^-1 and k <- k + eps beta - eps/2 k G^T S^-1, with G = H PHt
        pull = coef @ g_t
        pull.reshape(b_sz, -1)[:, : n * n : n + 1] += 1.0  # the diagonal of the K block
        step = pull @ s_inv
        step *= 0.5 * eps[m]
        coef -= step
        coef[:, n] += eps[m] * beta[:, :, 0]
        if not np.isfinite(coef).all():
            row = np.flatnonzero(~np.isfinite(coef).all(axis=(1, 2)))[0]
            raise fail(FlowDivergedError, "the flow map", "became non-finite at", row, m)
    return coef[:, :n], coef[:, n:]
