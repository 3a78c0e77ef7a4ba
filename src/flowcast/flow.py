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
running particle mean each Euler step.

Every drift lies in the span of ``PHt``, so the flow is one affine map per
ensemble (Li & Coates, IEEE TSP 2017), in row form ``x_1 = x_0 + (x_0 H^T
K + k) PHt^T`` with an N x N ``K`` and a 1 x N ``k``, and
:func:`autodiff.flow_map` moves the particles once.  No D x D matrix is
formed, neither ``A`` nor ``P``.  :func:`edh_flow` moves a stack of
ensembles at once; training, forecasting and the linear reference filter
call it.

The map is composed on one of two paths.  When ``r`` stays fixed across
pseudo-time, every ``S(l)`` is diagonal in one basis: with ``G = H PHt``
(symmetric PSD) and ``g = diag(r)^-1/2 G diag(r)^-1/2 = U diag(mu) U^T``,
``V = diag(r)^-1/2 U`` gives ``V^T diag(r) V = I``, ``V^T G V = diag(mu)``
and ``S(l)^-1 = V diag(1 / (1 + l mu)) V^T``.  There ``K = V diag(kappa)
V^T`` and ``k = c V^T``, and each mode solves, from zero, with ``a = V^T y
/ 2`` and ``b = V^T (y - H eta_bar) / 2``:

    dkappa/dl = -1/2 (kappa mu + 1) / (1 + l mu)
    dc/dl = -1/2 mu c / (1 + l mu) + a / (1 + l mu) + b / (1 + l mu)^2

So ``kappa mu + 1 = (1 + l mu)^-1/2``, and ``c (1 + l mu)^1/2`` integrates
term by term.  At ``l = 1``, with ``s = sqrt(1 + mu)``,

    kappa = (1/s - 1) / mu = -1 / (s (1 + s))
    c = (2 a (s - 1) + 2 b (1 - 1/s)) / (mu s) = -2 kappa (a + b / s)

whose right-hand forms do not cancel as ``mu -> 0`` (``kappa = -1/2``, ``c
= a + b``): one ``eigh`` per flow gives the exact map.  When ``r`` is
re-read every step, the basis moves, and each Euler step of a geometric
schedule (coefficients at the pre-step pseudo-time) inverts its ``S`` and
updates ``K`` and ``k``.  ``G`` is PSD, so a finite ``S`` is positive
definite exactly when every ``r`` is positive: no factorization checks it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from . import autodiff as ad
from . import config as config_mod
from .errors import DataError, FlowDivergedError, FlowSolveError


@dataclass(frozen=True)
@config_mod.schema_defaults("flow")
class FlowConfig:
    """Knobs of the flow integrator: the ``flow`` settings, whose defaults and ranges ``config.SCHEMA`` declares."""

    n_lambda: int
    ratio: float
    jitter: float
    single_particle_prior_scale: float
    relinearize_every_step: bool

    def __post_init__(self):
        config_mod.check_settings("flow", vars(self))


# ---------------------------------------------------------------------------
# the schedule and the flow
# ---------------------------------------------------------------------------


def step_schedule(n_lambda: int, ratio: float) -> np.ndarray:
    """Geometric Euler step sizes eps_m = eps_1 * ratio^(m-1), summing to one."""
    config_mod.check_settings("flow", {"n_lambda": n_lambda, "ratio": ratio})
    if ratio == 1.0:
        return np.full(n_lambda, 1.0 / n_lambda)
    eps_1 = (ratio - 1.0) / (ratio**n_lambda - 1.0)
    return eps_1 * ratio ** np.arange(n_lambda)


class FlowTrace(NamedTuple):
    """The affine map ``x + (x H^T K + k) PHt^T`` a flow composed: ``autodiff.flow_map(x, *trace)`` applies it."""

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
    encoder_step: Optional[int] = None,
    window_ids: Optional[Sequence] = None,
):
    """Transport B ensembles through the measurement update for ``y``.

    ``particles`` is a (B, n_p, D) array, ``h_mat`` the constant (N, D)
    observation matrix and ``y`` the (B, N) observations.  ``r`` gives the
    diagonal noise variances: an array that broadcasts to (B, N), or a
    callable mapping the (B, D) running particle means to them, read before
    the first step and, when ``config.relinearize_every_step`` is set,
    before every step.

    Noise variances that stay fixed across pseudo-time (an array, or a
    callable read once at the starting means) take the diagonal path: one
    eigendecomposition of the whitened ``G`` per ensemble, then the exact map
    in closed form, which reads neither ``n_lambda`` nor ``ratio``.
    Relinearized ones take Euler steps, each inverting its ``S``.

    Returns the moved particles and the :class:`FlowTrace` that moved them:
    the map a training pass differentiates through with
    :func:`autodiff.flow_map_vjp`.  ``encoder_step`` and ``window_ids`` (one
    per ensemble) only label the errors: ``FlowSolveError`` when an
    innovation covariance ``S`` is not positive definite (some noise
    variance is not positive, which the message names, or a relinearized
    ``S`` is not finite), ``FlowDivergedError`` when the flow map or a
    particle becomes non-finite.
    """
    particles = np.asarray(particles, dtype=np.float64)
    if particles.ndim != 3:
        raise DataError("particles must be a (B, n_particles, D) array")
    b_sz, n_p, d = particles.shape
    h_mat = np.array(h_mat, dtype=np.float64)  # a copy: the trace freezes H
    y = np.asarray(y, dtype=np.float64)
    n = h_mat.shape[0]
    if h_mat.shape != (n, d) or y.shape != (b_sz, n):
        raise DataError(f"need h_mat of shape (N, {d}) and y of shape ({b_sz}, N)")
    mean0 = particles.mean(axis=1)
    if n_p == 1:  # a single particle falls back to the prior P = scale * I, without jitter
        pht = np.broadcast_to(config.single_particle_prior_scale * h_mat.T, (b_sz, d, n))
    else:  # P = C^T C / n_p + jitter * I, applied to H^T without forming it
        centered = particles - mean0[:, None, :]
        # built as the contiguous (B, N, D) array H P, which the map multiplies by
        pht = np.swapaxes(np.swapaxes(centered @ h_mat.T, 1, 2) @ centered / n_p + config.jitter * h_mat, 1, 2)
    hph = h_mat @ pht  # (B, N, N)
    half_y = 0.5 * y[:, :, None]
    half_innov = half_y - 0.5 * (h_mat @ mean0[:, :, None])  # (y - H eta_bar) / 2, (B, N, 1)
    relinearized = callable(r) and config.relinearize_every_step
    where = "" if encoder_step is None else f" of encoder step {encoder_step}"

    def fail(cls, what, verb, row, m=0, lam=0.0, cause=""):
        window_id = None if window_ids is None else window_ids[row]
        who = f"ensemble {row}" if window_ids is None else f"window {window_id}"
        when = f"pseudo-time step {m + 1}/{config.n_lambda}" if relinearized else "the closed-form flow"
        return cls(f"{what} of {who} {verb} {when} (lambda={lam:.6g}){where}{cause}", window_id, encoder_step, m + 1, float(lam))

    if relinearized:
        eps = step_schedule(config.n_lambda, config.ratio)
        lams = np.concatenate(([0.0], np.cumsum(eps)[:-1]))  # coefficients use the pre-step pseudo-time
        k_mat, k_vec = _relinearized_map(r, mean0, pht, h_mat, hph, half_y, half_innov, eps, lams, fail)
        moved = (config.n_lambda - 1, lams[-1])  # particles are checked after the last step
    else:
        r_fixed = np.broadcast_to(np.asarray(r(mean0) if callable(r) else r, dtype=np.float64), (b_sz, n))
        k_mat, k_vec = _fixed_noise_map(r_fixed, hph, half_y, half_innov, fail)
        moved = (0, 1.0)  # the one map takes them to lambda = 1
    trace = FlowTrace(pht, h_mat, k_mat, k_vec)
    x = ad.flow_map(particles, *trace)
    if not np.isfinite(x).all():
        row, particle = np.argwhere(~np.isfinite(x))[0][:2]
        raise fail(FlowDivergedError, f"particle {particle}", "became non-finite after", row, *moved)
    return x, trace


def _not_spd(fail, r, ok_rows, *at):
    """The FlowSolveError for the first ensemble whose ``S`` fails ``ok_rows`` (at Euler step and pseudo-time ``at``).

    The message ends with that ensemble's first noise variance in the (B, N)
    ``r`` that is not positive, when one is.
    """
    row = np.flatnonzero(~ok_rows)[0]
    bad = np.flatnonzero(~(r[row] > 0))
    cause = f": noise variance of series {bad[0]} is {r[row, bad[0]]:.6g}" if bad.size else ""
    return fail(FlowSolveError, "innovation covariance", "is not positive definite at", row, *at, cause=cause)


def _fixed_noise_map(r, hph, half_y, half_innov, fail):
    """(K, k) of flows whose noise variances ``r`` (B, N) stay fixed: the exact map at ``lam = 1``.

    In the whitened eigenbasis ``V`` (module docstring) each mode solves to
    ``kappa = -1 / (s (1 + s))`` and ``c = -2 kappa (a + b / s)``, with ``s =
    sqrt(1 + mu)``, ``a = V^T y / 2`` and ``b = V^T (y - H eta_bar) / 2``.
    """
    positive = (r > 0).all(axis=1)  # G is PSD, so S is SPD exactly when every r is positive
    if not positive.all():
        raise _not_spd(fail, r, positive)
    sqrt_r = np.sqrt(r)
    g = (hph + np.swapaxes(hph, 1, 2)) / (2.0 * sqrt_r[:, :, None] * sqrt_r[:, None, :])
    finite = np.isfinite(g).all(axis=(1, 2))
    g[~finite] = 0.0  # eigh returns garbage, not NaN, for a non-finite matrix
    mu, u = np.linalg.eigh(g)
    mu = np.where(finite[:, None], np.maximum(mu, 0.0), np.nan)  # G is PSD: a negative eigenvalue is rounding
    v = u / sqrt_r[:, :, None]
    vt = np.swapaxes(v, 1, 2)
    s = np.sqrt(1.0 + mu)
    kappa = -1.0 / (s * (1.0 + s))  # in [-1/2, 0), or NaN: the exact map cannot overshoot
    c = -2.0 * kappa * ((vt @ half_y)[:, :, 0] + (vt @ half_innov)[:, :, 0] / s)
    finite = np.isfinite(c).all(axis=1)  # a NaN kappa makes its c NaN
    if not finite.all():
        raise fail(FlowDivergedError, "the flow map", "became non-finite at", np.flatnonzero(~finite)[0])
    return (v * kappa[:, None, :]) @ vt, c[:, None, :] @ vt


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
            raise _not_spd(fail, r_now, (r_now > 0).all(axis=1) & np.isfinite(s).all(axis=(1, 2)), m, lams[m])
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
            raise fail(FlowDivergedError, "the flow map", "became non-finite at", row, m, lams[m])
    return coef[:, :n], coef[:, n:]
