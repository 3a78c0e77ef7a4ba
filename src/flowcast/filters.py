"""Reference filters: Kalman, bootstrap particle filter, resampling.

The Kalman filter is the exact oracle on linear-Gaussian systems; the
bootstrap particle filter (BPF) is the classical sequential
importance-resampling baseline.  Both are plain functions over arrays: the
Kalman steps map (mean, cov) to (mean, cov), and the BPF is one loop over
particles and log-weights.  The BPF and the particle-flow filter run
against a :class:`LinearGaussianSSM`, which is what the filter benchmark
and the oracle comparisons use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import flow as flow_mod
from .errors import DataError, DegenerateWeightsError, NumericError
from .kernels import diag_gauss_loglik, systematic_resample_indices


# ---------------------------------------------------------------------------
# linear-Gaussian reference system
# ---------------------------------------------------------------------------


@dataclass
class LinearGaussianSSM:
    """x' = F x + v, v ~ N(0, Q);  y = H x + w, w ~ N(0, R)."""

    F: np.ndarray
    Q: np.ndarray
    H: np.ndarray
    R: np.ndarray
    init_mean: np.ndarray
    init_cov: np.ndarray

    def __post_init__(self):
        self.F = np.asarray(self.F, dtype=np.float64)
        self.Q = np.asarray(self.Q, dtype=np.float64)
        self.H = np.asarray(self.H, dtype=np.float64)
        self.R = np.asarray(self.R, dtype=np.float64)
        self.init_mean = np.asarray(self.init_mean, dtype=np.float64)
        self.init_cov = np.asarray(self.init_cov, dtype=np.float64)
        d = self.F.shape[0]
        if self.F.shape != (d, d):
            raise DataError("F must be square")
        n = self.H.shape[0]
        if self.H.shape != (n, d):
            raise DataError("H must be (N, D)")
        if self.Q.shape != (d, d) or self.R.shape != (n, n):
            raise DataError("Q must be (D, D) and R must be (N, N)")
        if self.init_mean.shape != (d,) or self.init_cov.shape != (d, d):
            raise DataError("initial moments have inconsistent shapes")
        for name, mat in (("Q", self.Q), ("R", self.R), ("init_cov", self.init_cov)):
            if not np.allclose(mat, mat.T, atol=1e-10):
                raise DataError(f"{name} must be symmetric")

    @property
    def state_dim(self) -> int:
        return self.F.shape[0]

    @property
    def obs_dim(self) -> int:
        return self.H.shape[0]

    def simulate(self, t_steps: int, rng: np.random.Generator):
        """Sample a trajectory; returns (states (T, D), observations (T, N))."""
        d, n = self.state_dim, self.obs_dim
        lq = _safe_cholesky(self.Q)
        lr = _safe_cholesky(self.R)
        l0 = _safe_cholesky(self.init_cov)
        states = np.empty((t_steps, d))
        obs = np.empty((t_steps, n))
        x = self.init_mean + l0 @ rng.standard_normal(d)
        for t in range(t_steps):
            if t > 0:
                x = self.F @ x + lq @ rng.standard_normal(d)
            states[t] = x
            obs[t] = self.H @ x + lr @ rng.standard_normal(n)
        return states, obs


def _safe_cholesky(mat: np.ndarray) -> np.ndarray:
    """Cholesky factor that tolerates exactly-zero covariances."""
    if not np.any(mat):
        return np.zeros_like(mat)
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        d = mat.shape[0]
        return np.linalg.cholesky(mat + 1e-12 * np.eye(d))


def save_linear_ssm(path, ssm: LinearGaussianSSM) -> None:
    """Persist a reference system (used for oracle comparisons)."""
    with open(path, "wb") as fh:
        np.savez(fh, F=ssm.F, Q=ssm.Q, H=ssm.H, R=ssm.R, init_mean=ssm.init_mean, init_cov=ssm.init_cov)


def _observations(observations) -> np.ndarray:
    """The (T, N) observations as floats; a missing (NaN) one is a DataError, since no filter masks it."""
    obs = np.asarray(observations, dtype=np.float64)
    missing = np.argwhere(np.isnan(obs.reshape(len(obs), -1)))
    if missing.size:
        t, series = missing[0]
        raise DataError(f"observation of series {series} at time index {t} is missing (NaN); the filters do not mask missing values")
    return obs


# ---------------------------------------------------------------------------
# Kalman filter on (mean, cov)
# ---------------------------------------------------------------------------


def kalman_predict(mean: np.ndarray, cov: np.ndarray, ssm: LinearGaussianSSM):
    """Time update: mean' = F mean, cov' = F cov F^T + Q; returns (mean', cov')."""
    cov = ssm.F @ cov @ ssm.F.T + ssm.Q
    return ssm.F @ mean, 0.5 * (cov + cov.T)


def kalman_update(mean: np.ndarray, cov: np.ndarray, y: np.ndarray, ssm: LinearGaussianSSM):
    """Measurement update with an SPD solve for the gain; returns (mean, cov), cov symmetrized."""
    y = np.asarray(y, dtype=np.float64)
    h = ssm.H
    s = h @ cov @ h.T + ssm.R
    try:
        gain = np.linalg.solve(s, h @ cov).T  # K = P H^T S^{-1}
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"Kalman innovation covariance is singular: {exc}") from exc
    cov = (np.eye(mean.shape[0]) - gain @ h) @ cov
    return mean + gain @ (y - h @ mean), 0.5 * (cov + cov.T)


def kalman_filter(ssm: LinearGaussianSSM, observations: np.ndarray):
    """Filtered means/covs for a whole observation sequence (T, N)."""
    obs = _observations(observations)
    t_steps = obs.shape[0]
    means = np.empty((t_steps, ssm.state_dim))
    covs = np.empty((t_steps, ssm.state_dim, ssm.state_dim))
    mean, cov = ssm.init_mean, ssm.init_cov
    for t in range(t_steps):
        if t > 0:
            mean, cov = kalman_predict(mean, cov, ssm)
        mean, cov = kalman_update(mean, cov, obs[t], ssm)
        means[t], covs[t] = mean, cov
    return means, covs


# ---------------------------------------------------------------------------
# resampling and the bootstrap particle filter
# ---------------------------------------------------------------------------


def systematic_resample(weights: np.ndarray, u: float) -> np.ndarray:
    """Systematic resampling indices for normalized ``weights`` and ``u in [0, 1)``."""
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1:
        raise DataError("weights must be a vector")
    if np.any(w < 0):
        raise DataError("weights must be non-negative")
    if abs(float(w.sum()) - 1.0) > 1e-8:
        raise DataError(f"weights must sum to one (got {w.sum():.12g})")
    if not 0.0 <= u < 1.0:
        raise DataError("u must lie in [0, 1)")
    cumulative = np.cumsum(w)
    cumulative[-1] = max(cumulative[-1], 1.0)
    return systematic_resample_indices(cumulative, float(u))


def _normalized(log_w: np.ndarray) -> np.ndarray:
    """Weights from log-weights, normalized in the log domain."""
    w = np.exp(log_w - np.max(log_w))
    return w / w.sum()


def bpf_filter_linear(
    ssm: LinearGaussianSSM,
    observations: np.ndarray,
    n_particles: int,
    rng: np.random.Generator,
    ess_threshold: float = 0.5,
):
    """Run the bootstrap particle filter over a sequence (diagonal R).

    Every step draws its transition noise; at t = 0 the draw is made and not
    applied, so the prior draw is only weighted.  The ensemble is resampled
    systematically when the ESS falls below ``ess_threshold * n_particles``.
    Returns (weighted means (T, D), pre-resampling ESS (T,)); raises
    ``DegenerateWeightsError``, naming the 0-based time index, when every
    weight vanishes.
    """
    obs = _observations(observations)
    t_steps = obs.shape[0]
    lq = _safe_cholesky(ssm.Q)
    r_std = np.tile(np.sqrt(np.diag(ssm.R)), (n_particles, 1))
    particles = ssm.init_mean + rng.standard_normal((n_particles, ssm.state_dim)) @ _safe_cholesky(ssm.init_cov).T
    uniform = np.full(n_particles, -np.log(n_particles))
    log_w = uniform
    means = np.empty((t_steps, ssm.state_dim))
    ess = np.empty(t_steps)
    for t in range(t_steps):
        noise = rng.standard_normal(particles.shape)
        if t > 0:
            particles = particles @ ssm.F.T + noise @ lq.T
        log_w = log_w + diag_gauss_loglik(particles @ ssm.H.T, r_std, obs[t])
        if not np.isfinite(np.max(log_w)):
            raise DegenerateWeightsError(f"all particle weights vanished at time index {t}")
        w = _normalized(log_w)
        ess[t] = 1.0 / np.sum(w * w)
        if ess[t] < ess_threshold * n_particles:
            particles, log_w = particles[systematic_resample(w, float(rng.uniform()))], uniform
        else:
            log_w = np.log(w)
        means[t] = _normalized(log_w) @ particles  # the weights carried forward: uniform after a resample
    return means, ess


def flow_filter_linear(
    ssm: LinearGaussianSSM,
    observations: np.ndarray,
    n_particles: int,
    rng: np.random.Generator,
    config: flow_mod.FlowConfig = flow_mod.FlowConfig(),
):
    """Run the particle-flow filter over a sequence; returns means (T, D)."""
    obs = _observations(observations)
    t_steps = obs.shape[0]
    l0 = _safe_cholesky(ssm.init_cov)
    lq = _safe_cholesky(ssm.Q)
    particles = (ssm.init_mean + rng.standard_normal((n_particles, ssm.state_dim)) @ l0.T)[None]
    r_diag = np.diag(ssm.R)
    means = np.empty((t_steps, ssm.state_dim))
    for t in range(t_steps):
        if t > 0:
            particles = particles @ ssm.F.T + rng.standard_normal(particles.shape) @ lq.T
        particles = flow_mod.edh_flow(particles, ssm.H, obs[None, t], r_diag, config)
        means[t] = particles[0].mean(axis=0)
    return means
