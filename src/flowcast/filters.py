"""Reference filters: Kalman, bootstrap particle filter, resampling.

The Kalman filter is the exact oracle on linear-Gaussian systems; the
bootstrap particle filter (BPF) is the classical sequential
importance-resampling baseline.  The BPF and the particle-flow filter
here run against a :class:`LinearGaussianSSM`, which is what the filter
benchmark and the oracle comparisons use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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


# ---------------------------------------------------------------------------
# Kalman filter
# ---------------------------------------------------------------------------


def kalman_predict(belief: flow_mod.GaussianBelief, ssm: LinearGaussianSSM) -> flow_mod.GaussianBelief:
    """Time update: mean' = F mean, cov' = F cov F^T + Q."""
    mean = ssm.F @ belief.mean
    cov = ssm.F @ belief.cov @ ssm.F.T + ssm.Q
    return flow_mod.GaussianBelief(mean=mean, cov=0.5 * (cov + cov.T))


def kalman_update(belief: flow_mod.GaussianBelief, y: np.ndarray, ssm: LinearGaussianSSM) -> flow_mod.GaussianBelief:
    """Measurement update with an SPD solve for the gain; covariance symmetrized."""
    y = np.asarray(y, dtype=np.float64)
    h = ssm.H
    s = h @ belief.cov @ h.T + ssm.R
    try:
        gain = np.linalg.solve(s, h @ belief.cov).T  # K = P H^T S^{-1}
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"Kalman innovation covariance is singular: {exc}") from exc
    mean = belief.mean + gain @ (y - h @ belief.mean)
    d = belief.mean.shape[0]
    cov = (np.eye(d) - gain @ h) @ belief.cov
    return flow_mod.GaussianBelief(mean=mean, cov=0.5 * (cov + cov.T))


def kalman_filter(ssm: LinearGaussianSSM, observations: np.ndarray):
    """Filtered means/covs for a whole observation sequence (T, N)."""
    obs = np.asarray(observations, dtype=np.float64)
    t_steps = obs.shape[0]
    means = np.empty((t_steps, ssm.state_dim))
    covs = np.empty((t_steps, ssm.state_dim, ssm.state_dim))
    belief = flow_mod.GaussianBelief(mean=ssm.init_mean.copy(), cov=ssm.init_cov.copy())
    for t in range(t_steps):
        if t > 0:
            belief = kalman_predict(belief, ssm)
        belief = kalman_update(belief, obs[t], ssm)
        means[t] = belief.mean
        covs[t] = belief.cov
    return means, covs


# ---------------------------------------------------------------------------
# weighted ensembles and resampling
# ---------------------------------------------------------------------------


@dataclass
class WeightedEnsemble:
    """Particles with log-weights (normalized lazily, in the log domain)."""

    particles: np.ndarray
    log_weights: np.ndarray
    time_index: int = 1

    def __post_init__(self):
        self.particles = np.asarray(self.particles, dtype=np.float64)
        self.log_weights = np.asarray(self.log_weights, dtype=np.float64)
        if self.particles.ndim != 2:
            raise DataError("particles must be (n_particles, D)")
        if self.log_weights.shape != (self.particles.shape[0],):
            raise DataError("log_weights must have one entry per particle")

    def normalized_weights(self) -> np.ndarray:
        m = np.max(self.log_weights)
        if not np.isfinite(m):
            raise DegenerateWeightsError(f"all log-weights are -inf at time index {self.time_index}")
        w = np.exp(self.log_weights - m)
        return w / w.sum()

    def ess(self) -> float:
        w = self.normalized_weights()
        return float(1.0 / np.sum(w * w))


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


# ---------------------------------------------------------------------------
# bootstrap particle filter
# ---------------------------------------------------------------------------


def bpf_step_linear(
    ensemble: WeightedEnsemble,
    y_t: np.ndarray,
    ssm: LinearGaussianSSM,
    rng: np.random.Generator,
    ess_threshold: float = 0.5,
    diagnostics: Optional[dict] = None,
) -> WeightedEnsemble:
    """One BPF predict/weight/(re)sample step under a linear-Gaussian reference system (diagonal R)."""
    y_t = np.asarray(y_t, dtype=np.float64)
    lq = _safe_cholesky(ssm.Q)
    r_std = np.sqrt(np.diag(ssm.R))
    particles = ensemble.particles @ ssm.F.T + rng.standard_normal(ensemble.particles.shape) @ lq.T
    means = particles @ ssm.H.T
    log_w = ensemble.log_weights + diag_gauss_loglik(means, np.ascontiguousarray(np.broadcast_to(r_std, means.shape)), y_t)
    new_time = ensemble.time_index + 1
    if np.all(np.isneginf(log_w)):
        raise DegenerateWeightsError(f"all particle weights vanished at time index {new_time}")
    w = WeightedEnsemble(particles=particles, log_weights=log_w, time_index=new_time).normalized_weights()
    ess = float(1.0 / np.sum(w * w))
    resampled = ess < ess_threshold * len(w)
    if resampled:
        idx = systematic_resample(w, float(rng.uniform()))
        out = WeightedEnsemble(particles=particles[idx], log_weights=np.full(len(w), -np.log(len(w))), time_index=new_time)
    else:
        out = WeightedEnsemble(particles=particles, log_weights=np.log(w), time_index=new_time)
    if diagnostics is not None:
        diagnostics["ess"] = ess
        diagnostics["resampled"] = resampled
    return out


# ---------------------------------------------------------------------------
# whole-sequence filters on linear-Gaussian systems (benchmark drivers)
# ---------------------------------------------------------------------------


def bpf_filter_linear(
    ssm: LinearGaussianSSM,
    observations: np.ndarray,
    n_particles: int,
    rng: np.random.Generator,
    ess_threshold: float = 0.5,
):
    """Run the BPF over a sequence; returns (means (T, D), ess (T,))."""
    obs = np.asarray(observations, dtype=np.float64)
    t_steps = obs.shape[0]
    l0 = _safe_cholesky(ssm.init_cov)
    particles = ssm.init_mean + rng.standard_normal((n_particles, ssm.state_dim)) @ l0.T
    ens = WeightedEnsemble(
        particles=particles,
        log_weights=np.full(n_particles, -np.log(n_particles)),
        time_index=0,
    )
    r_std = np.sqrt(np.diag(ssm.R))
    means = np.empty((t_steps, ssm.state_dim))
    ess = np.empty(t_steps)
    identity = LinearGaussianSSM(
        F=np.eye(ssm.state_dim),
        Q=np.zeros((ssm.state_dim, ssm.state_dim)),
        H=ssm.H,
        R=ssm.R,
        init_mean=ssm.init_mean,
        init_cov=ssm.init_cov,
    )
    for t in range(t_steps):
        step_ssm = identity if t == 0 else ssm  # time 0: weight the prior draw, no motion
        diag: dict = {}
        ens = bpf_step_linear(ens, obs[t], step_ssm, rng, ess_threshold, diagnostics=diag)
        w = ens.normalized_weights()
        means[t] = w @ ens.particles
        ess[t] = diag["ess"]
    return means, ess


def flow_filter_linear(
    ssm: LinearGaussianSSM,
    observations: np.ndarray,
    n_particles: int,
    rng: np.random.Generator,
    config: flow_mod.FlowConfig = flow_mod.FlowConfig(),
):
    """Run the particle-flow filter over a sequence; returns means (T, D)."""
    obs = np.asarray(observations, dtype=np.float64)
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
