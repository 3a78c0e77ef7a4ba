"""Sample-based forecasting: assimilate a history window, then roll out.

The encoder runs the particle ensemble through P transition/flow cycles
against the observed history (no transition into the first step — the
initial draw already is the time-1 prior).  The decoder then alternates
transitions and measurement sampling for Q steps: the first decoder
transition conditions every particle on the last observed value, later
ones on each particle's own previous sample, and each particle emits one
observation draw per horizon.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from . import flow as flow_mod
from . import ssm as ssm_mod
from .data import Window
from .errors import DataError


@dataclass(frozen=True)
class PredictConfig:
    """Knobs of the prediction pipeline."""

    n_particles: int = 10
    flow: flow_mod.FlowConfig = field(default_factory=flow_mod.FlowConfig)
    seed: int = 0
    noiseless: bool = False
    point: str = "median"

    def __post_init__(self):
        if self.n_particles < 1:
            raise DataError("n_particles must be >= 1")
        if self.point not in ("median", "mean"):
            raise DataError("point must be 'median' or 'mean'")


@dataclass
class ForecastDistribution:
    """Per-particle forecast paths plus an optional point summary."""

    samples: np.ndarray
    state_particles: np.ndarray
    point: Optional[np.ndarray] = None
    meta: dict = field(default_factory=dict)

    @property
    def n_particles(self) -> int:
        return self.samples.shape[0]

    @property
    def horizon(self) -> int:
        return self.samples.shape[1]


def _z_row(z: Optional[np.ndarray], t_index: int):
    """Covariates for (1-based) time ``t_index``; None when disabled."""
    if z is None:
        return None
    return z[t_index - 1]


def filter_window(
    model: ssm_mod.ModelTheta,
    graph: Optional[ssm_mod.Graph],
    y_hist: np.ndarray,
    z: Optional[np.ndarray],
    n_particles: int,
    flow_config: flow_mod.FlowConfig = flow_mod.FlowConfig(),
    seed: int = 0,
    noise: Optional[ssm_mod.WindowNoise] = None,
    window_id: Optional[int] = None,
) -> ssm_mod.StateEnsemble:
    """Assimilate ``y_hist`` (P, N); returns the filtered ensemble at time P (``window_id`` labels errors)."""
    y_hist = np.asarray(y_hist, dtype=np.float64)
    if y_hist.ndim != 2 or y_hist.shape[1] != model.n_series:
        raise DataError(f"y_hist must be (P, {model.n_series})")
    p_steps = y_hist.shape[0]
    if noise is None:
        noise = ssm_mod.make_window_noise(seed, 0, n_particles, model, p_steps, 0)

    def noise_var(means):  # emission variances at the running particle mean
        std = np.logaddexp(0.0, means @ model.C_gamma.T)
        return std * std

    ens = ssm_mod.StateEnsemble(particles=model.rho * noise.init, time_index=1)
    ids = None if window_id is None else [window_id]
    for t in range(1, p_steps + 1):
        if t > 1:
            draw = ssm_mod.NoiseDraws(dyn=noise.dyn[t - 2], provenance=noise.provenance + (t,))
            ens = ssm_mod.transition(model, graph, ens, y_hist[t - 2], _z_row(z, t), draw)
        moved = flow_mod.edh_flow(ens.particles[None], model.W_phi, y_hist[None, t - 1], noise_var, flow_config, encoder_step=t, window_ids=ids)
        ens = ssm_mod.StateEnsemble(particles=moved[0], time_index=ens.time_index)
    return ens


def rollout(
    model: ssm_mod.ModelTheta,
    graph: Optional[ssm_mod.Graph],
    ensemble: ssm_mod.StateEnsemble,
    y_last: np.ndarray,
    z: Optional[np.ndarray],
    q_steps: int,
    seed: int = 0,
    noiseless: bool = False,
    noise: Optional[ssm_mod.WindowNoise] = None,
    p_steps: Optional[int] = None,
) -> ForecastDistribution:
    """Roll the filtered ensemble ``q_steps`` ahead, sampling one path per particle.

    ``y_last`` is the final observed value; ``z`` covers times 1..P+Q (the
    decoder reads rows P..P+Q-1, with P inferred from the ensemble's time
    index unless given).
    """
    n_p = ensemble.n_particles
    n = model.n_series
    p_steps = ensemble.time_index if p_steps is None else p_steps
    if noise is None:
        full = ssm_mod.make_window_noise(seed, 0, n_p, model, p_steps, q_steps)
        noise = ssm_mod.WindowNoise(
            init=full.init,
            dyn=full.dyn[max(p_steps - 1, 0) :],
            meas=full.meas,
            provenance=full.provenance,
        )
        dyn_offset = 0
    else:
        dyn_offset = max(p_steps - 1, 0)
    samples = np.empty((n_p, q_steps, n))
    states = np.empty((n_p, q_steps, model.state_dim))
    ens = ensemble
    y_prev: np.ndarray = np.asarray(y_last, dtype=np.float64)
    for k in range(q_steps):
        t = p_steps + 1 + k
        draw = ssm_mod.NoiseDraws(
            dyn=noise.dyn[dyn_offset + k],
            meas=noise.meas[k],
            provenance=noise.provenance + (t,),
        )
        ens = ssm_mod.transition(model, graph, ens, y_prev, _z_row(z, t), draw)
        mean, std = ssm_mod.measurement_moments(model, ens.particles, _z_row(z, t))
        y_step = mean if noiseless else mean + std * draw.meas
        samples[:, k, :] = y_step
        states[:, k, :] = ens.particles
        y_prev = y_step
    return ForecastDistribution(
        samples=samples,
        state_particles=states,
        point=None,
        meta={"p_steps": p_steps, "q_steps": q_steps, "seed": seed, "noiseless": noiseless},
    )


def predict(
    model: ssm_mod.ModelTheta,
    graph: Optional[ssm_mod.Graph],
    window: Window,
    config: PredictConfig = PredictConfig(),
    q_steps: Optional[int] = None,
) -> ForecastDistribution:
    """Filter a window's history, roll out its horizon, summarize a point."""
    y_hist = np.asarray(window.y_past, dtype=np.float64)
    p_steps = y_hist.shape[0]
    if q_steps is None:
        q_steps = window.y_future.shape[0] if window.y_future is not None else 0
    noise = ssm_mod.make_window_noise(config.seed, window.window_id, config.n_particles, model, p_steps, q_steps)
    ens = filter_window(model, graph, y_hist, window.z, config.n_particles, config.flow, noise=noise, window_id=window.window_id)
    dist = rollout(
        model,
        graph,
        ens,
        y_hist[-1],
        window.z,
        q_steps,
        noiseless=config.noiseless,
        noise=noise,
        p_steps=p_steps,
    )
    if config.point == "median":
        dist.point = np.median(dist.samples, axis=0) if q_steps else np.empty((0, model.n_series))
    else:
        dist.point = dist.samples.mean(axis=0) if q_steps else np.empty((0, model.n_series))
    dist.meta.update({"window_id": window.window_id, "seed": config.seed, "point": config.point})
    return dist


def empirical_quantile(dist, alpha) -> np.ndarray:
    """Linear-interpolation (type 7) quantiles across the particle axis."""
    samples = dist.samples if isinstance(dist, ForecastDistribution) else np.asarray(dist, dtype=np.float64)
    a = np.asarray(alpha, dtype=np.float64)
    if np.any(a < 0.0) or np.any(a > 1.0):
        raise DataError("quantile levels must lie in [0, 1]")
    return np.quantile(samples, a, axis=0)


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return repr(float(x))


def write_forecast_samples(path, window_ids, dists: List[ForecastDistribution]) -> None:
    """Long-format sample paths: window,horizon,series,sample,value."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["window", "horizon", "series", "sample", "value"])
        for wid, dist in zip(window_ids, dists):
            n_p, q, n = dist.samples.shape
            for h in range(q):
                for i in range(n):
                    for j in range(n_p):
                        writer.writerow([wid, h + 1, i, j, _fmt(dist.samples[j, h, i])])


def write_forecast_summary(path, window_ids, dists: List[ForecastDistribution], quantiles=(0.1, 0.5, 0.9)) -> None:
    """Point + quantile summary: window,horizon,series,point,q…"""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        q_names = [f"q{int(round(100 * a)):02d}" for a in quantiles]
        writer.writerow(["window", "horizon", "series", "point"] + q_names)
        for wid, dist in zip(window_ids, dists):
            qs = empirical_quantile(dist, list(quantiles))
            point = dist.point if dist.point is not None else np.median(dist.samples, axis=0)
            n_p, q, n = dist.samples.shape
            for h in range(q):
                for i in range(n):
                    row = [wid, h + 1, i, _fmt(point[h, i])] + [_fmt(qs[k][h, i]) for k in range(len(quantiles))]
                    writer.writerow(row)


def write_truth(path, window_ids, targets: List[np.ndarray]) -> None:
    """Realized future values aligned with the forecasts."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["window", "horizon", "series", "value"])
        for wid, y in zip(window_ids, targets):
            q, n = y.shape
            for h in range(q):
                for i in range(n):
                    writer.writerow([wid, h + 1, i, _fmt(y[h, i])])
