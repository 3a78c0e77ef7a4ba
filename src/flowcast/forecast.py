"""Sample-based forecasting: assimilate a history window, then roll out.

Forecasts run the same batched pipeline as training and validation,
:func:`train.batch_forward`, on plain parameter arrays: windows are
stacked into chunks, and every window draws its own noise from (seed,
window id), so its forecast does not depend on the chunk it ran in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from . import flow as flow_mod
from . import ssm as ssm_mod
from . import train as train_mod
from .data import Window
from .errors import DataError


# particle rows (windows x particles) per stacked forecast batch: a batch's
# pre-drawn noise and its temporaries grow with its rows, so the budget
# bounds a batch's memory whatever the particle count (3 windows at 100
# particles).  Validation, at fewer particles, stacks by window count
# (``train.CHUNK_WINDOWS``).
CHUNK_ROWS = 300


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
    point: Optional[np.ndarray] = None
    meta: dict = field(default_factory=dict)

    @property
    def n_particles(self) -> int:
        return self.samples.shape[0]

    @property
    def horizon(self) -> int:
        return self.samples.shape[1]


def predict_windows(
    model: ssm_mod.ModelTheta,
    graph: Optional[ssm_mod.Graph],
    windows: Sequence[Window],
    config: PredictConfig = PredictConfig(),
) -> List[ForecastDistribution]:
    """Filter each window's history, roll out its horizon, summarize a point; at most ``CHUNK_ROWS`` particle rows a batch."""
    params = {name: train_mod.get_param(model, name) for name in train_mod.param_names(model)}
    size = max(1, CHUNK_ROWS // config.n_particles)
    dists = []
    for lo in range(0, len(windows), size):
        chunk = windows[lo : lo + size]
        batch = train_mod.stack_batch(chunk, model, config.n_particles, config.seed)
        samples = train_mod.batch_forward(params, model, batch, config.flow, graph=graph, noiseless=config.noiseless)[0]
        for window, paths in zip(chunk, samples):
            point = np.median(paths, axis=0) if config.point == "median" else paths.mean(axis=0)
            meta = {"window_id": window.window_id, "seed": config.seed, "point": config.point, "noiseless": config.noiseless}
            dists.append(ForecastDistribution(samples=paths, point=point, meta=meta))
    return dists


def predict(
    model: ssm_mod.ModelTheta,
    graph: Optional[ssm_mod.Graph],
    window: Window,
    config: PredictConfig = PredictConfig(),
) -> ForecastDistribution:
    """Forecast one window: :func:`predict_windows` on a batch of one."""
    return predict_windows(model, graph, [window], config)[0]


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
