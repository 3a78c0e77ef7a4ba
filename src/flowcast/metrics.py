"""Forecast scoring: point metrics, empirical CRPS variants, quantile loss.

Conventions: forecasts/targets are stacked as (windows, horizon, series);
sample sets add a leading particle axis.  MAPE is reported in percent and
only over cells with |truth| > 1e-3 (NaN when no cell qualifies).
"""

from __future__ import annotations

import csv
import math
from typing import Sequence

import numpy as np

from .errors import DataError
from .kernels import crps_batch

MAPE_FLOOR = 1e-3


def crps_sum(samples: np.ndarray, targets: np.ndarray) -> float:
    """CRPS of the series-summed paths, normalized by the summed truth scale.

    sum over (window, horizon) of CRPS(sum_i samples, sum_i truth), divided
    by sum over (window, horizon) of |sum_i truth|.
    """
    samples = np.asarray(samples, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    s = samples.sum(axis=-1)  # (M, P, Q)
    y = targets.sum(axis=-1)  # (M, Q)
    m, n_p, q = s.shape
    flat = np.ascontiguousarray(s.transpose(0, 2, 1).reshape(m * q, n_p))
    scores = crps_batch(flat, y.reshape(m * q))
    denom = float(np.sum(np.abs(y)))
    if denom == 0.0:
        return math.nan
    return float(np.sum(scores) / denom)


def quantile_loss(y, y_hat, alpha: float):
    """2 [ alpha (y - y_hat)_+ + (1 - alpha) (y_hat - y)_+ ] (elementwise)."""
    y = np.asarray(y, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    under = np.maximum(y - y_hat, 0.0)
    over = np.maximum(y_hat - y, 0.0)
    return 2.0 * (alpha * under + (1.0 - alpha) * over)


# ---------------------------------------------------------------------------
# evaluation report
# ---------------------------------------------------------------------------


def evaluate_forecasts(samples: np.ndarray, points: np.ndarray, targets: np.ndarray, horizons: Sequence[int]):
    """Rows (metric, horizon, value) of the report: ``samples`` (M, n_p, Q, N), ``points`` and ``targets`` (M, Q, N).

    Per horizon: MAE, MAPE(%), RMSE, the mean CRPS over windows and series, and the quantile losses of
    the sample 0.5 and 0.9 quantiles over the truth scale (NaN when it is 0); then ``crps_sum``.
    """
    samples = np.asarray(samples, dtype=np.float64)
    points = np.asarray(points, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if targets.ndim != 3 or points.shape != targets.shape or samples.shape[:1] + samples.shape[2:] != targets.shape:
        raise DataError("samples must be (M, n_particles, Q, N) and points and targets (M, Q, N)")
    m, n_p, q, n = samples.shape
    bad = [h for h in horizons if not 1 <= h <= q]
    if bad:
        raise DataError(f"requested horizons {bad} exceed the forecast horizon {q}")
    quantiles = np.quantile(samples, (0.5, 0.9), axis=1)  # (2, M, Q, N)
    rows = []
    for h in horizons:
        h = int(h)
        y = targets[:, h - 1]
        err = points[:, h - 1] - y
        mask = np.abs(y) > MAPE_FLOOR
        mape = float(100.0 * np.sum(np.abs(err[mask] / y[mask])) / np.count_nonzero(mask)) if np.any(mask) else math.nan
        cells = np.ascontiguousarray(samples[:, :, h - 1].transpose(0, 2, 1).reshape(m * n, n_p))
        rows.append(("mae", h, float(np.mean(np.abs(err)))))
        rows.append(("mape", h, mape))
        rows.append(("rmse", h, float(np.sqrt(np.mean(err * err)))))
        rows.append(("crps_avg", h, float(np.mean(crps_batch(cells, y.reshape(m * n))))))
        denom = float(np.sum(np.abs(y)))
        for alpha, q_forecast in zip((0.5, 0.9), quantiles):
            loss = math.nan if denom == 0.0 else float(np.sum(quantile_loss(y, q_forecast[:, h - 1], alpha)) / denom)
            rows.append((f"ql{int(round(100 * alpha)):02d}_avg", h, loss))
    rows.append(("crps_sum", "all", crps_sum(samples, targets)))
    return rows


def write_metrics_report(path, rows) -> None:
    """CSV report; NaN values are written as empty cells."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "horizon", "value"])
        for metric, horizon, value in rows:
            cell = "" if (isinstance(value, float) and math.isnan(value)) else repr(float(value))
            writer.writerow([metric, horizon, cell])
