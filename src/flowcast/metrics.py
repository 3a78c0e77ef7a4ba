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


def _at_horizon(arr: np.ndarray, horizon: int) -> np.ndarray:
    q = arr.shape[-2]
    if not 1 <= horizon <= q:
        raise DataError(f"horizon {horizon} outside 1..{q}")
    return arr[..., horizon - 1, :]


def point_metrics(points: np.ndarray, targets: np.ndarray, horizon: int) -> dict:
    """MAE / MAPE(%) / RMSE of a point forecast at one horizon."""
    points = np.asarray(points, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if points.shape != targets.shape:
        raise DataError("points and targets must have identical shapes")
    p = _at_horizon(points, horizon)
    y = _at_horizon(targets, horizon)
    err = p - y
    mae = float(np.mean(np.abs(err)))
    rmse = float(np.sqrt(np.mean(err * err)))
    mask = np.abs(y) > MAPE_FLOOR
    if np.any(mask):
        mape = float(100.0 * np.sum(np.abs(err[mask] / y[mask])) / np.count_nonzero(mask))
    else:
        mape = math.nan
    return {"mae": mae, "mape": mape, "rmse": rmse}


def crps_avg(samples: np.ndarray, targets: np.ndarray, horizon: int) -> float:
    """Mean marginal CRPS over windows and series at one horizon.

    ``samples``: (M, n_particles, Q, N); ``targets``: (M, Q, N).
    """
    samples = np.asarray(samples, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    s = _at_horizon(samples, horizon)  # (M, P, N)
    y = _at_horizon(targets, horizon)  # (M, N)
    m, n_p, n = s.shape
    flat = np.ascontiguousarray(s.transpose(0, 2, 1).reshape(m * n, n_p))
    return float(np.mean(crps_batch(flat, y.reshape(m * n))))


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


def ql_avg(quantile_forecasts: np.ndarray, targets: np.ndarray, alpha: float, horizon: int) -> float:
    """Quantile loss at one horizon, normalized by the truth scale.

    sum QL(y, q_alpha) over windows and series divided by sum |y|.
    """
    qf = _at_horizon(np.asarray(quantile_forecasts, dtype=np.float64), horizon)
    y = _at_horizon(np.asarray(targets, dtype=np.float64), horizon)
    denom = float(np.sum(np.abs(y)))
    if denom == 0.0:
        return math.nan
    return float(np.sum(quantile_loss(y, qf, alpha)) / denom)


# ---------------------------------------------------------------------------
# evaluation report
# ---------------------------------------------------------------------------


def evaluate_forecasts(
    samples: np.ndarray,
    points: np.ndarray,
    targets: np.ndarray,
    horizons: Sequence[int],
):
    """Rows (metric, horizon, value) for the standard report, with the quantile losses at 0.5 and 0.9."""
    q_forecasts = [(alpha, np.quantile(samples, alpha, axis=1)) for alpha in (0.5, 0.9)]
    rows = []
    for h in horizons:
        h = int(h)
        pm = point_metrics(points, targets, h)
        rows.append(("mae", h, pm["mae"]))
        rows.append(("mape", h, pm["mape"]))
        rows.append(("rmse", h, pm["rmse"]))
        rows.append(("crps_avg", h, crps_avg(samples, targets, h)))
        for alpha, q_forecast in q_forecasts:
            rows.append((f"ql{int(round(100 * alpha)):02d}_avg", h, ql_avg(q_forecast, targets, alpha, h)))
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
