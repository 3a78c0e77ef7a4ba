"""Computations the benchmark checks the program against.

Written from the textbook definitions and kept apart from ``flowcast``:
nothing here imports the package.
"""

from __future__ import annotations

import csv

import numpy as np


def kalman_recursion(F, Q, H, R, m0, P0, observations):
    """Filtered means and covariances, (T, D) and (T, D, D).

    The first observation updates the prior (m0, P0) directly; later ones
    follow a time update.  The gain comes from an explicit inverse of the
    innovation covariance and the covariance update uses the Joseph form,
    so the arithmetic differs from the package's solve-based filter.
    """
    d = F.shape[0]
    eye = np.eye(d)
    m, p = np.array(m0, dtype=np.float64), np.array(P0, dtype=np.float64)
    means, covs = [], []
    for t, y in enumerate(observations):
        if t > 0:
            m = F @ m
            p = F @ p @ F.T + Q
        s = H @ p @ H.T + R
        k = p @ H.T @ np.linalg.inv(s)
        m = m + k @ (y - H @ m)
        i_kh = eye - k @ H
        p = i_kh @ p @ i_kh.T + k @ R @ k.T
        means.append(m)
        covs.append(p)
    return np.array(means), np.array(covs)


def kalman_forecast_means(F, Q, H, R, m0, P0, history, q_steps):
    """Optimal point forecasts (q_steps, N) after filtering ``history``."""
    means, _ = kalman_recursion(F, Q, H, R, m0, P0, history)
    m = means[-1]
    out = []
    for _ in range(q_steps):
        m = F @ m
        out.append(H @ m)
    return np.array(out)


def crps_pairwise(samples, y):
    """CRPS of one sample set by its pairwise definition.

    mean_i |x_i - y| - 1/(2 n^2) sum_ij |x_i - x_j|
    """
    x = np.asarray(samples, dtype=np.float64)
    return float(np.mean(np.abs(x - y)) - 0.5 * np.mean(np.abs(x[:, None] - x[None, :])))


def read_long_csv(path, value_col, sample_col=None):
    """A long-format forecast CSV as a dict keyed by (window, horizon, series[, sample])."""
    out = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            key = (int(row["window"]), int(row["horizon"]), int(row["series"]))
            if sample_col is not None:
                key = key + (int(row[sample_col]),)
            out[key] = float(row[value_col])
    return out


def read_metrics_csv(path):
    """metrics.csv as {(metric, horizon): value}."""
    with open(path, newline="") as fh:
        return {(row["metric"], row["horizon"]): float(row["value"]) for row in csv.DictReader(fh) if row["value"] != ""}


def rel_error(a, b):
    """Largest absolute difference over the largest magnitude of either array."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        return float("inf")
    scale = max(float(np.max(np.abs(a), initial=0.0)), float(np.max(np.abs(b), initial=0.0)))
    diff = float(np.max(np.abs(a - b), initial=0.0))
    return diff / scale if scale > 0 else diff
