"""Small numpy kernels: systematic resampling, forward fill, batched
empirical CRPS and the diagonal-Gaussian log-likelihood of one observation
under many particles.
"""

from __future__ import annotations

import numpy as np

# ---------------------------------------------------------------------------
# systematic resampling
# ---------------------------------------------------------------------------


def systematic_resample_indices(cumulative: np.ndarray, u: float) -> np.ndarray:
    n = cumulative.shape[0]
    positions = (u + np.arange(n)) / n
    return np.searchsorted(cumulative, positions, side="left").astype(np.int64)


# ---------------------------------------------------------------------------
# forward fill along the time axis
# ---------------------------------------------------------------------------


def forward_fill_array(values: np.ndarray, missing: np.ndarray) -> np.ndarray:
    t, n = values.shape
    idx = np.where(missing, 0, np.arange(t)[:, None])
    idx = np.maximum.accumulate(idx, axis=0)
    return values[idx, np.arange(n)[None, :]]


# ---------------------------------------------------------------------------
# empirical CRPS for a batch of sample sets
# ---------------------------------------------------------------------------


def crps_batch(samples: np.ndarray, targets: np.ndarray) -> np.ndarray:
    m, n = samples.shape
    mae_term = np.mean(np.abs(samples - targets[:, None]), axis=1)
    s = np.sort(samples, axis=1)
    # sum_{i,j} |x_i - x_j| = 2 * sum_i (2i - n + 1) * x_(i)  (0-indexed order stats)
    weights = 2.0 * np.arange(n) - n + 1.0
    spread = 2.0 * np.sum(s * weights[None, :], axis=1)
    return mae_term - spread / (2.0 * n * n)


# ---------------------------------------------------------------------------
# diagonal-Gaussian log-likelihood of one observation under many particles
# ---------------------------------------------------------------------------

_LOG_2PI = float(np.log(2.0 * np.pi))


def diag_gauss_loglik(means: np.ndarray, stds: np.ndarray, y: np.ndarray) -> np.ndarray:
    z = (y[None, :] - means) / stds
    return -0.5 * np.sum(z * z + _LOG_2PI, axis=1) - np.sum(np.log(stds), axis=1)
