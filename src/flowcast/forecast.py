"""Sample-based forecasting: assimilate a history window, then roll out.

Forecasts run the same batched pipeline as training and validation,
:func:`train.batch_forward`, on plain parameter arrays: windows are
stacked into chunks, and every window draws its own noise from (seed,
window id), so its forecast does not depend on the chunk it ran in.
The forecast file format lives here too: the three long-format writers and
:func:`read_forecast_files`, the one reader.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

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
    """One window's per-particle forecast paths (n_p, Q, N) and their point summary (Q, N)."""

    samples: np.ndarray
    point: np.ndarray
    meta: dict = field(default_factory=dict)


def predict_windows(
    model: ssm_mod.ModelTheta,
    graph: Optional[ssm_mod.Graph],
    windows: Sequence[Window],
    config: PredictConfig = PredictConfig(),
):
    """Forecast every window: the samples (M, n_p, Q, N) and their point summaries (M, Q, N).

    Windows run in stacked batches of at most ``CHUNK_ROWS`` particle rows.
    """
    if not windows:
        raise DataError("no windows to forecast")
    size = max(1, CHUNK_ROWS // config.n_particles)
    q = 0 if windows[0].y_future is None else len(windows[0].y_future)
    samples = np.empty((len(windows), config.n_particles, q, model.n_series))
    for lo in range(0, len(windows), size):
        batch = train_mod.stack_batch(windows[lo : lo + size], model, config.n_particles, config.seed)
        samples[lo : lo + size] = train_mod.batch_forward(model.params, model, batch, config.flow, graph=graph, noiseless=config.noiseless)[0]
    points = np.median(samples, axis=1) if config.point == "median" else samples.mean(axis=1)
    return samples, points


def predict(
    model: ssm_mod.ModelTheta,
    graph: Optional[ssm_mod.Graph],
    window: Window,
    config: PredictConfig = PredictConfig(),
) -> ForecastDistribution:
    """Forecast one window: :func:`predict_windows` on a batch of one."""
    samples, points = predict_windows(model, graph, [window], config)
    meta = {"window_id": window.window_id, "seed": config.seed, "point": config.point, "noiseless": config.noiseless}
    return ForecastDistribution(samples=samples[0], point=points[0], meta=meta)


def empirical_quantile(dist, alpha) -> np.ndarray:
    """Linear-interpolation (type 7) quantiles across the particle axis."""
    samples = dist.samples if isinstance(dist, ForecastDistribution) else np.asarray(dist, dtype=np.float64)
    a = np.asarray(alpha, dtype=np.float64)
    if np.any(a < 0.0) or np.any(a > 1.0):
        raise DataError("quantile levels must lie in [0, 1]")
    return np.quantile(samples, a, axis=0)


# ---------------------------------------------------------------------------
# forecast files
# ---------------------------------------------------------------------------
#
# Long format: key columns window,horizon,series[,sample] (horizon 1-based),
# then value columns, one row per cell, ``repr`` values, CRLF rows (the csv
# module's default).  Rows run window by window, then by horizon, series and
# sample.


def _write_rows(path, header, window_ids, stack) -> None:
    """One row per cell of the ``(M, Q, N, ..., C)`` stack: the window id and keys of the cell, then its C values.

    The keys after the window id repeat for every window, so their text is
    formatted once a file; each window's rows are then joined and written
    at once.  The text is csv.writer's: int keys, ``repr`` values, CRLF.
    """
    n_values = stack.shape[-1]
    labels = [list(map(str, axis)) for axis in (range(1, stack.shape[1] + 1), *map(range, stack.shape[2:-1]))]  # 1-based horizon, ...
    cells = [f",{keys}," for keys in map(",".join, itertools.product(*labels))]  # in C order, as the rows
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for window_id, block in zip(window_ids, stack):
            if block.size:  # no cells, no rows
                values = map(repr, block.reshape(-1).tolist())
                texts = map(",".join, zip(*[values] * n_values))  # the row's C values, in C order as the cells
                key = "%d" % window_id
                fh.write(key + ("\r\n" + key).join(map(str.__add__, cells, texts)) + "\r\n")


def write_forecast_samples(path, window_ids, samples: np.ndarray) -> None:
    """Long-format sample paths of the (M, n_p, Q, N) samples: window,horizon,series,sample,value."""
    _write_rows(path, ["window", "horizon", "series", "sample", "value"], window_ids, samples.transpose(0, 2, 3, 1)[..., None])


def write_forecast_summary(path, window_ids, samples: np.ndarray, points: np.ndarray, quantiles=(0.1, 0.5, 0.9)) -> None:
    """Point + quantile summary of the (M, n_p, Q, N) samples and (M, Q, N) points: window,horizon,series,point,q…"""
    q_names = [f"q{int(round(100 * a)):02d}" for a in quantiles]
    stack = np.stack([points, *np.quantile(samples, list(quantiles), axis=1)], axis=-1)
    _write_rows(path, ["window", "horizon", "series", "point"] + q_names, window_ids, stack)


def write_truth(path, window_ids, targets: np.ndarray) -> None:
    """Realized (M, Q, N) future values aligned with the forecasts."""
    _write_rows(path, ["window", "horizon", "series", "value"], window_ids, np.asarray(targets)[..., None])


def _read_long(path, keys, value):
    """Scatter one long-format file onto its sorted key grid: (key labels per axis, values of shape (labels...))."""
    try:
        with open(path, "r") as fh:
            header = fh.readline().strip().split(",")
            missing = [c for c in (*keys, value) if c not in header]
            if missing:
                raise DataError(f"{path} lacks columns: {missing}")
            text = fh.read()
            if not text.strip():
                raise DataError(f"{path} has no rows")
            cols = [header.index(c) for c in (*keys, value)]
            table = np.loadtxt(text.splitlines(), delimiter=",", usecols=cols, ndmin=2)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}")
    except ValueError as exc:
        raise DataError(f"bad cell in {path}: {exc}")
    key_cells = table[:, :-1]
    if not ((np.abs(key_cells) < 2**53).all() and (key_cells == np.floor(key_cells)).all()):
        raise DataError(f"bad cell in {path}: the {', '.join(keys)} columns must hold integers")
    labels, index = zip(*(np.unique(col.astype(np.int64), return_inverse=True) for col in key_cells.T))
    shape = tuple(len(u) for u in labels)
    size, cells = math.prod(shape), f"({', '.join(keys)}) cells"
    if size > len(table):  # more cells than rows: some cell has no row, however the labels are spread
        raise DataError(f"{path} lacks rows for at least {size - len(table)} of its {size} {cells}")
    # rows >= cells here, so a cell without a row forces another with two: the duplicate check covers both
    counts = np.bincount(np.ravel_multi_index(index, shape), minlength=size)
    if (counts > 1).any():
        raise DataError(f"{path} holds {int((counts > 1).sum())} duplicated {cells}")
    grid = np.empty(shape)
    grid[index] = table[:, -1]
    return labels, grid


def read_forecast_files(samples_path, summary_path, truth_path):
    """Read the three forecast files: samples (M, n_p, Q, N), points and targets (M, Q, N) on the sorted cell grid."""
    cell = ("window", "horizon", "series")
    sample_labels, samples = _read_long(samples_path, cell + ("sample",), "value")
    point_labels, points = _read_long(summary_path, cell, "point")
    truth_labels, targets = _read_long(truth_path, cell, "value")
    for name, labels in (("samples", sample_labels[:3]), ("summary", point_labels)):
        if not all(np.array_equal(a, b) for a, b in zip(labels, truth_labels)):
            raise DataError(f"{name} and truth files cover different (window, horizon, series) cells")
    horizons = truth_labels[1]
    if not np.array_equal(horizons, np.arange(1, len(horizons) + 1)):
        raise DataError(f"truth horizons {horizons.tolist()} are not contiguous from 1")
    return np.ascontiguousarray(samples.transpose(0, 3, 1, 2)), points, targets
