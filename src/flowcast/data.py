"""Dataset handling: CSV IO, cleaning, splitting, scaling, windowing.

Series CSVs have a header row, an optional leading ISO-8601 timestamp
column, and one numeric column per series; blank and ``nan`` cells are
missing values, held as NaN.  Graph CSVs are ``src,dst,weight`` edge lists.
Either may end with blank lines.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from datetime import datetime
from typing import List, Optional, Sequence

import numpy as np

from .errors import DataError
from .filters import LinearGaussianSSM
from .kernels import forward_fill_array
from .ssm import Graph


@dataclass
class SeriesSet:
    """A multivariate series: (T, N) values, NaN where a value is missing."""

    values: np.ndarray
    names: List[str]
    timestamps: Optional[List[str]] = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise DataError("series values must be (T, N)")
        if len(self.names) != self.values.shape[1]:
            raise DataError("need one name per series")
        if self.timestamps is not None and len(self.timestamps) != self.values.shape[0]:
            raise DataError("need one timestamp per row")

    @property
    def n_steps(self) -> int:
        return self.values.shape[0]

    @property
    def n_series(self) -> int:
        return self.values.shape[1]


@dataclass
class Window:
    """One forecasting example: P history rows, Q target rows, covariates."""

    window_id: int
    y_past: np.ndarray
    y_future: np.ndarray
    z: Optional[np.ndarray]


@dataclass
class NormStats:
    """Location/scale used by standardize/destandardize."""

    mean: np.ndarray
    std: np.ndarray


@dataclass
class SynthResult:
    series: SeriesSet
    graph: Optional[Graph]
    oracle: LinearGaussianSSM
    states: np.ndarray


# ---------------------------------------------------------------------------
# CSV IO
# ---------------------------------------------------------------------------


def _is_iso_timestamp(text: str) -> bool:
    try:
        datetime.fromisoformat(text)
        return True
    except ValueError:
        return False


def _read_rows(path, what: str) -> List[List[str]]:
    """The rows of a CSV file, less the empty rows that end it: a file may end with a blank line.

    A blank line between rows stays, and the readers refuse it by its row
    number: skipping it would shift every later row.
    """
    try:
        with open(path, "r", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise DataError(f"cannot read {what} file {path}: {exc}")
    while rows and not rows[-1]:
        rows.pop()
    if not rows:
        raise DataError(f"empty {what} file: {path}")
    return rows


def load_series(path) -> SeriesSet:
    """Read a series CSV (header required, optional timestamp first column)."""
    rows = _read_rows(path, "series")
    header, data_rows = rows[0], rows[1:]
    if not data_rows:
        raise DataError(f"series file has no data rows: {path}")
    width = len(header)
    for i, row in enumerate(data_rows):
        if len(row) != width:
            raise DataError(f"ragged row {i + 2} in {path}: expected {width} cells, got {len(row)}")

    first = data_rows[0][0].strip()
    has_timestamps = False
    if width > 1:
        try:
            float(first)
        except ValueError:
            if _is_iso_timestamp(first):
                has_timestamps = True
            else:
                raise DataError(f"cell at row 2, column '{header[0]}' is neither numeric nor an ISO-8601 timestamp: '{first}'")

    names = header[1:] if has_timestamps else header[:]
    timestamps: Optional[List[str]] = [] if has_timestamps else None
    t_steps, n = len(data_rows), len(names)
    cells = data_rows
    if has_timestamps:
        for i, row in enumerate(data_rows):
            stamp = row[0].strip()
            if not _is_iso_timestamp(stamp):
                raise DataError(f"bad timestamp at row {i + 2}: '{stamp}'")
            timestamps.append(stamp)
        cells = [row[1:] for row in data_rows]
    try:
        values = np.array(cells, dtype=np.float64)  # float() of every cell in one conversion
    except ValueError:  # a blank or a malformed cell: the loop below reads it
        values = None
    if values is None or np.isinf(values).any():  # cell by cell: a blank is NaN, and a fault names its row and column
        values = np.full((t_steps, n), np.nan)
        for i, row in enumerate(cells):
            for j, cell in enumerate(row):
                text = cell.strip()
                if text == "":
                    continue
                try:
                    value = float(text)
                except ValueError:
                    raise DataError(f"non-numeric value '{text}' at row {i + 2}, column '{names[j]}'")
                if math.isinf(value):
                    raise DataError(f"infinite value '{text}' at row {i + 2}, column '{names[j]}'")
                values[i, j] = value
    return SeriesSet(values=values, names=names, timestamps=timestamps)


def save_series(path, series: SeriesSet) -> None:
    """Write a series CSV; floats use repr so a round trip is exact."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = (["timestamp"] if series.timestamps is not None else []) + list(series.names)
        writer.writerow(header)
        for i, row in enumerate(series.values.tolist()):
            stamp = [series.timestamps[i]] if series.timestamps is not None else []
            writer.writerow(stamp + ["" if math.isnan(v) else repr(v) for v in row])


def load_graph(path, n_nodes: int) -> Graph:
    """Read a ``src,dst,weight`` edge list under that header row; duplicate edges accumulate."""
    rows = _read_rows(path, "graph")
    if rows[0] != ["src", "dst", "weight"]:
        raise DataError(f"graph row 1 must be the header src,dst,weight, got {','.join(rows[0])!r}")
    weights = np.zeros((n_nodes, n_nodes))
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != 3:
            raise DataError(f"graph row {i} must have 3 cells (src,dst,weight)")
        try:
            src, dst, w = int(row[0]), int(row[1]), float(row[2])
        except ValueError as exc:
            raise DataError(f"bad graph row {i}: {exc}")
        if not (0 <= src < n_nodes and 0 <= dst < n_nodes):
            raise DataError(f"graph row {i}: node index out of range [0, {n_nodes})")
        if not np.isfinite(w):
            raise DataError(f"graph row {i}: non-finite weight {w}")
        if w < 0:
            raise DataError(f"graph row {i}: negative weight {w}")
        weights[src, dst] += w
    return Graph.from_weights(weights)


def save_graph(path, graph: Graph) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["src", "dst", "weight"])
        src_idx, dst_idx = np.nonzero(graph.weights)
        for s, d in zip(src_idx, dst_idx):
            writer.writerow([int(s), int(d), repr(float(graph.weights[s, d]))])


# ---------------------------------------------------------------------------
# cleaning / splitting / scaling
# ---------------------------------------------------------------------------


def forward_fill(series: SeriesSet) -> SeriesSet:
    """Replace every missing cell with the last seen value in its column."""
    missing = np.isnan(series.values)
    if np.any(missing[0]):
        bad = series.names[int(np.argmax(missing[0]))]
        raise DataError(f"series '{bad}' starts with a missing value; nothing to fill from")
    return replace(series, values=forward_fill_array(series.values, missing))


def chronological_split(
    series: SeriesSet,
    fractions: Sequence[float],
    min_length: Optional[int] = None,
):
    """Contiguous train/val/test split with floored cumulative boundaries."""
    fr = [float(f) for f in fractions]
    if len(fr) != 3 or any(f <= 0 for f in fr):
        raise DataError("fractions must be three positive numbers")
    if abs(sum(fr) - 1.0) > 1e-9:
        raise DataError(f"fractions must sum to one (got {sum(fr):.12g})")
    t = series.n_steps
    # nudge the products so exactly-representable targets (e.g. 10 * 0.8)
    # do not floor down through representation error
    n1 = int(np.floor(t * fr[0] + 1e-9))
    n2 = int(np.floor(t * (fr[0] + fr[1]) + 1e-9))
    pieces = []
    for lo, hi in ((0, n1), (n1, n2), (n2, t)):
        if min_length is not None and hi - lo < min_length:
            raise DataError(f"split segment [{lo}, {hi}) is shorter than the required {min_length} steps")
        stamps = series.timestamps[lo:hi] if series.timestamps is not None else None
        pieces.append(replace(series, values=series.values[lo:hi], timestamps=stamps))
    return tuple(pieces)


def standardize(series: SeriesSet, stats: Optional[NormStats] = None, per_series: bool = False):
    """Z-score the values (scalar by default, per-series on request).

    With ``stats`` given, applies them; otherwise fits them on ``series``.
    Returns (standardized series, stats).
    """
    if stats is None:
        if per_series:
            mean = series.values.mean(axis=0)
            std = series.values.std(axis=0)
        else:
            mean = np.asarray(series.values.mean())
            std = np.asarray(series.values.std())
        if np.any(std < 1e-12):
            raise DataError("cannot standardize: a series is (near-)constant")
        stats = NormStats(mean=mean, std=std)
    out = replace(series, values=(series.values - stats.mean) / stats.std)
    return out, stats


def destandardize(values: np.ndarray, stats: NormStats) -> np.ndarray:
    """Invert :func:`standardize` on an array of (…, N) values."""
    return values * stats.std + stats.mean


# ---------------------------------------------------------------------------
# windows
# ---------------------------------------------------------------------------


def time_covariates(t_indices: np.ndarray, period: int) -> np.ndarray:
    """A sine/cosine pair encoding position within a period."""
    phase = 2.0 * np.pi * (np.asarray(t_indices) % period) / period
    return np.stack([np.sin(phase), np.cos(phase)], axis=-1)


def make_windows(
    series: SeriesSet,
    p_steps: int,
    q_steps: int,
    period: Optional[int] = None,
    start_offset: int = 0,
) -> List[Window]:
    """Every full (P history, Q future) window in the segment.

    ``start_offset`` shifts window ids and covariate phases so windows cut
    from different split segments keep globally consistent indexing.
    """
    if p_steps < 1 or q_steps < 1:
        raise DataError("window sizes must satisfy P >= 1, Q >= 1")
    if np.any(np.isnan(series.values)):
        raise DataError("windows require a series with no missing values (forward fill first)")
    t = series.n_steps
    count = t - p_steps - q_steps + 1
    windows: List[Window] = []
    for k in range(max(count, 0)):
        start = start_offset + k
        z = None
        if period is not None:
            z = time_covariates(np.arange(start, start + p_steps + q_steps), period)
        windows.append(
            Window(
                window_id=start,
                y_past=series.values[k : k + p_steps],
                y_future=series.values[k + p_steps : k + p_steps + q_steps],
                z=z,
            )
        )
    return windows


# ---------------------------------------------------------------------------
# synthetic generators
# ---------------------------------------------------------------------------


def _stable_transition(rng: np.random.Generator, d: int, radius: float, mask: Optional[np.ndarray] = None) -> np.ndarray:
    f = rng.standard_normal((d, d))
    if mask is not None:
        f = f * mask
    eigs = np.abs(np.linalg.eigvals(f))
    top = float(eigs.max())
    if top > 0:
        f *= radius / top
    return f


def synth_generate(kind: str, dims, t_steps: int, seed: int) -> SynthResult:
    """Sample a synthetic dataset from a known linear-Gaussian system.

    ``linear_gaussian``: dims = (n_series, state_dim); dense random stable
    dynamics.  ``var_graph``: dims = n_series; a VAR(1) whose transition
    sparsity matches a random sparse graph, observed through identity with
    noise.  The true system is returned for oracle comparisons.
    """
    kind_codes = {"linear_gaussian": 0, "var_graph": 1}
    if kind not in kind_codes:
        raise DataError(f"unknown synthetic kind '{kind}'")
    rng = np.random.default_rng(np.random.SeedSequence((kind_codes[kind], int(t_steps), int(seed))))
    if kind == "linear_gaussian":
        n, d = (int(dims[0]), int(dims[1])) if np.ndim(dims) else (int(dims), int(dims))
        f = _stable_transition(rng, d, radius=0.9)
        q = 0.3**2 * np.eye(d)
        h = rng.uniform(-1.0, 1.0, size=(n, d))
        r = np.diag(rng.uniform(0.05, 0.15, size=n) ** 2)
        init_cov = 0.5 * np.eye(d)
        ssm = LinearGaussianSSM(F=f, Q=q, H=h, R=r, init_mean=np.zeros(d), init_cov=init_cov)
        graph = None
    elif kind == "var_graph":
        n = int(dims[0]) if np.ndim(dims) else int(dims)
        d = n
        weights = np.zeros((n, n))
        k_neighbors = min(2, n - 1)
        for i in range(n):
            weights[i, i] = 1.0  # self edge
            if k_neighbors:
                others = [j for j in range(n) if j != i]
                picks = rng.choice(others, size=k_neighbors, replace=False)
                for j in picks:
                    weights[int(j), i] = rng.uniform(0.5, 1.0)  # edge j -> i
        mask = (weights.T != 0).astype(np.float64)  # F[i, j] != 0 iff edge (j -> i)
        # slow mixing (top eigenvalue near one) keeps the process forecastable
        # several steps ahead, so learned models can beat the constant mean
        f = _stable_transition(rng, d, radius=0.97, mask=mask)
        q = 0.2**2 * np.eye(d)
        h = np.eye(n)
        r = np.diag(np.full(n, 0.1**2))
        init_cov = 0.25 * np.eye(d)
        ssm = LinearGaussianSSM(F=f, Q=q, H=h, R=r, init_mean=np.zeros(d), init_cov=init_cov)
        graph = Graph.from_weights(weights)

    states, obs = ssm.simulate(int(t_steps), rng)
    names = [f"s{i}" for i in range(obs.shape[1])]
    series = SeriesSet(values=obs, names=names)
    return SynthResult(series=series, graph=graph, oracle=ssm, states=states)
