"""Nonlinear Markovian state-space model with recurrent dynamics.

The latent state stacks one hidden vector of width ``d_x`` per series, so
``D = N * d_x``.  Dynamics are a stack of GRU cells shared across series
(optionally graph-convolutional, mixing series through a row-stochastic
adjacency); emissions are linear with a state-dependent diagonal noise
scale ``softplus(C_gamma x)``.

Transitions are written against :mod:`flowcast.autodiff` ops, so the same
code runs as plain numpy during inference and records a tape when handed
``Var`` parameters during training; :func:`train.batch_forward` runs them,
the flow and the emissions over stacked windows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .errors import DataError

CHECKPOINT_FORMAT = 1

GATES = ("r", "z", "c")

_VALID_KINDS = ("gru", "graph_gru")
_VALID_ADJACENCY = ("mixed", "fixed", "adaptive")


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------


@dataclass
class Graph:
    """A weighted directed graph over the N series.

    ``weights`` holds the raw accumulated edge weights (row = source);
    ``normalized`` is the row-stochastic variant used by the dynamics,
    where rows without any edge receive a self-loop before normalization.
    """

    weights: np.ndarray
    normalized: np.ndarray

    @classmethod
    def from_weights(cls, weights: np.ndarray) -> "Graph":
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise DataError("graph weight matrix must be square")
        if np.any(w < 0):
            raise DataError("graph weights must be non-negative")
        norm = w.copy()
        row_sums = norm.sum(axis=1)
        isolated = row_sums == 0.0
        if np.any(isolated):
            idx = np.where(isolated)[0]
            norm[idx, idx] = 1.0
            row_sums = norm.sum(axis=1)
        norm = norm / row_sums[:, None]
        return cls(weights=w, normalized=norm)

    @property
    def n_nodes(self) -> int:
        return self.weights.shape[0]


@dataclass
class ModelTheta:
    """Every learnable quantity of the model plus its hyper-parameters."""

    rho: float
    sigma: float
    dyn_params: dict
    W_phi: np.ndarray
    C_gamma: np.ndarray
    hyper: dict

    def __post_init__(self):
        if self.rho < 0:
            raise DataError("rho must be non-negative")
        if self.sigma < 0:
            raise DataError("sigma must be non-negative")
        n, d = self.n_series, self.state_dim
        self.W_phi = np.asarray(self.W_phi, dtype=np.float64)
        self.C_gamma = np.asarray(self.C_gamma, dtype=np.float64)
        if self.W_phi.shape != (n, d):
            raise DataError(f"W_phi must have shape ({n}, {d}), got {self.W_phi.shape}")
        if self.C_gamma.shape != (n, d):
            raise DataError(f"C_gamma must have shape ({n}, {d}), got {self.C_gamma.shape}")
        expected = param_shapes(self.hyper)
        for name, shape in expected.items():
            if name not in self.dyn_params:
                raise DataError(f"missing dynamics parameter '{name}'")
            arr = np.asarray(self.dyn_params[name], dtype=np.float64)
            if arr.shape != shape:
                raise DataError(f"dynamics parameter '{name}' must have shape {shape}, got {arr.shape}")
            self.dyn_params[name] = arr
        extra = set(self.dyn_params) - set(expected)
        if extra:
            raise DataError(f"unexpected dynamics parameters: {sorted(extra)}")

    @property
    def kind(self) -> str:
        return self.hyper["kind"]

    @property
    def n_series(self) -> int:
        return int(self.hyper["n_series"])

    @property
    def d_x(self) -> int:
        return int(self.hyper["d_x"])

    @property
    def state_dim(self) -> int:
        return self.n_series * self.d_x


# ---------------------------------------------------------------------------
# parameter bookkeeping
# ---------------------------------------------------------------------------


def param_shapes(hyper: dict) -> dict:
    """Dynamics parameter names and shapes, a pure function of the hypers."""
    kind = hyper["kind"]
    if kind not in _VALID_KINDS:
        raise DataError(f"unknown dynamics kind '{kind}'")
    mode = hyper.get("adjacency_mode", "mixed")
    if mode not in _VALID_ADJACENCY:
        raise DataError(f"unknown adjacency mode '{mode}'")
    n = int(hyper["n_series"])
    d_x = int(hyper["d_x"])
    layers = int(hyper["layers"])
    d_z = int(hyper.get("d_z", 0))
    d_e = int(hyper.get("d_e", 10))
    if n < 1 or d_x < 1 or layers < 1 or d_z < 0:
        raise DataError("hyper-parameters must be positive (d_z may be zero)")
    shapes: dict = {}
    for layer in range(layers):
        d_in = 1 + d_z if layer == 0 else d_x
        for gate in GATES:
            if kind == "gru":
                shapes[f"l{layer}.W_{gate}"] = (d_in, d_x)
                shapes[f"l{layer}.U_{gate}"] = (d_x, d_x)
            else:
                shapes[f"l{layer}.{gate}.Wu0"] = (d_in, d_x)
                shapes[f"l{layer}.{gate}.Wu1"] = (d_in, d_x)
                shapes[f"l{layer}.{gate}.Wh0"] = (d_x, d_x)
                shapes[f"l{layer}.{gate}.Wh1"] = (d_x, d_x)
            shapes[f"l{layer}.b_{gate}"] = (d_x,)
    if kind == "graph_gru" and mode != "fixed":
        shapes["embed"] = (n, d_e)
    return shapes


def init_model(
    kind: str = "gru",
    n_series: int = 1,
    d_x: int = 64,
    layers: int = 2,
    d_z: int = 0,
    d_e: int = 10,
    adjacency_mode: str = "mixed",
    rho: float = 1.0,
    sigma: float = 0.0,
    init_scale: float = 1.0,
    seed: int = 0,
) -> ModelTheta:
    """A randomly initialized model (uniform fan-in scaled weights, zero biases)."""
    hyper = {
        "kind": kind,
        "n_series": int(n_series),
        "d_x": int(d_x),
        "layers": int(layers),
        "d_z": int(d_z),
        "d_e": int(d_e),
        "adjacency_mode": adjacency_mode,
    }
    shapes = param_shapes(hyper)
    rng = np.random.default_rng(seed)
    dyn_params = {}
    for name, shape in shapes.items():
        if name.endswith(("b_r", "b_z", "b_c")):
            dyn_params[name] = np.zeros(shape)
        elif name == "embed":
            dyn_params[name] = rng.standard_normal(shape)
        else:
            bound = init_scale / np.sqrt(shape[0])
            dyn_params[name] = rng.uniform(-bound, bound, size=shape)
    d = n_series * d_x
    w_phi = rng.uniform(-1.0, 1.0, size=(n_series, d)) / np.sqrt(d)
    c_gamma = np.zeros((n_series, d))
    return ModelTheta(rho=rho, sigma=sigma, dyn_params=dyn_params, W_phi=w_phi, C_gamma=c_gamma, hyper=hyper)


# ---------------------------------------------------------------------------
# core dynamics (autodiff-transparent)
# ---------------------------------------------------------------------------


def _gru_cell(u, h, params, layer: int):
    w = lambda name: params[f"l{layer}.{name}"]
    pre_r = ad.add(ad.add(ad.matmul(u, w("W_r")), ad.matmul(h, w("U_r"))), w("b_r"))
    pre_z = ad.add(ad.add(ad.matmul(u, w("W_z")), ad.matmul(h, w("U_z"))), w("b_z"))
    r = ad.sigmoid(pre_r)
    z = ad.sigmoid(pre_z)
    hr = ad.mul(r, h)
    pre_c = ad.add(ad.add(ad.matmul(u, w("W_c")), ad.matmul(hr, w("U_c"))), w("b_c"))
    c = ad.tanh(pre_c)
    return ad.add(ad.mul(ad.sub(1.0, z), h), ad.mul(z, c))


def _graph_gru_cell(u, h, a_hat, params, layer: int):
    w = lambda gate, name: params[f"l{layer}.{gate}.{name}"]
    mixed_u, mixed_h = ad.node_mix(a_hat, u), ad.node_mix(a_hat, h)  # mixed over the graph once, for every gate

    def pre(gate, state, mixed_state):  # graph convolutions of u and the state, plus the gate's bias
        conv_u = ad.add(ad.matmul(mixed_u, w(gate, "Wu0")), ad.matmul(u, w(gate, "Wu1")))
        conv_h = ad.add(ad.matmul(mixed_state, w(gate, "Wh0")), ad.matmul(state, w(gate, "Wh1")))
        return ad.add(ad.add(conv_u, conv_h), params[f"l{layer}.b_{gate}"])

    r, z = ad.sigmoid(pre("r", h, mixed_h)), ad.sigmoid(pre("z", h, mixed_h))
    hr = ad.mul(r, h)
    c = ad.tanh(pre("c", hr, ad.node_mix(a_hat, hr)))
    return ad.add(ad.mul(ad.sub(1.0, z), h), ad.mul(z, c))


def build_mixing(params, hyper: dict, graph: Optional[Graph]):
    """The row-stochastic node-mixing matrix used by graph dynamics.

    ``mixed`` averages the fixed row-normalized adjacency with a learned
    one (row-softmax of relu(E E^T)); ``fixed``/``adaptive`` use a single
    term.  Returns a Var when the embedding participates and is a Var.
    """
    mode = hyper.get("adjacency_mode", "mixed")
    if mode in ("mixed", "fixed"):
        if graph is None:
            raise DataError(f"adjacency mode '{mode}' requires a graph")
        if graph.n_nodes != int(hyper["n_series"]):
            raise DataError("graph size does not match the number of series")
    if mode == "fixed":
        return graph.normalized
    learned = ad.softmax_rows(ad.relu(ad.matmul(params["embed"], ad.transpose2(params["embed"]))))
    if mode == "adaptive":
        return learned
    return ad.add(ad.mul(0.5, graph.normalized), ad.mul(0.5, learned))


def _covariate_rows(z_t, m: int, n: int, d_z: int, per_node: bool) -> np.ndarray:
    """Per-row (M, d_z) covariates shaped for the cell input: (M*N, d_z) or (M, N, d_z)."""
    z = np.asarray(z_t, dtype=np.float64)
    if z.shape != (m, d_z):
        raise DataError(f"z_t must have shape ({m}, {d_z})")
    if per_node:
        return np.broadcast_to(z[:, None, :], (m, n, d_z))
    return np.repeat(z, n, axis=0)


def transition_core(params, hyper: dict, x_prev, y_prev, z_t, mixing=None):
    """Deterministic part of the state transition.

    ``x_prev``: (M, D) rows of states; ``y_prev``: (M, N) previous
    observations per row; ``z_t``: per-row (M, d_z) covariates, or None.
    Returns the (M, D) pre-noise next state.
    Works on Vars or arrays.
    """
    kind = hyper["kind"]
    n = int(hyper["n_series"])
    d_x = int(hyper["d_x"])
    layers = int(hyper["layers"])
    d_z = int(hyper.get("d_z", 0))
    m = ad.val(x_prev).shape[0]
    if d_z and z_t is None:
        raise DataError("the model expects covariates (d_z > 0) but z_t is None")

    if kind == "gru":
        h = ad.reshape(x_prev, (m * n, d_x))
        u = ad.reshape(y_prev, (m * n, 1))
        if d_z:
            u = ad.concat([u, _covariate_rows(z_t, m, n, d_z, per_node=False)], axis=1)
        for layer in range(layers):
            u = _gru_cell(u, h, params, layer)
        return ad.reshape(u, (m, n * d_x))

    h = ad.reshape(x_prev, (m, n, d_x))
    u = ad.reshape(y_prev, (m, n, 1))
    if d_z:
        u = ad.concat([u, _covariate_rows(z_t, m, n, d_z, per_node=True)], axis=2)
    for layer in range(layers):
        u = _graph_gru_cell(u, h, mixing, params, layer)
    return ad.reshape(u, (m, n * d_x))


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(path, model: ModelTheta) -> None:
    """Write every parameter tensor plus hypers; round-trips bitwise."""
    arrays = {
        "rho": np.asarray(model.rho, dtype=np.float64),
        "sigma": np.asarray(model.sigma, dtype=np.float64),
        "W_phi": model.W_phi,
        "C_gamma": model.C_gamma,
    }
    for name, arr in model.dyn_params.items():
        arrays[f"dyn.{name}"] = arr
    meta = {"format": CHECKPOINT_FORMAT, "hyper": model.hyper}
    arrays["meta"] = np.frombuffer(json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_checkpoint(path) -> ModelTheta:
    try:
        handle = np.load(path)
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}")
    except ValueError as exc:
        raise DataError(f"not a model checkpoint: {path}: {exc}")
    with handle as data:
        if "meta" not in data:
            raise DataError(f"not a model checkpoint: {path}")
        meta = json.loads(bytes(data["meta"]).decode("utf-8"))
        if meta.get("format") != CHECKPOINT_FORMAT:
            raise DataError(f"unsupported checkpoint format {meta.get('format')!r}")
        hyper = meta["hyper"]
        dyn_params = {}
        for key in data.files:
            if key.startswith("dyn."):
                dyn_params[key[4:]] = data[key]
        return ModelTheta(
            rho=float(data["rho"]),
            sigma=float(data["sigma"]),
            dyn_params=dyn_params,
            W_phi=data["W_phi"],
            C_gamma=data["C_gamma"],
            hyper=hyper,
        )
