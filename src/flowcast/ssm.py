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
from . import config as config_mod
from .errors import DataError

CHECKPOINT_FORMAT = 1

GATES = ("r", "z", "c")


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
    """The hyper-parameters plus every learnable array, by name.

    ``params`` runs in one order: ``rho`` and ``sigma`` (0-d), the dynamics
    arrays of :func:`param_shapes` sorted by name, then ``W_phi`` and
    ``C_gamma`` (N, D).
    """

    hyper: dict
    params: dict

    def __post_init__(self):
        dyn = param_shapes(self.hyper)
        emission = (self.n_series, self.state_dim)
        expected = {"rho": (), "sigma": (), **{name: dyn[name] for name in sorted(dyn)}, "W_phi": emission, "C_gamma": emission}
        if self.params.keys() != expected.keys():
            missing, extra = sorted(expected.keys() - self.params.keys()), sorted(self.params.keys() - expected.keys())
            raise DataError(f"missing parameters {missing}, unexpected parameters {extra}")
        params = {}
        for name, shape in expected.items():
            arr = np.asarray(self.params[name], dtype=np.float64)
            if arr.shape != shape:
                raise DataError(f"parameter '{name}' must have shape {shape}, got {arr.shape}")
            params[name] = arr
        for name in ("rho", "sigma"):
            if params[name] < 0:
                raise DataError(f"{name} must be non-negative")
        self.params = params

    @property
    def n_series(self) -> int:
        return int(self.hyper["n_series"])

    @property
    def state_dim(self) -> int:
        return self.n_series * int(self.hyper["d_x"])


# ---------------------------------------------------------------------------
# parameter bookkeeping
# ---------------------------------------------------------------------------


def param_shapes(hyper: dict) -> dict:
    """Dynamics parameter names and shapes, a pure function of the hypers."""
    config_mod.check_settings("model", hyper)  # kind, d_x, layers, d_e and adjacency_mode
    kind, mode = hyper["kind"], hyper["adjacency_mode"]
    n, d_x, layers, d_z, d_e = (int(hyper[key]) for key in ("n_series", "d_x", "layers", "d_z", "d_e"))
    if n < 1 or d_z < 0:
        raise DataError("n_series must be positive and d_z non-negative")
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


def init_model(*, n_series: int = 1, d_z: int = 0, **settings) -> ModelTheta:
    """A randomly initialized model (uniform fan-in scaled weights, zero biases).

    ``settings`` are the ``model`` settings of ``config.SCHEMA`` by keyword
    (``kind``, ``d_x``, ``layers``, ``d_e``, ``adjacency_mode``, ``rho``,
    ``sigma``, ``init_scale``, and ``seed`` for ``init_seed``); each one left
    out takes its schema default, and each is checked against its range.
    """
    s = config_mod.resolve_settings("model", settings)
    hyper = {
        "kind": s["kind"],
        "n_series": int(n_series),
        "d_x": int(s["d_x"]),
        "layers": int(s["layers"]),
        "d_z": int(d_z),
        "d_e": int(s["d_e"]),
        "adjacency_mode": s["adjacency_mode"],
    }
    shapes = param_shapes(hyper)
    rng = np.random.default_rng(s["seed"])
    params = {"rho": s["rho"], "sigma": s["sigma"]}
    for name, shape in shapes.items():
        if name.endswith(("b_r", "b_z", "b_c")):
            params[name] = np.zeros(shape)
        elif name == "embed":
            params[name] = rng.standard_normal(shape)
        else:
            bound = s["init_scale"] / np.sqrt(shape[0])
            params[name] = rng.uniform(-bound, bound, size=shape)
    d = hyper["n_series"] * hyper["d_x"]
    params["W_phi"] = rng.uniform(-1.0, 1.0, size=(n_series, d)) / np.sqrt(d)
    params["C_gamma"] = np.zeros((n_series, d))
    return ModelTheta(hyper, params)


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
    mode = hyper["adjacency_mode"]
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


def transition_core(params, hyper: dict, x_prev, y_prev, z_t, mixing=None):
    """Deterministic part of the state transition.

    ``x_prev``: (..., D) states; ``y_prev``: (..., N) previous observations;
    ``z_t``: (..., d_z) covariates, or None.  Both cells run on the
    (..., N, d_x) node layout and return the (..., D) pre-noise next state.
    Works on Vars or arrays.
    """
    n = int(hyper["n_series"])
    d_x = int(hyper["d_x"])
    d_z = int(hyper.get("d_z", 0))
    lead = ad.val(x_prev).shape[:-1]
    h = ad.reshape(x_prev, lead + (n, d_x))
    u = ad.reshape(y_prev, lead + (n, 1))
    if d_z:
        if z_t is None:
            raise DataError("the model expects covariates (d_z > 0) but z_t is None")
        z = np.asarray(z_t, dtype=np.float64)
        if z.shape != lead + (d_z,):
            raise DataError(f"z_t must have shape {lead + (d_z,)}")
        u = ad.concat([u, np.broadcast_to(z[..., None, :], lead + (n, d_z))], axis=-1)
    for layer in range(int(hyper["layers"])):
        if hyper["kind"] == "gru":
            u = _gru_cell(u, h, params, layer)
        else:
            u = _graph_gru_cell(u, h, mixing, params, layer)
    return ad.reshape(u, lead + (n * d_x,))


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def _entry_names(hyper: dict) -> dict:
    """Format 1's entry name -> parameter name, in file order: ``rho``, ``sigma``,
    ``W_phi``, ``C_gamma``, then ``dyn.<name>`` in :func:`param_shapes` order."""
    names = {name: name for name in ("rho", "sigma", "W_phi", "C_gamma")}
    names.update({f"dyn.{name}": name for name in param_shapes(hyper)})
    return names


def save_checkpoint(path, model: ModelTheta) -> None:
    """Write ``model.params`` plus the hypers (the ``meta`` entry, last); round-trips bitwise."""
    arrays = {entry: model.params[name] for entry, name in _entry_names(model.hyper).items()}
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
        try:
            meta = json.loads(bytes(data["meta"]).decode("utf-8"))
            fmt, hyper = meta.get("format"), meta.get("hyper")
        except (ValueError, AttributeError) as exc:  # not bytes of UTF-8 JSON, or not an object
            raise DataError(f"checkpoint {path} has a malformed meta entry: {exc}")
        if fmt != CHECKPOINT_FORMAT:
            raise DataError(f"unsupported checkpoint format {fmt!r}")
        try:
            names = _entry_names(hyper)
        except (KeyError, TypeError) as exc:  # no hyper-parameters, or one missing
            raise DataError(f"checkpoint {path} has a malformed meta entry: its hyper-parameters are missing or incomplete ({exc!r})")
        stored = set(data.files) - {"meta"}
        if stored != names.keys():
            missing, extra = sorted(names.keys() - stored), sorted(stored - names.keys())
            raise DataError(f"checkpoint {path} is missing entries {missing} and has unexpected entries {extra}")
        return ModelTheta(hyper, {name: data[entry] for entry, name in names.items()})
