"""Nonlinear Markovian state-space model with recurrent dynamics.

The latent state stacks one hidden vector of width ``d_x`` per series, so
``D = N * d_x``.  Dynamics are a stack of GRU cells shared across series
(optionally graph-convolutional, mixing series through a row-stochastic
adjacency); emissions are linear with a state-dependent diagonal noise
scale ``softplus(C_gamma x)``.

Each recurrent cell runs as plain numpy and returns its output with a
hand-derived VJP, and :func:`transition_core` returns the next state with
the VJP of its stacked cells; :func:`train.gradients` calls them in
reverse.  :func:`train.batch_forward` runs the transitions, the flow and the
emissions over stacked windows.
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
# core dynamics
# ---------------------------------------------------------------------------


def _conv(sources, weights) -> np.ndarray:
    """``sources[0] @ weights[0] + sources[1] @ weights[1] + ...``: one side of a gate."""
    out = ad._rows(sources[0], weights[0])
    for x, w in zip(sources[1:], weights[1:]):
        out += ad._rows(x, w)
    return out


def _gru_cell(u, h, params, layer: int, a_hat=None, with_vjp: bool = True):
    """One GRU layer step on the (..., N, F) node layout: the new state and its VJP.

    Gate g's pre-activation is ``(conv_u + conv_h) + b_g``.  In a GRU,
    ``conv_u = u W_g`` and ``conv_h = h U_g``; in a graph GRU (``a_hat``
    given) each side is a graph convolution, ``(A u) Wu0 + u Wu1`` and
    ``(A h) Wh0 + h Wh1``.  The candidate ``c`` reads ``r ⊙ h`` for ``h``,
    and the new state is ``(1 - z) h + z c``.

    ``vjp(g)`` gives, from the new state's ``g``, the gradients of ``u``,
    ``h`` and ``a_hat`` (None without one) and a dict of every gate weight
    and bias of the layer, by name.  Without ``with_vjp`` the VJP is None:
    the cell keeps nothing for it, computing each gate in its own buffer and
    dropping each as it is read, with the same products in the same order,
    so the new state is bit for bit the same.
    """
    if a_hat is None:
        names = {gate: ((f"l{layer}.W_{gate}",), (f"l{layer}.U_{gate}",)) for gate in GATES}
    else:
        names = {gate: tuple((f"l{layer}.{gate}.{w}0", f"l{layer}.{gate}.{w}1") for w in ("Wu", "Wh")) for gate in GATES}
    w_u = {gate: [params[name] for name in names[gate][0]] for gate in GATES}
    w_h = {gate: [params[name] for name in names[gate][1]] for gate in GATES}

    def sources(x):  # what one side's weights multiply: (A x, x) in a graph GRU, x alone in a GRU
        return (x,) if a_hat is None else (np.matmul(a_hat, x), x)

    def pre(gate, states):  # (conv_u + conv_h) + b, in conv_u's buffer
        out = _conv(src_u, w_u[gate])
        out += _conv(states, w_h[gate])
        out += params[f"l{layer}.b_{gate}"]
        return out

    src_u, src_h = sources(u), sources(h)
    z = ad._sigmoid_np(pre("z", src_h))
    r = ad._sigmoid_np(pre("r", src_h))
    if not with_vjp:  # out = (1 - z) h + z c by the VJP path's sums and products, in the buffers of r, c and z
        del src_h
        r *= h  # r ⊙ h
        c = pre("c", sources(r))
        np.tanh(c, out=c)
        c *= z
        np.subtract(1.0, z, out=z)
        z *= h
        c += z
        return c, None
    hr = r * h
    src_hr = sources(hr)
    c = pre("c", src_hr)
    np.tanh(c, out=c)
    keep = 1.0 - z  # the share of h kept, reused by the VJP
    out = keep * h + z * c

    def to_sources(d_pre, gates, weights):  # the gradient of each source of one side, summed over the gates
        d_sources = []
        for ws in zip(*(weights[gate] for gate in gates)):  # one source's weight in each gate
            # by a contiguous transpose: numpy multiplies by a transposed view markedly slower
            terms = [ad._rows(d_pre[gate], np.ascontiguousarray(w.T)) for gate, w in zip(gates, ws)]
            d_sources.append(sum(terms[1:], terms[0]))
        return d_sources

    def unmix(d_sources):  # the gradient of x from those of its sources
        return d_sources[0] if a_hat is None else d_sources[1] + np.matmul(a_hat.T, d_sources[0])

    def vjp(g):
        d_pre = {"c": (g * z) * (1.0 - c * c), "z": (g * (c - h)) * (z * keep)}
        d_src_hr = to_sources(d_pre, "c", w_h)
        d_hr = unmix(d_src_hr)
        d_pre["r"] = (d_hr * h) * (r * (1.0 - r))
        d_src_h = to_sources(d_pre, "rz", w_h)
        d_h = (g * keep + d_hr * r) + unmix(d_src_h)
        d_src_u = to_sources(d_pre, GATES, w_u)
        d_a = None
        if a_hat is not None:  # (A u, A h, A (r ⊙ h)) against (u, h, r ⊙ h), over every axis but the node axis
            d_mixed = np.concatenate([d_src_u[0], d_src_h[0], d_src_hr[0]], axis=-1)
            mixed = np.concatenate([u, h, hr], axis=-1)
            d_a = ad._weight_grad(np.swapaxes(d_mixed, -1, -2), np.swapaxes(mixed, -1, -2))
        grads, ones = {}, np.ones(g.size // g.shape[-1])
        for gate in GATES:
            for k, side in enumerate((src_u, src_hr if gate == "c" else src_h)):
                grads.update((name, ad._weight_grad(x, d_pre[gate])) for name, x in zip(names[gate][k], side))
            grads[f"l{layer}.b_{gate}"] = ones @ d_pre[gate].reshape(len(ones), -1)  # the sum over every row, as one product
        return unmix(d_src_u), d_h, d_a, grads

    return out, vjp


def _learned_mixing(embed: np.ndarray) -> np.ndarray:
    """The row softmax of relu(E E^T)."""
    scores = np.maximum(ad._rows(embed, embed.T), 0.0)
    e = np.exp(scores - np.max(scores, axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def build_mixing(params, hyper: dict, graph: Optional[Graph]) -> np.ndarray:
    """The row-stochastic node-mixing matrix used by graph dynamics.

    ``mixed`` averages the fixed row-normalized adjacency with a learned
    one (row-softmax of relu(E E^T)); ``fixed``/``adaptive`` use a single
    term.
    """
    mode = hyper["adjacency_mode"]
    if mode in ("mixed", "fixed"):
        if graph is None:
            raise DataError(f"adjacency mode '{mode}' requires a graph")
        if graph.n_nodes != int(hyper["n_series"]):
            raise DataError("graph size does not match the number of series")
    if mode == "fixed":
        return graph.normalized
    learned = _learned_mixing(params["embed"])
    if mode == "adaptive":
        return learned
    return 0.5 * graph.normalized + 0.5 * learned


def mixing_vjp(embed: np.ndarray, mode: str, g: np.ndarray) -> np.ndarray:
    """The gradient of ``embed`` from the mixing matrix's ``g`` (``mode`` adaptive or mixed).

    The softmax's rows ``s`` take ``s ⊙ (g - <g, s>)``; relu passes the
    positive scores; and ``E E^T`` gives ``G E + G^T E``.
    """
    d_learned = g if mode == "adaptive" else 0.5 * g
    learned = _learned_mixing(embed)
    d_scores = learned * (d_learned - np.sum(d_learned * learned, axis=-1, keepdims=True))
    d_scores = d_scores * (ad._rows(embed, embed.T) > 0.0)
    return d_scores @ embed + d_scores.T @ embed


def transition_core(params, hyper: dict, x_prev, y_prev, z_t, mixing=None, with_vjp: bool = True):
    """Deterministic part of the state transition, and its VJP.

    ``x_prev``: (..., D) states; ``y_prev``: (..., N) previous observations;
    ``z_t``: (..., d_z) covariates, or None.  Both cells run on the
    (..., N, d_x) node layout.  Returns the (..., D) pre-noise next state and
    ``vjp``: from the next state's ``g``, ``vjp(g)`` gives the gradients of
    ``x_prev``, ``y_prev`` and ``mixing`` (None for a GRU) and a dict of
    every layer's weights by name.  Without ``with_vjp`` the cells keep
    nothing for a VJP and ``vjp`` is None; the next state is the same bits.
    """
    n = int(hyper["n_series"])
    d_x = int(hyper["d_x"])
    d_z = int(hyper["d_z"])
    lead = x_prev.shape[:-1]
    h = x_prev.reshape(lead + (n, d_x))
    u = y_prev.reshape(lead + (n, 1))
    if d_z:
        if z_t is None:
            raise DataError("the model expects covariates (d_z > 0) but z_t is None")
        z = np.asarray(z_t, dtype=np.float64)
        if z.shape != lead + (d_z,):
            raise DataError(f"z_t must have shape {lead + (d_z,)}")
        u = np.concatenate([u, np.broadcast_to(z[..., None, :], lead + (n, d_z))], axis=-1)
    elif z_t is not None:
        raise DataError("the model takes no covariates (d_z = 0) but z_t is given")
    a_hat = mixing if hyper["kind"] == "graph_gru" else None
    cells = []
    for layer in range(int(hyper["layers"])):
        u, cell_vjp = _gru_cell(u, h, params, layer, a_hat, with_vjp)
        cells.append(cell_vjp)
    if not with_vjp:
        return u.reshape(lead + (n * d_x,)), None

    def vjp(g):
        d_u, d_h, d_a, grads = g.reshape(lead + (n, d_x)), None, None, {}
        for cell_vjp in reversed(cells):  # every layer reads the same state h
            d_u, d_h_layer, d_a_layer, layer_grads = cell_vjp(d_u)
            d_h = d_h_layer if d_h is None else d_h + d_h_layer
            d_a = d_a_layer if d_a is None else d_a + d_a_layer
            grads.update(layer_grads)
        return d_h.reshape(x_prev.shape), d_u[..., 0], d_a, grads

    return u.reshape(lead + (n * d_x,)), vjp


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
