"""The recurrent cells as single tape nodes against their composed reference.

``ssm._gru_cell`` runs a GRU or graph-GRU layer step on plain arrays and
records one node with a hand-derived VJP.  ``reference_cells`` holds the same
cells composed of tape ops, as they ran before; the forward values must be
bit for bit theirs, and every gradient theirs to rounding.
"""

import itertools

import numpy as np
import pytest

import reference_cells
from gradient_probe import dot
from flowcast import autodiff as ad
from flowcast import data as data_mod
from flowcast import ssm
from flowcast import train
from flowcast.flow import FlowConfig

GRAD_RTOL = 1e-12

CASES = [
    (kind, layers, d_z, mode, n_p, u_taped)
    for kind, layers, d_z, n_p, u_taped in itertools.product(("gru", "graph_gru"), (1, 2), (0, 2), (1, 3), (False, True))
    for mode in (("fixed", "adaptive", "mixed") if kind == "graph_gru" else ("mixed",))
]


def _model(kind, layers, d_z, mode, seed=0):
    model = ssm.init_model(kind=kind, n_series=4, d_x=3, layers=layers, d_z=d_z, d_e=2, adjacency_mode=mode, seed=seed)
    rng = np.random.default_rng(seed + 1)
    for name, value in model.params.items():  # biases off zero, so every term of their gradients shows
        if name.endswith(("b_r", "b_z", "b_c")):
            model.params[name] = 0.3 * rng.standard_normal(value.shape)
    graph = ssm.Graph.from_weights(rng.uniform(0.0, 1.0, (4, 4)))
    return model, graph


def _transition(cell, monkeypatch, model, graph, x0, y0, z, u_taped, g):
    """``transition_core`` run with ``cell``, taped; its output and every input's gradient of ``sum(out * g)``."""
    monkeypatch.setattr(ssm, "_gru_cell", cell)
    params = {name: ad.Var(value) for name, value in model.params.items()}
    x = ad.Var(x0)
    y = ad.Var(y0) if u_taped else y0  # decoder feedback is taped, the history is not
    mixing = ssm.build_mixing(params, model.hyper, graph) if model.hyper["kind"] == "graph_gru" else None
    out = ssm.transition_core(params, model.hyper, x, y, z, mixing=mixing)
    ad.backward(dot(out, g))
    grads = {name: var.grad for name, var in params.items() if var.grad is not None}
    grads["x"] = x.grad
    if u_taped:
        grads["y"] = y.grad
    return out.value, grads


@pytest.mark.parametrize("kind, layers, d_z, mode, n_p, u_taped", CASES)
def test_cell_node_matches_the_composed_cell(monkeypatch, kind, layers, d_z, mode, n_p, u_taped):
    model, graph = _model(kind, layers, d_z, mode)
    rng = np.random.default_rng(7)
    lead = (2, n_p)
    x0, y0 = rng.standard_normal(lead + (model.state_dim,)), rng.standard_normal(lead + (4,))
    z = rng.standard_normal(lead + (d_z,)) if d_z else None
    g = rng.standard_normal(lead + (model.state_dim,))
    got, got_grads = _transition(ssm._gru_cell, monkeypatch, model, graph, x0, y0, z, u_taped, g)
    want, want_grads = _transition(reference_cells.cell, monkeypatch, model, graph, x0, y0, z, u_taped, g)
    np.testing.assert_array_equal(got, want)
    assert got_grads.keys() == want_grads.keys()
    for name, want_grad in want_grads.items():
        scale = np.max(np.abs(want_grad))
        assert scale > 0, name
        assert np.max(np.abs(got_grads[name] - want_grad)) <= GRAD_RTOL * scale, name


def test_cell_is_one_node_over_its_inputs(rng):
    model, graph = _model("graph_gru", 1, 0, "mixed")
    params = {name: ad.Var(value) for name, value in model.params.items()}
    mixing = ssm.build_mixing(params, model.hyper, graph)
    u, h = ad.Var(rng.standard_normal((2, 4, 1))), ad.Var(rng.standard_normal((2, 4, 3)))
    out = ssm._gru_cell(u, h, params, 0, mixing)
    parents = [parent for parent, _ in out._parents]
    weights = [params[name] for name in ssm.param_shapes(model.hyper) if name.startswith("l0.")]
    assert len(parents) == 3 + len(weights)
    assert {id(p) for p in parents} == {id(v) for v in [u, h, mixing, *weights]}
    # plain inputs give a plain array
    assert isinstance(ssm._gru_cell(u.value, h.value, model.params, 0, ad.val(mixing)), np.ndarray)


def test_cell_weight_gradients_match_central_differences(rng):
    model, graph = _model("graph_gru", 1, 2, "mixed")
    a_hat = ssm.build_mixing(model.params, model.hyper, graph)
    u, h = rng.standard_normal((3, 2, 4, 3)), rng.standard_normal((3, 2, 4, 3))
    g = rng.standard_normal(h.shape)
    names = [name for name in ssm.param_shapes(model.hyper) if name.startswith("l0.")]

    def loss(values):
        return float(np.sum(ad.val(ssm._gru_cell(u, h, {**model.params, **values}, 0, a_hat)) * g))

    params = {name: ad.Var(model.params[name]) for name in names}
    ad.backward(dot(ssm._gru_cell(u, h, {**model.params, **params}, 0, a_hat), g))
    eps = 1e-6
    for name in names:
        value = model.params[name]
        want = np.zeros_like(value)
        for idx in np.ndindex(value.shape):
            hi, lo = value.copy(), value.copy()
            hi[idx] += eps
            lo[idx] -= eps
            want[idx] = (loss({name: hi}) - loss({name: lo})) / (2 * eps)
        np.testing.assert_allclose(params[name].grad, want, rtol=1e-6, atol=1e-8, err_msg=name)


@pytest.mark.parametrize("kind, layers", [("gru", 1), ("gru", 2), ("graph_gru", 1), ("graph_gru", 2)])
def test_batch_forward_on_plain_arrays_is_the_composed_cells_bit_for_bit(monkeypatch, kind, layers):
    # the forward pass is kept product for product, so validation and forecasts do not move
    model, graph = _model(kind, layers, 2, "mixed", seed=3)
    rng = np.random.default_rng(5)
    series = data_mod.SeriesSet(values=rng.standard_normal((40, 4)), names=[f"s{i}" for i in range(4)])
    batch = train.stack_batch(data_mod.make_windows(series, 6, 3, period=12)[:5], model, 3, 0)
    runs = []
    for cell in (ssm._gru_cell, reference_cells.cell):
        monkeypatch.setattr(ssm, "_gru_cell", cell)
        samples, means, stds, _ = train.batch_forward(model.params, model, batch, FlowConfig(), graph=graph)
        runs.append([samples, *means, *stds])
    for got, want in zip(*runs):
        np.testing.assert_array_equal(got, want)
