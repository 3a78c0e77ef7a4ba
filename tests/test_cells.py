"""The recurrent cells' hand-derived VJPs against their plain composition.

``ssm._gru_cell`` runs a GRU or graph-GRU layer step and returns it with its
VJP: each cell is one node of the reverse pass, whose one VJP call gives
the gradients of all its inputs.  Without a VJP (validation and
forecasting) it computes in place and keeps nothing.  ``reference_cells``
holds the same cells as plain numpy steps: the forward values, with a VJP
and without, must be bit for bit theirs, and every gradient must match
central differences of them.
"""

import itertools

import numpy as np
import pytest

import reference_cells
from flowcast import data as data_mod
from flowcast import ssm
from flowcast import train
from flowcast.flow import FlowConfig

FD_STEP = 1e-6
FD_RTOL = 1e-6  # central differences of these O(1) sums are good to about 1e-9

CASES = [
    (kind, layers, d_z, mode, n_p, feedback)
    for kind, layers, d_z, n_p, feedback in itertools.product(("gru", "graph_gru"), (1, 2), (0, 2), (1, 3), (False, True))
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


def _central_differences(f, inputs, names):
    """Central differences of the scalar ``f(inputs)`` in every coordinate of each named entry of ``inputs``."""
    fd = {}
    for name in names:
        value = inputs[name]
        fd[name] = np.zeros_like(value)
        for idx in np.ndindex(value.shape):
            hi, lo = value.copy(), value.copy()
            hi[idx] += FD_STEP
            lo[idx] -= FD_STEP
            fd[name][idx] = (f({**inputs, name: hi}) - f({**inputs, name: lo})) / (2 * FD_STEP)
    return fd


def _assert_matches(got, want):
    assert got.keys() == want.keys()
    for name, fd in want.items():
        scale = np.max(np.abs(fd))
        assert scale > 0, name
        assert np.max(np.abs(got[name] - fd)) <= FD_RTOL * scale, name


@pytest.mark.parametrize("kind, layers, d_z, mode, n_p, feedback", CASES)
def test_cell_node_matches_the_composed_cell(monkeypatch, kind, layers, d_z, mode, n_p, feedback):
    # transition_core's output, with its VJP and without one (as validation
    # and forecasting run it), against the composed cells', bit for bit, and
    # its VJP against central differences of sum(out * g) through them, in
    # the state, every weight, the mixing matrix and, where the decoder feeds
    # its own sample back (``feedback``), the fed-in value
    model, graph = _model(kind, layers, d_z, mode)
    rng = np.random.default_rng(7)
    lead = (2, n_p)
    inputs = {"x": rng.standard_normal(lead + (model.state_dim,)), "y": rng.standard_normal(lead + (4,)), **model.params}
    z = rng.standard_normal(lead + (d_z,)) if d_z else None
    if kind == "graph_gru":
        inputs["mixing"] = ssm.build_mixing(model.params, model.hyper, graph)
    g = rng.standard_normal(lead + (model.state_dim,))

    def transition(values, with_vjp=True):
        return ssm.transition_core(values, model.hyper, values["x"], values["y"], z, mixing=values.get("mixing"), with_vjp=with_vjp)

    out, vjp = transition(inputs)
    plain, no_vjp = transition(inputs, with_vjp=False)
    assert no_vjp is None
    assert plain.tobytes() == out.tobytes()
    d_x, d_y, d_mixing, grads = vjp(g)
    got = {"x": d_x, **grads}
    if feedback:
        got["y"] = d_y
    if kind == "graph_gru":
        got["mixing"] = d_mixing
    else:
        assert d_mixing is None
    monkeypatch.setattr(ssm, "_gru_cell", reference_cells.cell)
    np.testing.assert_array_equal(out, transition(inputs)[0])
    np.testing.assert_array_equal(plain, transition(inputs, with_vjp=False)[0])
    _assert_matches(got, _central_differences(lambda values: float(np.sum(transition(values)[0] * g)), inputs, got))


def test_cell_is_one_node_over_its_inputs(rng):
    # one call of the cell's VJP gives the gradient of every input: u, h, the mixing matrix and each weight of the layer
    model, graph = _model("graph_gru", 1, 0, "mixed")
    mixing = ssm.build_mixing(model.params, model.hyper, graph)
    u, h = rng.standard_normal((2, 4, 1)), rng.standard_normal((2, 4, 3))
    out, vjp = ssm._gru_cell(u, h, model.params, 0, mixing)
    d_u, d_h, d_a, grads = vjp(rng.standard_normal(out.shape))
    assert (d_u.shape, d_h.shape, d_a.shape) == (u.shape, h.shape, mixing.shape)
    assert sorted(grads) == sorted(name for name in ssm.param_shapes(model.hyper) if name.startswith("l0."))
    assert all(grads[name].shape == model.params[name].shape for name in grads)
    gru = _model("gru", 1, 0, "mixed")[0]
    assert ssm._gru_cell(u, h, gru.params, 0)[1](rng.standard_normal(out.shape))[2] is None  # a GRU has no mixing


def test_cell_weight_gradients_match_central_differences(rng):
    model, graph = _model("graph_gru", 1, 2, "mixed")
    a_hat = ssm.build_mixing(model.params, model.hyper, graph)
    u, h = rng.standard_normal((3, 2, 4, 3)), rng.standard_normal((3, 2, 4, 3))
    g = rng.standard_normal(h.shape)
    names = [name for name in ssm.param_shapes(model.hyper) if name.startswith("l0.")]

    def loss(values):
        return float(np.sum(ssm._gru_cell(u, h, values, 0, a_hat)[0] * g))

    grads = ssm._gru_cell(u, h, model.params, 0, a_hat)[1](g)[3]
    _assert_matches(grads, _central_differences(loss, model.params, names))


@pytest.mark.parametrize("mode", ["adaptive", "mixed"])
def test_mixing_vjp_matches_central_differences(rng, mode):
    model, graph = _model("graph_gru", 1, 0, mode)
    model.params["embed"] = 0.3 * rng.standard_normal(model.params["embed"].shape)  # off the softmax's saturation
    g = rng.standard_normal((4, 4))

    def loss(values):
        return float(np.sum(ssm.build_mixing(values, model.hyper, graph) * g))

    got = {"embed": ssm.mixing_vjp(model.params["embed"], mode, g)}
    _assert_matches(got, _central_differences(loss, model.params, ["embed"]))


@pytest.mark.parametrize("kind, layers", [("gru", 1), ("gru", 2), ("graph_gru", 1), ("graph_gru", 2)])
def test_batch_forward_on_plain_arrays_is_the_composed_cells_bit_for_bit(monkeypatch, kind, layers):
    # the forward pass is kept product for product, so validation and forecasts
    # do not move; a pass that keeps its trace for the reverse pass gives the same bits
    model, graph = _model(kind, layers, 2, "mixed", seed=3)
    rng = np.random.default_rng(5)
    series = data_mod.SeriesSet(values=rng.standard_normal((40, 4)), names=[f"s{i}" for i in range(4)])
    batch = train.stack_batch(data_mod.make_windows(series, 6, 3, period=12)[:5], model, 3, 0)
    runs = []
    for cell, collect_trace in ((ssm._gru_cell, False), (reference_cells.cell, False), (ssm._gru_cell, True)):
        monkeypatch.setattr(ssm, "_gru_cell", cell)
        samples, means, stds, _, _ = train.batch_forward(model.params, model, batch, FlowConfig(), graph=graph, collect_trace=collect_trace)
        runs.append([samples, *means, *stds])
    for run in runs[1:]:
        for got, want in zip(run, runs[0]):
            assert got.tobytes() == want.tobytes()
