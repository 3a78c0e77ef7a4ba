"""State-space model: recurrent transitions, graph mixing, the emission,
noise bookkeeping, and checkpoint persistence."""

import re
import zipfile
from pathlib import Path

import numpy as np
import pytest

from flowcast import data as data_mod
from flowcast import ssm
from flowcast import train
from flowcast.errors import DataError
from flowcast.flow import FlowConfig, edh_flow

import noise


def _zero_params(model):
    """The model's parameters with every dynamics array zeroed."""
    dyn = ssm.param_shapes(model.hyper)
    return {k: np.zeros_like(v) if k in dyn else v for k, v in model.params.items()}


_FLOW = FlowConfig(n_lambda=8)


def _short_batch(model, rng, n_particles, q_steps):
    """One stacked window with a one-step history and ``q_steps`` horizon steps."""
    n = model.n_series
    vals = 0.5 * rng.standard_normal((1 + q_steps, n))
    s = data_mod.SeriesSet(values=vals, names=[f"s{i}" for i in range(n)])
    return train.stack_batch(data_mod.make_windows(s, 1, q_steps), model, n_particles, 0)


def _forward(model, batch):
    """batch_forward's (samples, emission means, emission stds) on plain parameter arrays."""
    return train.batch_forward(model.params, model, batch, _FLOW)[:3]


def _first_decoder_state(model, batch):
    """The state the first decoder step emits from: the prior flowed onto y_1, then one transition."""
    y_1 = batch.y_hist[:, 0]
    p = model.params
    init, dyn, _ = noise.drawn(batch, model)
    x = edh_flow(p["rho"] * init, p["W_phi"], y_1, lambda m: np.logaddexp(0.0, m @ p["C_gamma"].T) ** 2, _FLOW)[0][0]
    y_rows = np.broadcast_to(y_1[0], (x.shape[0], model.n_series))
    return ssm.transition_core(p, model.hyper, x, y_rows, None)[0] + p["sigma"] * dyn[0, 0]


# ---------------------------------------------------------------------------
# construction and parameter bookkeeping
# ---------------------------------------------------------------------------


def test_param_shapes_is_pure_and_complete():
    hyper = {"kind": "gru", "n_series": 2, "d_x": 3, "layers": 2, "d_z": 0, "d_e": 10, "adjacency_mode": "mixed"}
    shapes1 = ssm.param_shapes(hyper)
    shapes2 = ssm.param_shapes(dict(hyper))
    assert shapes1 == shapes2
    # layer 0 consumes the observation, layer 1 the layer-0 output
    assert shapes1["l0.W_r"] == (1, 3)
    assert shapes1["l1.W_r"] == (3, 3)
    assert shapes1["l0.U_c"] == (3, 3)
    assert all(name.startswith("l") for name in shapes1)


def test_param_shapes_graph_variant_has_dual_weights():
    hyper = {"kind": "graph_gru", "n_series": 4, "d_x": 3, "layers": 1, "d_z": 2, "d_e": 10, "adjacency_mode": "mixed"}
    shapes = ssm.param_shapes(hyper)
    assert shapes["l0.r.Wu0"] == (3, 3)  # input is 1 + d_z wide
    assert shapes["l0.r.Wu1"] == (3, 3)
    assert shapes["l0.r.Wh0"] == (3, 3)
    assert shapes["embed"] == (4, 10)


def test_param_shapes_fixed_adjacency_drops_embedding():
    hyper = {"kind": "graph_gru", "n_series": 4, "d_x": 3, "layers": 1, "d_z": 0, "d_e": 10, "adjacency_mode": "fixed"}
    assert "embed" not in ssm.param_shapes(hyper)


def test_init_model_shapes_and_determinism():
    m1 = ssm.init_model(kind="gru", n_series=2, d_x=3, layers=1, d_z=0, seed=7)
    m2 = ssm.init_model(kind="gru", n_series=2, d_x=3, layers=1, d_z=0, seed=7)
    assert m1.state_dim == 6
    assert list(m1.params) == list(m2.params)
    for k in m1.params:
        np.testing.assert_array_equal(m1.params[k], m2.params[k])
    m3 = ssm.init_model(kind="gru", n_series=2, d_x=3, layers=1, d_z=0, seed=8)
    dyn = ssm.param_shapes(m1.hyper)
    assert any(not np.array_equal(m1.params[k], m3.params[k]) for k in dyn)


def test_model_rejects_wrong_parameter_shapes():
    model = ssm.init_model(kind="gru", n_series=2, d_x=3, layers=1, d_z=0, seed=0)
    bad = dict(model.params)
    bad["l0.W_r"] = np.zeros((5, 5))
    with pytest.raises(DataError):
        ssm.ModelTheta(model.hyper, bad)


def test_model_rejects_unknown_parameters():
    model = ssm.init_model(kind="gru", n_series=2, d_x=3, layers=1, d_z=0, seed=0)
    bad = dict(model.params)
    bad["mystery"] = np.zeros(3)
    with pytest.raises(DataError):
        ssm.ModelTheta(model.hyper, bad)


def test_model_rejects_a_missing_name_or_a_negative_scale():
    model = ssm.init_model(kind="gru", n_series=2, d_x=3, layers=1, d_z=0, seed=0)
    for name in ("rho", "l0.b_c", "C_gamma"):
        params = dict(model.params)
        del params[name]
        with pytest.raises(DataError, match=f"missing parameters \\['{name}'\\]"):
            ssm.ModelTheta(model.hyper, params)
    for name in ("rho", "sigma"):
        with pytest.raises(DataError, match=f"^{name} must be non-negative$"):
            ssm.ModelTheta(model.hyper, {**model.params, name: -1e-12})


# ---------------------------------------------------------------------------
# graph
# ---------------------------------------------------------------------------


def test_graph_rows_are_normalized():
    g = ssm.Graph.from_weights(np.array([[0.0, 2.0], [1.0, 1.0]]))
    np.testing.assert_allclose(g.normalized.sum(axis=1), [1.0, 1.0])
    np.testing.assert_allclose(g.normalized[0], [0.0, 1.0])
    np.testing.assert_allclose(g.normalized[1], [0.5, 0.5])


def test_graph_isolated_row_gets_self_loop():
    g = ssm.Graph.from_weights(np.zeros((2, 2)))
    np.testing.assert_allclose(g.normalized, np.eye(2))


def test_graph_rejects_negative_weights():
    with pytest.raises(DataError):
        ssm.Graph.from_weights(np.array([[0.0, -1.0], [0.0, 0.0]]))


def test_graph_rejects_non_square():
    with pytest.raises(DataError):
        ssm.Graph.from_weights(np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# transitions
# ---------------------------------------------------------------------------


def test_zero_weights_halve_the_previous_state():
    # all-zero parameters: both gates sit at sigmoid(0) = 1/2 and the
    # candidate is tanh(0) = 0, so the new state is half the old one.
    for kind in ("gru", "graph_gru"):
        model = ssm.init_model(kind=kind, n_series=3, d_x=2, layers=1, d_z=0, seed=0, sigma=0.0)
        model = ssm.ModelTheta(model.hyper, {**_zero_params(model), "sigma": 0.0})
        graph = ssm.Graph.from_weights(np.eye(3)) if kind == "graph_gru" else None
        x_prev = np.arange(6.0)[None, :]
        out = ssm.transition_core(model.params, model.hyper, x_prev, np.zeros((1, 3)), None, mixing=_mixing(model, graph))[0]
        np.testing.assert_allclose(out, 0.5 * x_prev, rtol=1e-12)


def test_zero_weights_halving_holds_for_stacked_layers():
    model = ssm.init_model(kind="gru", n_series=2, d_x=3, layers=3, d_z=0, seed=0, sigma=0.0)
    params = _zero_params(model)
    x_prev = np.linspace(-1.0, 1.0, 6)[None, :]
    out = ssm.transition_core(params, model.hyper, x_prev, np.zeros((1, 2)), None)[0]
    np.testing.assert_allclose(out, 0.5 * x_prev, rtol=1e-12)


def _mixing(model, graph):
    if model.hyper["kind"] != "graph_gru":
        return None
    return ssm.build_mixing(model.params, model.hyper, graph)


def test_gru_cell_matches_hand_rolled_reference(rng):
    # independent scalar reference for a single GRU cell
    model = ssm.init_model(kind="gru", n_series=1, d_x=1, layers=1, d_z=0, seed=11, sigma=0.0)
    p = model.params
    x_prev = np.array([[0.3]])
    y_prev = np.array([[0.7]])

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    r = sig(0.7 * p["l0.W_r"][0, 0] + 0.3 * p["l0.U_r"][0, 0] + p["l0.b_r"][0])
    z = sig(0.7 * p["l0.W_z"][0, 0] + 0.3 * p["l0.U_z"][0, 0] + p["l0.b_z"][0])
    c = np.tanh(0.7 * p["l0.W_c"][0, 0] + r * 0.3 * p["l0.U_c"][0, 0] + p["l0.b_c"][0])
    want = (1.0 - z) * 0.3 + z * c
    got = ssm.transition_core(p, model.hyper, x_prev, y_prev, None)[0]
    np.testing.assert_allclose(got, [[want]], rtol=1e-12)


def test_gru_nodes_do_not_interact():
    # one shared cell applied per node: changing node 1's history must not
    # change node 0's next state
    model = ssm.init_model(kind="gru", n_series=2, d_x=2, layers=1, d_z=0, seed=5, sigma=0.0)
    x_prev = np.array([[0.1, 0.2, 0.3, 0.4]])
    out1 = ssm.transition_core(model.params, model.hyper, x_prev, np.array([[1.0, 2.0]]), None)[0]
    out2 = ssm.transition_core(model.params, model.hyper, x_prev + np.array([0, 0, 9.0, 9.0]), np.array([[1.0, 5.0]]), None)[0]
    np.testing.assert_allclose(out1[0, :2], out2[0, :2], rtol=1e-12)


def test_gru_is_permutation_equivariant(rng):
    model = ssm.init_model(kind="gru", n_series=3, d_x=2, layers=2, d_z=0, seed=6, sigma=0.0)
    x_prev = rng.standard_normal(6)
    y_prev = rng.standard_normal(3)
    out = ssm.transition_core(model.params, model.hyper, x_prev[None, :], y_prev[None, :], None)[0]
    perm = np.array([2, 0, 1])
    x_perm = x_prev.reshape(3, 2)[perm].reshape(-1)
    out_perm = ssm.transition_core(model.params, model.hyper, x_perm[None, :], y_prev[perm][None, :], None)[0]
    np.testing.assert_allclose(out_perm[0], out[0].reshape(3, 2)[perm].reshape(-1), rtol=1e-12)


def test_graph_gru_single_node_equals_summed_weight_gru(rng):
    # with one node the mixing matrix is the 1x1 identity, so the pair of
    # conv weights acts as their sum
    model = ssm.init_model(kind="graph_gru", n_series=1, d_x=3, layers=1, d_z=0, seed=9, sigma=0.0)
    graph = ssm.Graph.from_weights(np.ones((1, 1)))
    x_prev = rng.standard_normal((1, 3))
    y_prev = rng.standard_normal((1, 1))
    mixing = ssm.build_mixing(model.params, model.hyper, graph)
    np.testing.assert_allclose(np.asarray(mixing), [[1.0]], rtol=1e-12)
    got = ssm.transition_core(model.params, model.hyper, x_prev, y_prev, None, mixing=mixing)[0]

    gru_params = {}
    for g in ("r", "z", "c"):
        gru_params[f"l0.W_{g}"] = model.params[f"l0.{g}.Wu0"] + model.params[f"l0.{g}.Wu1"]
        gru_params[f"l0.U_{g}"] = model.params[f"l0.{g}.Wh0"] + model.params[f"l0.{g}.Wh1"]
        gru_params[f"l0.b_{g}"] = model.params[f"l0.b_{g}"]
    gru_hyper = dict(model.hyper, kind="gru")
    want = ssm.transition_core(gru_params, gru_hyper, x_prev, y_prev, None)[0]
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_mixing_blends_given_and_learned_adjacency():
    model = ssm.init_model(kind="graph_gru", n_series=3, d_x=2, layers=1, d_z=0, seed=2)
    graph = ssm.Graph.from_weights(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]))
    mixing = np.asarray(ssm.build_mixing(model.params, model.hyper, graph))
    emb = model.params["embed"]
    scores = np.maximum(emb @ emb.T, 0.0)
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    learned = e / e.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(mixing, 0.5 * graph.normalized + 0.5 * learned, rtol=1e-12)
    np.testing.assert_allclose(mixing.sum(axis=1), np.ones(3), rtol=1e-12)


def test_mixing_modes():
    model_f = ssm.init_model(kind="graph_gru", n_series=2, d_x=2, layers=1, d_z=0, adjacency_mode="fixed", seed=2)
    graph = ssm.Graph.from_weights(np.array([[1.0, 1.0], [0.0, 1.0]]))
    np.testing.assert_allclose(np.asarray(ssm.build_mixing(model_f.params, model_f.hyper, graph)), graph.normalized)
    model_a = ssm.init_model(kind="graph_gru", n_series=2, d_x=2, layers=1, d_z=0, adjacency_mode="adaptive", seed=2)
    mix_a = np.asarray(ssm.build_mixing(model_a.params, model_a.hyper, None))
    np.testing.assert_allclose(mix_a.sum(axis=1), np.ones(2), rtol=1e-12)


def test_graph_gru_requires_graph_in_fixed_and_mixed_modes():
    model = ssm.init_model(kind="graph_gru", n_series=2, d_x=2, layers=1, d_z=0, adjacency_mode="mixed", seed=2)
    with pytest.raises(DataError):
        ssm.build_mixing(model.params, model.hyper, None)


def test_covariates_shift_the_transition(rng):
    model = ssm.init_model(kind="gru", n_series=2, d_x=2, layers=1, d_z=2, seed=1, sigma=0.0)
    x_prev = rng.standard_normal((1, 4))
    y_prev = rng.standard_normal((1, 2))
    out_a = ssm.transition_core(model.params, model.hyper, x_prev, y_prev, np.array([[0.0, 0.0]]))[0]
    out_b = ssm.transition_core(model.params, model.hyper, x_prev, y_prev, np.array([[1.0, -1.0]]))[0]
    assert not np.allclose(out_a, out_b)
    with pytest.raises(DataError):
        ssm.transition_core(model.params, model.hyper, x_prev, y_prev, None)
    with pytest.raises(DataError, match=r"shape \(1, 2\)"):  # covariates come one row per state row
        ssm.transition_core(model.params, model.hyper, x_prev, y_prev, np.array([1.0, -1.0]))
    plain = ssm.init_model(kind="gru", n_series=2, d_x=2, layers=1, d_z=0, seed=1, sigma=0.0)
    with pytest.raises(DataError, match=r"^the model takes no covariates \(d_z = 0\) but z_t is given$"):
        ssm.transition_core(plain.params, plain.hyper, x_prev, y_prev, np.array([[0.0, 0.0]]))


@pytest.mark.parametrize("kind", ["gru", "graph_gru"])
def test_transition_core_on_stacked_particles_equals_the_flat_rows(rng, kind):
    # (B, n_p, D) states run through the same products as their (B*n_p, D) rows
    b_sz, n_p, n = 3, 4, 3
    model = ssm.init_model(kind=kind, n_series=n, d_x=2, layers=2, d_z=2, seed=4, sigma=0.0)
    graph = ssm.Graph.from_weights(np.abs(rng.standard_normal((n, n))))
    mixing = _mixing(model, graph)
    x = rng.standard_normal((b_sz, n_p, model.state_dim))
    y = rng.standard_normal((b_sz, n_p, n))
    z = rng.standard_normal((b_sz, n_p, 2))
    stacked = ssm.transition_core(model.params, model.hyper, x, y, z, mixing=mixing)[0]
    flat = ssm.transition_core(model.params, model.hyper, x.reshape(-1, model.state_dim), y.reshape(-1, n), z.reshape(-1, 2), mixing=mixing)[0]
    assert stacked.shape == x.shape
    np.testing.assert_array_equal(stacked, flat.reshape(x.shape))


def test_transition_applies_noise_scale(tiny_gru_model, rng):
    # a one-step history: the flow does not read sigma, so the first decoder
    # states of the two models differ by sigma times the transition draw
    model = tiny_gru_model
    quiet = ssm.ModelTheta(model.hyper, {**model.params, "sigma": 0.0})
    batch = _short_batch(model, rng, 4, 1)
    _, noisy_means, _ = _forward(model, batch)
    _, quiet_means, _ = _forward(quiet, batch)
    dyn = noise.drawn(batch, model)[1]
    np.testing.assert_allclose(noisy_means[0] - quiet_means[0], model.params["sigma"] * dyn[0] @ model.params["W_phi"].T, rtol=1e-10, atol=1e-14)


def test_sigma_zero_transition_is_deterministic(tiny_gru_model, rng, monkeypatch):
    model = ssm.ModelTheta(tiny_gru_model.hyper, {**tiny_gru_model.params, "sigma": 0.0})
    # with the noise term off, the transition draws do not reach the samples
    batch = _short_batch(model, rng, 5, 3)
    before = _forward(model, batch)[0]
    init, dyn, meas = noise.drawn(batch, model)
    noise.serve(monkeypatch, init, np.random.default_rng(0).standard_normal(dyn.shape), meas)
    np.testing.assert_array_equal(_forward(model, batch)[0], before)


# ---------------------------------------------------------------------------
# initial ensemble and window noise
# ---------------------------------------------------------------------------


def test_init_ensemble_scales_with_rho(rng):
    # the first flow starts from rho times the window's initial draws: its
    # trace holds their P H^T
    model = ssm.init_model(kind="gru", n_series=1, d_x=2, layers=1, d_z=0, rho=2.0, seed=0)
    batch = _short_batch(model, rng, 2000, 1)
    first = train.batch_forward(model.params, model, batch, _FLOW, collect_trace=True)[3][0]
    init = noise.drawn(batch, model)[0]
    prior = model.params["rho"] * init[0]
    assert abs(prior.std() - 2.0) < 0.1
    w_phi = model.params["W_phi"]
    pht = np.cov(prior, rowvar=False, bias=True) @ w_phi.T + _FLOW.jitter * w_phi.T
    np.testing.assert_allclose(first.pht[0], pht, rtol=1e-12, atol=1e-15)
    again = train.batch_forward(model.params, model, _short_batch(model, rng, 2000, 1), _FLOW, collect_trace=True)[3][0]
    np.testing.assert_array_equal(again.pht, first.pht)  # a restacked window draws the same prior


def _window(window_id, p_steps, q_steps, n=1):
    """A window with the given id: its noise depends on nothing else."""
    zeros = np.zeros((window_id + p_steps + q_steps, n))
    s = data_mod.SeriesSet(values=zeros, names=[f"s{i}" for i in range(n)])
    return data_mod.make_windows(s, p_steps, q_steps)[window_id]


def _pass_draws(monkeypatch, model, windows, n_particles, seed_key):
    """The blocks of noise one forward pass over the stacked ``windows`` draws."""
    passes = noise.record(monkeypatch)
    batch = train.stack_batch(windows, model, n_particles, seed_key)
    train.batch_forward(model.params, model, batch, _FLOW)
    return passes[-1]


def test_window_noise_shapes_and_replay(tiny_gru_model, monkeypatch):
    # P = 4, Q = 2: the time-1 draw, the 3 encoder transitions in one block,
    # then the decoder's 2 transitions and its 2 measurement draws
    n1 = _pass_draws(monkeypatch, tiny_gru_model, [_window(17, 4, 2)], 3, 5)
    assert [a.shape for a in n1] == [(1, 1, 3, 2), (3, 1, 3, 2), (2, 1, 3, 2), (2, 1, 3, 1)]
    n2 = _pass_draws(monkeypatch, tiny_gru_model, [_window(17, 4, 2)], 3, 5)
    for a, b in zip(n1, n2):
        np.testing.assert_array_equal(a, b)
    n3 = _pass_draws(monkeypatch, tiny_gru_model, [_window(18, 4, 2)], 3, 5)
    assert not np.array_equal(n1[0], n3[0])


def test_window_noise_accepts_composite_seed(tiny_gru_model, monkeypatch):
    a = _pass_draws(monkeypatch, tiny_gru_model, [_window(0, 2, 2)], 2, (5, 3, 1))
    b = _pass_draws(monkeypatch, tiny_gru_model, [_window(0, 2, 2)], 2, (5, 3, 1))
    c = _pass_draws(monkeypatch, tiny_gru_model, [_window(0, 2, 2)], 2, (5, 3, 2))
    np.testing.assert_array_equal(a[0], b[0])
    assert not np.array_equal(a[0], c[0])


@pytest.mark.parametrize("seed_key", [5, (5, 3, 1)])
def test_window_noise_is_each_windows_own_stream(seed_key, monkeypatch):
    # window i of a stack draws from SeedSequence((*seed_key, window id)):
    # its time-1 draw, every transition draw, then every measurement draw,
    # bit for bit the numbers one draw per part gives, however the encoder
    # transitions are cut into blocks (15 rows: all 8 at once, 2 a block, or 1)
    model = ssm.init_model(kind="gru", n_series=2, d_x=3, layers=1, d_z=0, seed=0)
    windows = [_window(i, 9, 3, n=2) for i in (9, 2, 30)]
    key = (seed_key,) if isinstance(seed_key, int) else seed_key
    for rows, n_blocks in ((600, 1), (30, 4), (1, 8)):
        monkeypatch.setattr(train, "CHUNK_ROWS", rows)
        blocks = _pass_draws(monkeypatch, model, windows, 5, seed_key)
        assert len(blocks) == 1 + n_blocks + 2
        for i, w in enumerate(windows):
            rng = np.random.default_rng(np.random.SeedSequence((*key, w.window_id)))
            assert blocks[0][0, i].tobytes() == rng.standard_normal((5, 6)).tobytes()
            assert np.concatenate([b[:, i] for b in blocks[1:-1]]).tobytes() == rng.standard_normal((11, 5, 6)).tobytes()
            assert blocks[-1][:, i].tobytes() == rng.standard_normal((3, 5, 2)).tobytes()
        init, dyn, meas = noise.drawn(train.stack_batch(windows, model, 5, seed_key), model)
        assert init.tobytes() == blocks[0][0].tobytes()
        assert dyn.tobytes() == np.concatenate(blocks[1:-1]).tobytes()
        assert meas.tobytes() == blocks[-1].tobytes()


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def test_measurement_mean_is_linear_readout(rng):
    model = ssm.init_model(kind="gru", n_series=2, d_x=2, layers=1, d_z=0, seed=0)
    model.params["C_gamma"] = 0.5 * rng.standard_normal(model.params["C_gamma"].shape)
    batch = _short_batch(model, rng, 3, 1)
    _, means, _ = _forward(model, batch)
    np.testing.assert_allclose(means[0][0], _first_decoder_state(model, batch) @ model.params["W_phi"].T, rtol=1e-12)


def test_measurement_std_is_softplus_of_readout(rng):
    model = ssm.init_model(kind="gru", n_series=2, d_x=2, layers=1, d_z=0, seed=0)
    model.params["C_gamma"] = 0.5 * rng.standard_normal(model.params["C_gamma"].shape)
    batch = _short_batch(model, rng, 3, 1)
    _, _, stds = _forward(model, batch)
    np.testing.assert_allclose(stds[0][0], np.logaddexp(0.0, _first_decoder_state(model, batch) @ model.params["C_gamma"].T), rtol=1e-12)


def test_sample_measurement_uses_given_draws(tiny_gru_model, rng):
    # each sample is its emission mean plus std times the window's own draw
    model = tiny_gru_model
    batch = _short_batch(model, rng, 3, 3)
    samples, means, stds = _forward(model, batch)
    meas = noise.drawn(batch, model)[2]
    for k in range(3):
        np.testing.assert_array_equal(samples[0, :, k], means[k][0] + stds[k][0] * meas[k, 0])


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_round_trip_is_bitwise(tmp_path, rng):
    model = ssm.init_model(kind="graph_gru", n_series=3, d_x=4, layers=2, d_z=2, seed=13, rho=1.3, sigma=0.07)
    path = tmp_path / "model.npz"
    ssm.save_checkpoint(path, model)
    loaded = ssm.load_checkpoint(path)
    assert loaded.hyper == model.hyper
    assert list(loaded.params) == list(model.params)
    for k, arr in model.params.items():
        assert loaded.params[k].dtype == arr.dtype and loaded.params[k].shape == arr.shape
        np.testing.assert_array_equal(loaded.params[k], arr)


def test_committed_checkpoint_round_trips_byte_for_byte(tmp_path):
    committed = Path(__file__).resolve().parents[1] / "perfbench" / "model" / "checkpoint.npz"
    ssm.save_checkpoint(tmp_path / "again.npz", ssm.load_checkpoint(committed))
    assert (tmp_path / "again.npz").read_bytes() == committed.read_bytes()


def test_fitted_checkpoint_lists_its_entries_in_format_order(tmp_path, rng):
    # format 1: rho, sigma, W_phi, C_gamma, the dynamics arrays in
    # param_shapes order (not the sorted order of model.params), then meta
    model = ssm.init_model(kind="graph_gru", n_series=2, d_x=2, layers=1, rho=0.8, sigma=0.05, init_scale=0.5, seed=1)
    vals = 0.5 * rng.standard_normal((30, 2))
    s = data_mod.SeriesSet(values=vals, names=["a", "b"])
    windows = data_mod.make_windows(s, 3, 2)
    dataset = train.TrainData(train_windows=windows[:8], val_windows=windows[8:12], graph=ssm.Graph.from_weights(np.ones((2, 2))))
    result = train.fit(dataset, model, train.TrainConfig(max_epochs=1, batch_size=4, n_particles_eval=2, flow=_FLOW))
    ssm.save_checkpoint(tmp_path / "fit.npz", result.model)
    dyn = [name for g in "rzc" for name in (f"l0.{g}.Wu0", f"l0.{g}.Wu1", f"l0.{g}.Wh0", f"l0.{g}.Wh1", f"l0.b_{g}")] + ["embed"]
    want = ["rho", "sigma", "W_phi", "C_gamma", *(f"dyn.{name}" for name in dyn), "meta"]
    with zipfile.ZipFile(tmp_path / "fit.npz") as zf:
        assert zf.namelist() == [f"{name}.npy" for name in want]


@pytest.mark.parametrize("edit", ["dyn.rho", "unprefixed embed", "no C_gamma"])
def test_checkpoint_rejects_entries_the_format_does_not_name(tmp_path, edit):
    model = ssm.init_model(kind="graph_gru", n_series=2, d_x=2, layers=1, seed=0)
    ssm.save_checkpoint(tmp_path / "model.npz", model)
    data = dict(np.load(tmp_path / "model.npz"))
    if edit == "dyn.rho":  # a second rho, which must not shadow the first
        data["dyn.rho"] = np.array(7.0)
    elif edit == "unprefixed embed":
        data["embed"] = data.pop("dyn.embed")
    else:
        del data["C_gamma"]
    np.savez(tmp_path / "model.npz", **data)
    with pytest.raises(DataError, match="entries"):
        ssm.load_checkpoint(tmp_path / "model.npz")


def test_checkpoint_rejects_unknown_format(tmp_path):
    model = ssm.init_model(kind="gru", n_series=1, d_x=1, layers=1, d_z=0, seed=0)
    path = tmp_path / "model.npz"
    ssm.save_checkpoint(path, model)
    data = dict(np.load(path, allow_pickle=False))
    import json

    meta = json.loads(bytes(data["meta"]).decode("utf-8"))
    meta["format"] = 999
    data["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    np.savez(path, **data)
    with pytest.raises(DataError):
        ssm.load_checkpoint(path)


@pytest.mark.parametrize(
    "meta", [b"{not json", b"\xff\xfe", b"[1, 2]", b'{"format": 1}', b'{"format": 1, "hyper": null}', b'{"format": 1, "hyper": {"kind": "gru"}}']
)
def test_checkpoint_with_a_malformed_meta_entry_is_a_data_error(tmp_path, meta):
    model = ssm.init_model(kind="gru", n_series=1, d_x=1, layers=1, seed=0)
    path = tmp_path / "model.npz"
    ssm.save_checkpoint(path, model)
    data = dict(np.load(path))
    data["meta"] = np.frombuffer(meta, dtype=np.uint8)
    np.savez(path, **data)
    with pytest.raises(DataError, match=f"checkpoint {re.escape(str(path))} has a malformed meta entry"):
        ssm.load_checkpoint(path)


# ---------------------------------------------------------------------------
# input checks
# ---------------------------------------------------------------------------


def _mixing_of_two_series(graph):
    model = ssm.init_model(kind="graph_gru", n_series=2, d_x=2, layers=1)
    return ssm.build_mixing(model.params, model.hyper, graph)


def _save_npz(path, **arrays):
    np.savez(path, **arrays)
    return path


def _save_text(path, text):
    path.write_text(text)
    return path


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda tmp: ssm.init_model(n_series=0), "n_series must be positive and d_z non-negative"),
        (lambda tmp: _mixing_of_two_series(ssm.Graph.from_weights(np.ones((3, 3)))), "graph size does not match the number of series"),
        (lambda tmp: ssm.load_checkpoint(tmp / "missing.npz"), "cannot read checkpoint {tmp}/missing.npz: "),
        (lambda tmp: ssm.load_checkpoint(_save_text(tmp / "text.npz", "not a checkpoint\n")), "not a model checkpoint: {tmp}/text.npz: "),
        (lambda tmp: ssm.load_checkpoint(_save_npz(tmp / "bare.npz", a=np.zeros(1))), "not a model checkpoint: {tmp}/bare.npz"),
    ],
    ids=["no_series", "graph_size", "missing_file", "not_npz", "no_meta"],
)
def test_input_checks(tmp_path, call, message):
    message = message.format(tmp=tmp_path)  # a message ending ": " goes on with the reader's own error
    with pytest.raises(DataError, match=f"^{re.escape(message)}" + ("" if message.endswith(": ") else "$")):
        call(tmp_path)
