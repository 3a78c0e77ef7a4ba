"""State-space model: recurrent transitions, graph mixing, the emission,
noise bookkeeping, and checkpoint persistence."""

import numpy as np
import pytest

from flowcast import autodiff as ad
from flowcast import data as data_mod
from flowcast import ssm
from flowcast import train
from flowcast.errors import DataError
from flowcast.flow import FlowConfig, edh_flow


def _zero_params(model):
    return {k: np.zeros_like(v) for k, v in model.dyn_params.items()}


_FLOW = FlowConfig(n_lambda=8)


def _short_batch(model, rng, n_particles, q_steps):
    """One stacked window with a one-step history and ``q_steps`` horizon steps."""
    n = model.n_series
    vals = 0.5 * rng.standard_normal((1 + q_steps, n))
    s = data_mod.SeriesSet(values=vals, missing=np.zeros(vals.shape, bool), names=[f"s{i}" for i in range(n)])
    return train.stack_batch(data_mod.make_windows(s, 1, q_steps), model, n_particles, 0)


def _forward(model, batch):
    """batch_forward's (samples, emission means, emission stds) on plain parameter arrays."""
    params = {name: train.get_param(model, name) for name in train.param_names(model)}
    return train.batch_forward(params, model, batch, _FLOW)[:3]


def _first_decoder_state(model, batch):
    """The state the first decoder step emits from: the prior flowed onto y_1, then one transition."""
    y_1 = batch.y_hist[:, 0]
    x = edh_flow(model.rho * batch.init, model.W_phi, y_1, lambda m: np.logaddexp(0.0, m @ model.C_gamma.T) ** 2, _FLOW)[0]
    y_rows = np.broadcast_to(y_1[0], (x.shape[0], model.n_series))
    return ssm.transition_core(model.dyn_params, model.hyper, x, y_rows, None) + model.sigma * batch.dyn[0, 0]


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
    for k in m1.dyn_params:
        np.testing.assert_array_equal(m1.dyn_params[k], m2.dyn_params[k])
    np.testing.assert_array_equal(m1.W_phi, m2.W_phi)
    m3 = ssm.init_model(kind="gru", n_series=2, d_x=3, layers=1, d_z=0, seed=8)
    assert any(not np.array_equal(m1.dyn_params[k], m3.dyn_params[k]) for k in m1.dyn_params)


def test_model_rejects_wrong_parameter_shapes():
    model = ssm.init_model(kind="gru", n_series=2, d_x=3, layers=1, d_z=0, seed=0)
    bad = dict(model.dyn_params)
    bad["l0.W_r"] = np.zeros((5, 5))
    with pytest.raises(DataError):
        ssm.ModelTheta(rho=1.0, sigma=0.0, dyn_params=bad, W_phi=model.W_phi, C_gamma=model.C_gamma, hyper=model.hyper)


def test_model_rejects_unknown_parameters():
    model = ssm.init_model(kind="gru", n_series=2, d_x=3, layers=1, d_z=0, seed=0)
    bad = dict(model.dyn_params)
    bad["mystery"] = np.zeros(3)
    with pytest.raises(DataError):
        ssm.ModelTheta(rho=1.0, sigma=0.0, dyn_params=bad, W_phi=model.W_phi, C_gamma=model.C_gamma, hyper=model.hyper)


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
        model = ssm.ModelTheta(
            rho=model.rho,
            sigma=0.0,
            dyn_params=_zero_params(model),
            W_phi=model.W_phi,
            C_gamma=model.C_gamma,
            hyper=model.hyper,
        )
        graph = ssm.Graph.from_weights(np.eye(3)) if kind == "graph_gru" else None
        x_prev = np.arange(6.0)[None, :]
        out = ssm.transition_core(model.dyn_params, model.hyper, x_prev, np.zeros((1, 3)), None, mixing=_mixing(model, graph))
        np.testing.assert_allclose(out, 0.5 * x_prev, rtol=1e-12)


def test_zero_weights_halving_holds_for_stacked_layers():
    model = ssm.init_model(kind="gru", n_series=2, d_x=3, layers=3, d_z=0, seed=0, sigma=0.0)
    params = _zero_params(model)
    x_prev = np.linspace(-1.0, 1.0, 6)[None, :]
    out = ssm.transition_core(params, model.hyper, x_prev, np.zeros((1, 2)), None)
    np.testing.assert_allclose(out, 0.5 * x_prev, rtol=1e-12)


def _mixing(model, graph):
    if model.kind != "graph_gru":
        return None
    return ssm.build_mixing(model.dyn_params, model.hyper, graph)


def test_gru_cell_matches_hand_rolled_reference(rng):
    # independent scalar reference for a single GRU cell
    model = ssm.init_model(kind="gru", n_series=1, d_x=1, layers=1, d_z=0, seed=11, sigma=0.0)
    p = model.dyn_params
    x_prev = np.array([[0.3]])
    y_prev = np.array([[0.7]])

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    r = sig(0.7 * p["l0.W_r"][0, 0] + 0.3 * p["l0.U_r"][0, 0] + p["l0.b_r"][0])
    z = sig(0.7 * p["l0.W_z"][0, 0] + 0.3 * p["l0.U_z"][0, 0] + p["l0.b_z"][0])
    c = np.tanh(0.7 * p["l0.W_c"][0, 0] + r * 0.3 * p["l0.U_c"][0, 0] + p["l0.b_c"][0])
    want = (1.0 - z) * 0.3 + z * c
    got = ssm.transition_core(p, model.hyper, x_prev, y_prev, None)
    np.testing.assert_allclose(got, [[want]], rtol=1e-12)


def test_gru_nodes_do_not_interact():
    # one shared cell applied per node: changing node 1's history must not
    # change node 0's next state
    model = ssm.init_model(kind="gru", n_series=2, d_x=2, layers=1, d_z=0, seed=5, sigma=0.0)
    x_prev = np.array([[0.1, 0.2, 0.3, 0.4]])
    out1 = ssm.transition_core(model.dyn_params, model.hyper, x_prev, np.array([[1.0, 2.0]]), None)
    out2 = ssm.transition_core(model.dyn_params, model.hyper, x_prev + np.array([0, 0, 9.0, 9.0]), np.array([[1.0, 5.0]]), None)
    np.testing.assert_allclose(out1[0, :2], out2[0, :2], rtol=1e-12)


def test_gru_is_permutation_equivariant(rng):
    model = ssm.init_model(kind="gru", n_series=3, d_x=2, layers=2, d_z=0, seed=6, sigma=0.0)
    x_prev = rng.standard_normal(6)
    y_prev = rng.standard_normal(3)
    out = ssm.transition_core(model.dyn_params, model.hyper, x_prev[None, :], y_prev[None, :], None)
    perm = np.array([2, 0, 1])
    x_perm = x_prev.reshape(3, 2)[perm].reshape(-1)
    out_perm = ssm.transition_core(model.dyn_params, model.hyper, x_perm[None, :], y_prev[perm][None, :], None)
    np.testing.assert_allclose(out_perm[0], out[0].reshape(3, 2)[perm].reshape(-1), rtol=1e-12)


def test_graph_gru_single_node_equals_summed_weight_gru(rng):
    # with one node the mixing matrix is the 1x1 identity, so the pair of
    # conv weights acts as their sum
    model = ssm.init_model(kind="graph_gru", n_series=1, d_x=3, layers=1, d_z=0, seed=9, sigma=0.0)
    graph = ssm.Graph.from_weights(np.ones((1, 1)))
    x_prev = rng.standard_normal((1, 3))
    y_prev = rng.standard_normal((1, 1))
    mixing = ssm.build_mixing(model.dyn_params, model.hyper, graph)
    np.testing.assert_allclose(np.asarray(mixing), [[1.0]], rtol=1e-12)
    got = ssm.transition_core(model.dyn_params, model.hyper, x_prev, y_prev, None, mixing=mixing)

    gru_params = {}
    for g in ("r", "z", "c"):
        gru_params[f"l0.W_{g}"] = model.dyn_params[f"l0.{g}.Wu0"] + model.dyn_params[f"l0.{g}.Wu1"]
        gru_params[f"l0.U_{g}"] = model.dyn_params[f"l0.{g}.Wh0"] + model.dyn_params[f"l0.{g}.Wh1"]
        gru_params[f"l0.b_{g}"] = model.dyn_params[f"l0.b_{g}"]
    gru_hyper = dict(model.hyper, kind="gru")
    want = ssm.transition_core(gru_params, gru_hyper, x_prev, y_prev, None)
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_mixing_blends_given_and_learned_adjacency():
    model = ssm.init_model(kind="graph_gru", n_series=3, d_x=2, layers=1, d_z=0, seed=2)
    graph = ssm.Graph.from_weights(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]))
    mixing = np.asarray(ssm.build_mixing(model.dyn_params, model.hyper, graph))
    emb = model.dyn_params["embed"]
    scores = np.maximum(emb @ emb.T, 0.0)
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    learned = e / e.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(mixing, 0.5 * graph.normalized + 0.5 * learned, rtol=1e-12)
    np.testing.assert_allclose(mixing.sum(axis=1), np.ones(3), rtol=1e-12)


def test_mixing_modes():
    model_f = ssm.init_model(kind="graph_gru", n_series=2, d_x=2, layers=1, d_z=0, adjacency_mode="fixed", seed=2)
    graph = ssm.Graph.from_weights(np.array([[1.0, 1.0], [0.0, 1.0]]))
    np.testing.assert_allclose(np.asarray(ssm.build_mixing(model_f.dyn_params, model_f.hyper, graph)), graph.normalized)
    model_a = ssm.init_model(kind="graph_gru", n_series=2, d_x=2, layers=1, d_z=0, adjacency_mode="adaptive", seed=2)
    mix_a = np.asarray(ssm.build_mixing(model_a.dyn_params, model_a.hyper, None))
    np.testing.assert_allclose(mix_a.sum(axis=1), np.ones(2), rtol=1e-12)


def test_graph_gru_requires_graph_in_fixed_and_mixed_modes():
    model = ssm.init_model(kind="graph_gru", n_series=2, d_x=2, layers=1, d_z=0, adjacency_mode="mixed", seed=2)
    with pytest.raises(DataError):
        ssm.build_mixing(model.dyn_params, model.hyper, None)


def test_covariates_shift_the_transition(rng):
    model = ssm.init_model(kind="gru", n_series=2, d_x=2, layers=1, d_z=2, seed=1, sigma=0.0)
    x_prev = rng.standard_normal((1, 4))
    y_prev = rng.standard_normal((1, 2))
    out_a = ssm.transition_core(model.dyn_params, model.hyper, x_prev, y_prev, np.array([0.0, 0.0]))
    out_b = ssm.transition_core(model.dyn_params, model.hyper, x_prev, y_prev, np.array([1.0, -1.0]))
    assert not np.allclose(out_a, out_b)
    with pytest.raises(DataError):
        ssm.transition_core(model.dyn_params, model.hyper, x_prev, y_prev, None)


def test_transition_applies_noise_scale(tiny_gru_model, rng):
    # a one-step history: the flow does not read sigma, so the first decoder
    # states of the two models differ by sigma times the transition draw
    model = tiny_gru_model
    quiet = ssm.ModelTheta(rho=model.rho, sigma=0.0, dyn_params=model.dyn_params, W_phi=model.W_phi, C_gamma=model.C_gamma, hyper=model.hyper)
    batch = _short_batch(model, rng, 4, 1)
    _, noisy_means, _ = _forward(model, batch)
    _, quiet_means, _ = _forward(quiet, batch)
    np.testing.assert_allclose(noisy_means[0] - quiet_means[0], model.sigma * batch.dyn[0] @ model.W_phi.T, rtol=1e-10, atol=1e-14)


def test_sigma_zero_transition_is_deterministic(tiny_gru_model, rng):
    model = ssm.ModelTheta(
        rho=tiny_gru_model.rho,
        sigma=0.0,
        dyn_params=tiny_gru_model.dyn_params,
        W_phi=tiny_gru_model.W_phi,
        C_gamma=tiny_gru_model.C_gamma,
        hyper=tiny_gru_model.hyper,
    )
    # with the noise term off, the transition draws do not reach the samples
    batch = _short_batch(model, rng, 5, 3)
    before = _forward(model, batch)[0]
    batch.dyn = np.random.default_rng(0).standard_normal(batch.dyn.shape)
    np.testing.assert_array_equal(_forward(model, batch)[0], before)


# ---------------------------------------------------------------------------
# initial ensemble and window noise
# ---------------------------------------------------------------------------


def test_init_ensemble_scales_with_rho(rng):
    # the first flow starts from rho times the window's initial draws: its
    # trace holds their mean and their P H^T
    model = ssm.init_model(kind="gru", n_series=1, d_x=2, layers=1, d_z=0, rho=2.0, seed=0)
    batch = _short_batch(model, rng, 2000, 1)
    params = {name: train.get_param(model, name) for name in train.param_names(model)}
    first = train.batch_forward(params, model, batch, _FLOW, collect_trace=True)[3][0]
    prior = model.rho * batch.init[0]
    assert abs(prior.std() - 2.0) < 0.1
    np.testing.assert_allclose(first.mean[0], prior.mean(axis=0), rtol=1e-12, atol=1e-15)
    pht = np.cov(prior, rowvar=False, bias=True) @ model.W_phi.T + _FLOW.jitter * model.W_phi.T
    np.testing.assert_allclose(first.pht[0], pht, rtol=1e-12, atol=1e-15)
    np.testing.assert_array_equal(_short_batch(model, rng, 2000, 1).init, batch.init)


def test_window_noise_shapes_and_replay(tiny_gru_model):
    n1 = ssm.make_window_noise(5, 17, 3, tiny_gru_model, p_steps=4, q_steps=2)
    assert n1.init.shape == (3, 2)
    assert n1.dyn.shape == (5, 3, 2)
    assert n1.meas.shape == (2, 3, 1)
    n2 = ssm.make_window_noise(5, 17, 3, tiny_gru_model, p_steps=4, q_steps=2)
    np.testing.assert_array_equal(n1.init, n2.init)
    np.testing.assert_array_equal(n1.dyn, n2.dyn)
    np.testing.assert_array_equal(n1.meas, n2.meas)
    n3 = ssm.make_window_noise(5, 18, 3, tiny_gru_model, p_steps=4, q_steps=2)
    assert not np.array_equal(n1.init, n3.init)


def test_window_noise_accepts_composite_seed(tiny_gru_model):
    a = ssm.make_window_noise((5, 3, 1), 0, 2, tiny_gru_model, 2, 2)
    b = ssm.make_window_noise((5, 3, 1), 0, 2, tiny_gru_model, 2, 2)
    c = ssm.make_window_noise((5, 3, 2), 0, 2, tiny_gru_model, 2, 2)
    np.testing.assert_array_equal(a.init, b.init)
    assert not np.array_equal(a.init, c.init)


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def test_measurement_mean_is_linear_readout(rng):
    model = ssm.init_model(kind="gru", n_series=2, d_x=2, layers=1, d_z=0, seed=0)
    model.C_gamma = 0.5 * rng.standard_normal(model.C_gamma.shape)
    batch = _short_batch(model, rng, 3, 1)
    _, means, _ = _forward(model, batch)
    np.testing.assert_allclose(means[0][0], _first_decoder_state(model, batch) @ model.W_phi.T, rtol=1e-12)


def test_measurement_std_is_softplus_of_readout(rng):
    model = ssm.init_model(kind="gru", n_series=2, d_x=2, layers=1, d_z=0, seed=0)
    model.C_gamma = 0.5 * rng.standard_normal(model.C_gamma.shape)
    batch = _short_batch(model, rng, 3, 1)
    _, _, stds = _forward(model, batch)
    np.testing.assert_allclose(stds[0][0], np.logaddexp(0.0, _first_decoder_state(model, batch) @ model.C_gamma.T), rtol=1e-12)
    # the softplus itself, at both tails; softplus(3) is about 3.0486, comfortably positive
    got = ad.softplus(np.array([3.0, 0.0, -40.0]))
    np.testing.assert_allclose(got, [np.log1p(np.exp(3.0)), np.log(2.0), np.logaddexp(0.0, -40.0)], rtol=1e-12)
    assert abs(got[0] - 3.048587351573742) < 1e-12


def test_sample_measurement_uses_given_draws(tiny_gru_model, rng):
    # each sample is its emission mean plus std times the window's own draw
    model = tiny_gru_model
    batch = _short_batch(model, rng, 3, 3)
    samples, means, stds = _forward(model, batch)
    draws = ssm.make_window_noise(0, batch.window_ids[0], 3, model, 1, 3).meas
    for k in range(3):
        np.testing.assert_array_equal(samples[0, :, k], means[k][0] + stds[k][0] * draws[k])


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_round_trip_is_bitwise(tmp_path, rng):
    model = ssm.init_model(kind="graph_gru", n_series=3, d_x=4, layers=2, d_z=2, seed=13, rho=1.3, sigma=0.07)
    path = tmp_path / "model.npz"
    ssm.save_checkpoint(path, model)
    loaded = ssm.load_checkpoint(path)
    assert loaded.rho == model.rho and loaded.sigma == model.sigma
    assert loaded.hyper == model.hyper
    for k in model.dyn_params:
        np.testing.assert_array_equal(loaded.dyn_params[k], model.dyn_params[k])
    np.testing.assert_array_equal(loaded.W_phi, model.W_phi)
    np.testing.assert_array_equal(loaded.C_gamma, model.C_gamma)


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
