"""Training: losses (hand cases and finite-difference gradient checks),
the optimizer, the schedule knobs, and the fit loop."""

import math
import tracemalloc

import numpy as np
import pytest

from flowcast import data as data_mod
from flowcast import ssm as ssm_mod
from flowcast import train
from flowcast.errors import DataError, FlowDivergedError, FlowSolveError
from flowcast.flow import FlowConfig


def _tiny_model(n_series=1, d_x=2, sigma=0.05, seed=3, kind="gru", layers=1, d_z=0):
    return ssm_mod.init_model(
        kind=kind, n_series=n_series, d_x=d_x, layers=layers, d_z=d_z, rho=0.8, sigma=sigma, init_scale=0.5, seed=seed
    )


def _windows(rng, t=40, n=1, p=4, q=3, period=None):
    vals = 0.5 * rng.standard_normal((t, n))
    s = data_mod.SeriesSet(values=vals, names=[f"s{i}" for i in range(n)])
    return data_mod.make_windows(s, p, q, period=period)


def _config(**kw):
    kw.setdefault("flow", FlowConfig(n_lambda=5))
    kw.setdefault("loss", "mae")
    kw.setdefault("n_particles_train", 1)
    kw.setdefault("n_particles_eval", 3)
    kw.setdefault("batch_size", 4)
    kw.setdefault("max_epochs", 3)
    return train.TrainConfig(**kw)


# ---------------------------------------------------------------------------
# parameter plumbing
# ---------------------------------------------------------------------------


def test_param_round_trip_through_flat_vector():
    model = _tiny_model(n_series=2, d_x=3)
    vec = train.flatten_params(model)
    values = train.unflatten_params(model, vec)
    assert list(values) == train.param_names(model)
    for name in train.param_names(model):
        np.testing.assert_array_equal(values[name], train.get_param(model, name))
    rebuilt = ssm_mod.ModelTheta(model.hyper, values)
    for name, arr in model.params.items():
        np.testing.assert_array_equal(rebuilt.params[name], arr)
    with pytest.raises(DataError, match="wrong length"):
        train.unflatten_params(model, np.append(vec, 0.0))


def test_param_names_cover_all_trainables():
    model = _tiny_model()
    names = train.param_names(model)
    assert "rho" in names and "sigma" in names
    assert "W_phi" in names and "C_gamma" in names
    assert set(ssm_mod.param_shapes(model.hyper)) <= set(names)
    assert names == list(model.params)


# ---------------------------------------------------------------------------
# loss hand cases
# ---------------------------------------------------------------------------


def _batch_emitting(model, windows, cfg, wanted, target):
    """A stacked batch whose decoder draws make the samples ``wanted`` (B, n_p, Q, N), scored against ``target`` (B, Q, N)."""
    batch = train.stack_batch(windows, model, wanted.shape[1], cfg.seed)
    for k in range(wanted.shape[2]):  # step k's mean and std depend only on the draws before it
        _, means, stds, _ = train.batch_forward(model.params, model, batch, cfg.flow)
        batch.meas[k] = (wanted[:, :, k] - means[k]) / stds[k]
    batch.y_future = np.asarray(target, dtype=np.float64)
    return batch


def test_mae_loss_single_sample_is_absolute_error(rng):
    model = _tiny_model()
    cfg = _config(loss="mae")
    wanted = np.array([[[[1.0], [3.0]]]])  # (B=1, 1 particle, Q=2, N=1)
    batch = _batch_emitting(model, _windows(rng, q=2)[:1], cfg, wanted, [[[0.0], [5.0]]])
    np.testing.assert_allclose(train.batch_loss(model, batch, cfg), (1.0 + 2.0) / 2)


def test_mae_loss_uses_particle_median(rng):
    model = _tiny_model()
    cfg = _config(loss="mae")
    wanted = np.array([[[[0.0]], [[10.0]], [[1.0]]]])  # (B=1, 3 particles, Q=1, N=1)
    batch = _batch_emitting(model, _windows(rng, q=1)[:1], cfg, wanted, [[[2.0]]])
    np.testing.assert_allclose(train.batch_loss(model, batch, cfg), 1.0)  # median 1.0 vs target 2.0


def test_nll_loss_single_gaussian_closed_form(rng):
    # one particle, one step: -log N(y; mean, std^2)
    model = _tiny_model()
    cfg = _config(loss="nll")
    batch = train.stack_batch(_windows(rng, q=1)[:1], model, 1, cfg.seed)
    batch.y_future = np.array([[[0.9]]])
    _, means, stds, _ = train.batch_forward(model.params, model, batch, cfg.flow)
    mean, std, y = means[0][0, 0, 0], stds[0][0, 0, 0], 0.9
    want = 0.5 * np.log(2 * np.pi * std**2) + (y - mean) ** 2 / (2 * std**2)
    np.testing.assert_allclose(train.batch_loss(model, batch, cfg), want, rtol=1e-10)


def test_nll_loss_multiple_particles_mixes_before_log(rng):
    model = _tiny_model()
    model.params["C_gamma"] = np.array([[0.7, -0.4]])  # a state-dependent std, different per particle
    cfg = _config(loss="nll")
    batch = train.stack_batch(_windows(rng, q=2)[:1], model, 4, cfg.seed)
    y = batch.y_future[0]
    _, means, stds, _ = train.batch_forward(model.params, model, batch, cfg.flow)

    total = 0.0
    for t in range(2):
        lls = []
        for j in range(4):
            mean, std = means[t][0, j], stds[t][0, j]
            lls.append(-0.5 * np.log(2 * np.pi * std**2).sum() - ((y[t] - mean) ** 2 / (2 * std**2)).sum())
        m = max(lls)
        total += -(m + np.log(np.mean(np.exp(np.array(lls) - m))))
    np.testing.assert_allclose(train.batch_loss(model, batch, cfg), total, rtol=1e-10)


def test_losses_need_target_rows(rng):
    model = _tiny_model()
    windows = _windows(rng, q=0)[:2]
    batch = train.stack_batch(windows, model, 1, 0)
    assert batch.y_future.shape == (2, 0, 1)
    for loss in ("mae", "nll"):
        with pytest.raises(DataError, match="target rows"):
            train.batch_loss(model, batch, _config(loss=loss))
        with pytest.raises(DataError, match="target rows"):
            train.gradients(model, batch, _config(loss=loss))


def test_batch_forward_mae_equals_quantile_loss_at_half(rng):
    # scoring the particle median with pinball loss at alpha = 0.5 gives
    # 2 * 0.5 * |err| = |err|, so the MAE objective matches it exactly
    from flowcast import metrics

    model = _tiny_model(sigma=0.0)
    windows = _windows(rng)[:3]
    cfg = _config(n_particles_train=3)
    batch = train.stack_batch(windows, model, 3, 0)
    samples = train.batch_forward(model.params, model, batch, cfg.flow)[0]
    med = np.median(samples, axis=1)
    ql = metrics.quantile_loss(batch.y_future.ravel(), med.ravel(), 0.5)
    np.testing.assert_allclose(train.batch_loss(model, batch, cfg), ql.mean(), rtol=1e-10)


# ---------------------------------------------------------------------------
# gradient checks against finite differences
# ---------------------------------------------------------------------------


def _fd_check(model, windows, cfg, graph=None, rel_tol=1e-4, n_coords=12, seed=0):
    batch = train.stack_batch(windows, model, cfg.n_particles_train, cfg.seed)
    loss0, grads, trace = train.gradients(model, batch, cfg, graph=graph)
    flat_grad = train.flatten_params(model, grads)
    x0 = train.flatten_params(model)

    def f(vec):
        values = train.unflatten_params(model, vec)
        return train.batch_loss(model, batch, cfg, graph=graph, values=values, frozen_trace=trace)

    rng = np.random.default_rng(seed)
    idx = rng.choice(x0.size, size=min(n_coords, x0.size), replace=False)
    errs = []
    for i in idx:
        eps = 1e-6 * max(1.0, abs(x0[i]))
        xp = x0.copy()
        xp[i] += eps
        xm = x0.copy()
        xm[i] -= eps
        fd = (f(xp) - f(xm)) / (2 * eps)
        denom = max(abs(fd), abs(flat_grad[i]), 1e-8)
        errs.append(abs(fd - flat_grad[i]) / denom)
    return np.array(errs), loss0


def test_gradients_match_finite_differences_mae(rng):
    model = _tiny_model(sigma=0.05)
    windows = _windows(rng, p=2, q=2)[:2]
    cfg = _config(loss="mae", flow=FlowConfig(n_lambda=5), n_particles_train=1, scheduled_sampling_tau=0.0)
    errs, _ = _fd_check(model, windows, cfg)
    assert errs.max() < 1e-4


def test_gradients_match_finite_differences_nll(rng):
    model = _tiny_model(sigma=0.05)
    windows = _windows(rng, p=2, q=2)[:2]
    cfg = _config(loss="nll", flow=FlowConfig(n_lambda=5), n_particles_train=2, scheduled_sampling_tau=0.0)
    errs, _ = _fd_check(model, windows, cfg)
    assert errs.max() < 1e-4


def test_gradients_graph_model_and_covariates(rng):
    model = _tiny_model(n_series=3, kind="graph_gru", d_z=2, seed=7)
    graph = ssm_mod.Graph.from_weights(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]))
    windows = _windows(rng, n=3, p=2, q=2, period=12)[:2]
    cfg = _config(loss="nll", flow=FlowConfig(n_lambda=4), n_particles_train=1, scheduled_sampling_tau=0.0)
    errs, _ = _fd_check(model, windows, cfg, graph=graph)
    assert errs.max() < 1e-4


def test_graph_gradients_run_without_einsum(monkeypatch, rng):
    # node mixing is a stacked matmul forward and backward; with the mixed
    # adjacency the learned embedding is taped, so both VJPs of node_mix run
    model = _tiny_model(n_series=3, kind="graph_gru", seed=7)
    assert model.hyper.get("adjacency_mode", "mixed") == "mixed"
    graph = ssm_mod.Graph.from_weights(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]))
    batch = train.stack_batch(_windows(rng, n=3, p=2, q=2)[:2], model, 2, 0)

    def forbidden(*args, **kwargs):
        raise AssertionError("np.einsum on the graph path")

    monkeypatch.setattr(np, "einsum", forbidden)
    _, grads, _ = train.gradients(model, batch, _config(n_particles_train=2), graph=graph)
    assert all(np.isfinite(g).all() for g in grads.values())
    assert np.abs(grads["embed"]).max() > 0  # the embedding's gradient comes through the VJP into the mixing matrix


def test_gradients_zero_for_unused_parameters(rng):
    # sigma multiplies noise that never enters with learn_rho_sigma at its
    # default; the gradient dict still carries an entry for every parameter
    model = _tiny_model()
    windows = _windows(rng)[:2]
    cfg = _config()
    _, grads, _ = train.gradients(model, train.stack_batch(windows, model, 1, 0), cfg)
    assert set(grads) == set(train.param_names(model))
    for g in grads.values():
        assert np.all(np.isfinite(g))


def _with_params(model, **replaced):
    return ssm_mod.ModelTheta(model.hyper, {**model.params, **replaced})


def test_flow_solve_error_names_the_window(rng):
    # a huge emission scale: the softplus noise std underflows to 0 (r = 0,
    # so S = diag(r) is singular at lambda = 0) where the particle mean is
    # negative, and only the middle window's particle is pushed there
    model = _with_params(_tiny_model(), C_gamma=np.array([[1e4, 0.0]]))
    windows = _windows(rng)[3:6]
    cfg = _config()
    batch = train.stack_batch(windows, model, 1, cfg.seed)
    batch.init = np.array([[[1.0, 0.0]], [[-1.0, 0.0]], [[1.0, 0.0]]])
    want = r"^innovation covariance of window 4 is not positive definite at pseudo-time step 1/5 \(lambda=0\) of encoder step 1$"
    with pytest.raises(FlowSolveError, match=want) as info:
        train.gradients(model, batch, cfg)  # the path fit takes
    assert (info.value.window_id, info.value.encoder_step, info.value.step, info.value.lam) == (4, 1, 1, 0.0)
    with pytest.raises(FlowSolveError, match=want):
        train.batch_loss(model, batch, cfg)  # the path evaluate_loss takes


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_frozen_replay_divergence_names_the_window(rng):
    model = _tiny_model()
    windows = _windows(rng)[3:6]
    cfg = _config()
    batch = train.stack_batch(windows, model, 1, cfg.seed)
    _, _, traces = train.gradients(model, batch, cfg)
    traces[1].k_vec[1] = np.inf  # the stored map's offset k of the middle window
    with pytest.raises(FlowDivergedError, match=r"particle 0 of window 4 became non-finite during the frozen flow replay of encoder step 2") as info:
        train.batch_loss(model, batch, cfg, frozen_trace=traces)
    # the replay applies a stored map without stepping: no pseudo-time step to name
    assert (info.value.window_id, info.value.encoder_step, info.value.step, info.value.lam) == (4, 2, None, None)


def test_gradients_memory_grows_with_observations_not_state_squared(rng):
    # the schema-default state (d_x = 64 per series, so D = 320 with N = 5):
    # dense (B, D, D) drifts kept for 29 x 4 flow steps would take ~760 MB
    n = 5
    model = ssm_mod.init_model(kind="graph_gru", n_series=n, d_x=64, rho=0.8, sigma=0.05, init_scale=0.5, seed=2)
    graph = ssm_mod.Graph.from_weights(np.ones((n, n)))
    windows = _windows(rng, n=n, p=4, q=2)[:8]
    cfg = _config(flow=FlowConfig(n_lambda=29))
    batch = train.stack_batch(windows, model, 1, cfg.seed)
    tracemalloc.start()
    try:
        _, _, traces = train.gradients(model, batch, cfg, graph=graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6
    d = model.state_dim
    assert len(traces) == 4
    for tr in traces:  # one composed map per flow, O(N^2) per window, whatever the 29 steps
        assert tr.mean.shape == (8, d) and tr.pht.shape == (8, d, n) and tr.h_mat.shape == (n, d)
        assert tr.k_mat.shape == (8, n, n) and tr.k_vec.shape == (8, 1, n)


# ---------------------------------------------------------------------------
# optimizer pieces
# ---------------------------------------------------------------------------


def test_adam_first_step_has_unit_scale():
    # with fresh moments, a gradient g produces a first step of size ~lr
    # regardless of |g| (up to the eps guard in the denominator, which
    # matters only for gradients near eps scale)
    opt = train._Adam({"w": (2,)})
    values = {"w": np.zeros(2)}
    grads = {"w": np.array([1.0, 1e3])}
    opt.step(values, grads, lr=0.1)
    np.testing.assert_allclose(values["w"], [-0.1, -0.1], rtol=1e-4)


def test_adam_accumulates_momentum():
    opt = train._Adam({"w": (1,)})
    values = {"w": np.zeros(1)}
    for _ in range(10):
        opt.step(values, {"w": np.ones(1)}, lr=0.01)
    assert values["w"][0] < -0.05  # keeps moving in the gradient direction


def test_clip_global_norm():
    grads = {"a": np.array([3.0]), "b": np.array([4.0])}
    clipped = train.clip_global_norm(grads, 5.0)
    np.testing.assert_allclose(clipped["a"], [3.0])
    clipped2 = train.clip_global_norm(grads, 2.5)
    np.testing.assert_allclose(clipped2["a"], [1.5])
    np.testing.assert_allclose(clipped2["b"], [2.0])


def test_truth_probability_schedule():
    assert train.truth_probability(0, 2000.0) == pytest.approx(2000.0 / 2001.0)
    assert train.truth_probability(20000, 2000.0) == pytest.approx(2000.0 / (2000.0 + math.exp(10.0)))
    assert train.truth_probability(20000, 2000.0) < 0.1
    assert train.truth_probability(10**9, 2000.0) == pytest.approx(0.0, abs=1e-12)  # exponent clamp, no overflow
    assert train.truth_probability(5, 0.0) == 0.0


# ---------------------------------------------------------------------------
# fit loop behavior
# ---------------------------------------------------------------------------


def test_fit_zero_lr_leaves_parameters_bitwise_unchanged(rng):
    model = _tiny_model()
    windows = _windows(rng)
    cfg = _config(lr=0.0, max_epochs=2)
    result = train.fit(train.TrainData(train_windows=windows[:8], val_windows=windows[8:12], graph=None), model, cfg)
    for name in train.param_names(model):
        np.testing.assert_array_equal(train.get_param(result.model, name), train.get_param(model, name))


def test_fit_keeps_learned_rho_sigma_non_negative(rng):
    # sigma starts at its default 0, so the first Adam step would take it below 0
    model = _tiny_model(sigma=0.0)
    windows = _windows(rng)
    cfg = _config(learn_rho_sigma=True, lr=0.05, max_epochs=2)
    result = train.fit(train.TrainData(train_windows=windows[:8], val_windows=windows[8:12], graph=None), model, cfg)
    assert len(result.log) == 2 and not result.diverged
    assert result.model.params["rho"] >= 0.0 and result.model.params["sigma"] >= 0.0


def test_fit_reduces_training_loss(rng):
    model = _tiny_model(seed=1)
    windows = _windows(rng, t=120)
    cfg = _config(max_epochs=10, lr=0.02, batch_size=16, patience=10)
    result = train.fit(train.TrainData(train_windows=windows[:80], val_windows=windows[80:100], graph=None), model, cfg)
    first = result.log[0]["train_loss"]
    last = min(row["train_loss"] for row in result.log)
    assert last < first


def test_fit_respects_patience(rng):
    model = _tiny_model()
    windows = _windows(rng)
    cfg = _config(lr=0.0, max_epochs=50, patience=3)
    result = train.fit(train.TrainData(train_windows=windows[:8], val_windows=windows[8:12], graph=None), model, cfg)
    # lr=0 never improves, so epoch 1 is best and 3 stale epochs stop it
    assert result.stopped_early
    assert len(result.log) == 4
    assert result.best_epoch == 1


def test_fit_milestones_decay_learning_rate(rng):
    model = _tiny_model()
    windows = _windows(rng)
    cfg = _config(lr=0.01, milestones=(2, 3), lr_factor=0.1, max_epochs=4, patience=50)
    result = train.fit(train.TrainData(train_windows=windows[:8], val_windows=windows[8:12], graph=None), model, cfg)
    lrs = [row["lr"] for row in result.log]
    np.testing.assert_allclose(lrs, [0.01, 0.01, 0.001, 0.0001], rtol=1e-12)


def test_fit_is_deterministic(rng):
    model = _tiny_model()
    windows = _windows(rng, t=60)
    cfg = _config(max_epochs=3, seed=11)
    ds = train.TrainData(train_windows=windows[:16], val_windows=windows[16:24], graph=None)
    r1 = train.fit(ds, model, cfg)
    r2 = train.fit(ds, model, cfg)
    for name in train.param_names(model):
        np.testing.assert_array_equal(train.get_param(r1.model, name), train.get_param(r2.model, name))
    assert r1.log == r2.log or all(
        a["train_loss"] == b["train_loss"] and a["val_loss"] == b["val_loss"] for a, b in zip(r1.log, r2.log)
    )


def test_fit_returns_best_model_not_last(rng):
    model = _tiny_model(seed=1)
    windows = _windows(rng, t=80)
    cfg = _config(max_epochs=6, lr=0.02, batch_size=8, patience=6)
    ds = train.TrainData(train_windows=windows[:40], val_windows=windows[40:60], graph=None)
    result = train.fit(ds, model, cfg)
    vals = [row["val_loss"] for row in result.log]
    assert result.best_val == min(vals)
    assert result.best_epoch == int(np.argmin(vals)) + 1


def test_fit_flow_failure_in_validation_returns_the_best_epoch(rng, request):
    model = _tiny_model()
    windows = _windows(rng)
    ds = train.TrainData(train_windows=windows[:8], val_windows=windows[8:12], graph=None)
    one_epoch = train.fit(ds, model, _config(max_epochs=1))
    request.getfixturevalue("second_validation_diverges")
    result = train.fit(ds, model, _config(max_epochs=4, patience=10))
    assert result.diverged and not result.stopped_early
    assert result.best_epoch == 1 and result.best_val == one_epoch.best_val
    assert [row["note"] for row in result.log] == ["", "diverged"]
    assert math.isnan(result.log[1]["val_loss"]) and math.isfinite(result.log[1]["train_loss"])
    for name in train.param_names(model):
        np.testing.assert_array_equal(train.get_param(result.model, name), train.get_param(one_epoch.model, name))


def test_evaluate_loss_uses_eval_particle_count(rng):
    model = _tiny_model()
    windows = _windows(rng)[:4]
    cfg = _config(n_particles_eval=5)
    v1 = train.evaluate_loss(model, windows, cfg, None)
    v2 = train.evaluate_loss(model, windows, cfg, None)
    assert v1 == v2
    assert np.isfinite(v1)


def test_evaluate_loss_weighs_chunks_by_window_count(rng, monkeypatch):
    model = _tiny_model()
    windows = _windows(rng)[:5]
    cfg = _config(n_particles_eval=3)
    whole = train.evaluate_loss(model, windows, cfg, None)
    monkeypatch.setattr(train, "CHUNK_WINDOWS", 2)  # chunks of 2, 2 and 1 windows
    np.testing.assert_allclose(train.evaluate_loss(model, windows, cfg, None), whole, rtol=1e-12)


def test_training_log_csv_format(tmp_path, rng):
    model = _tiny_model()
    windows = _windows(rng)
    cfg = _config(max_epochs=2)
    result = train.fit(train.TrainData(train_windows=windows[:8], val_windows=windows[8:12], graph=None), model, cfg)
    path = tmp_path / "log.csv"
    train.write_training_log(path, result)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,train_loss,val_loss,lr,seconds"
    body = [l for l in lines[1:] if not l.startswith("#")]
    assert len(body) == len(result.log)
    cells = body[0].split(",")
    assert float(cells[1]) == result.log[0]["train_loss"]  # repr round trip
