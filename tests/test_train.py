"""Training: losses (hand cases and finite-difference gradient checks),
the optimizer, the schedule knobs, and the fit loop."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from flowcast import data as data_mod
from flowcast import ssm as ssm_mod
from flowcast import train
from flowcast.errors import DataError, FlowDivergedError, FlowSolveError
from flowcast.flow import FlowConfig

import noise


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


def _batch_emitting(model, windows, cfg, wanted, target, monkeypatch):
    """A stacked batch, with decoder draws served that make the samples ``wanted`` (B, n_p, Q, N), scored against ``target`` (B, Q, N)."""
    batch = train.stack_batch(windows, model, wanted.shape[1], cfg.seed)
    init, dyn, meas = noise.drawn(batch, model)
    for k in range(wanted.shape[2]):  # step k's mean and std depend only on the draws before it
        noise.serve(monkeypatch, init, dyn, meas)
        _, means, stds, _, _ = train.batch_forward(model.params, model, batch, cfg.flow)
        meas[k] = (wanted[:, :, k] - means[k]) / stds[k]
    noise.serve(monkeypatch, init, dyn, meas)
    batch.y_future = np.asarray(target, dtype=np.float64)
    return batch


def test_mae_loss_single_sample_is_absolute_error(rng, monkeypatch):
    model = _tiny_model()
    cfg = _config(loss="mae")
    wanted = np.array([[[[1.0], [3.0]]]])  # (B=1, 1 particle, Q=2, N=1)
    batch = _batch_emitting(model, _windows(rng, q=2)[:1], cfg, wanted, [[[0.0], [5.0]]], monkeypatch)
    np.testing.assert_allclose(train.batch_loss(model, batch, cfg), (1.0 + 2.0) / 2)


def test_mae_loss_uses_particle_median(rng, monkeypatch):
    model = _tiny_model()
    cfg = _config(loss="mae")
    wanted = np.array([[[[0.0]], [[10.0]], [[1.0]]]])  # (B=1, 3 particles, Q=1, N=1)
    batch = _batch_emitting(model, _windows(rng, q=1)[:1], cfg, wanted, [[[2.0]]], monkeypatch)
    np.testing.assert_allclose(train.batch_loss(model, batch, cfg), 1.0)  # median 1.0 vs target 2.0
    d_samples, _, _ = train._loss("mae", batch, wanted, None, None)[1]()
    np.testing.assert_array_equal(d_samples[0].ravel(), [0.0, 0.0, -1.0])  # all of it to the middle sample
    # an even count: the mean of the two middle samples, and half the gradient to each
    wanted = np.array([[[[0.0]], [[10.0]], [[1.0]], [[4.0]]]])
    batch = _batch_emitting(model, _windows(rng, q=1)[:1], cfg, wanted, [[[5.0]]], monkeypatch)
    np.testing.assert_allclose(train.batch_loss(model, batch, cfg), 2.5)  # median 2.5 vs target 5.0
    loss, vjp = train._loss("mae", batch, wanted, None, None)
    assert loss == 2.5
    np.testing.assert_array_equal(vjp()[0][0].ravel(), [0.0, 0.0, -0.5, -0.5])


def test_nll_loss_single_gaussian_closed_form(rng):
    # one particle, one step: -log N(y; mean, std^2)
    model = _tiny_model()
    cfg = _config(loss="nll")
    batch = train.stack_batch(_windows(rng, q=1)[:1], model, 1, cfg.seed)
    batch.y_future = np.array([[[0.9]]])
    _, means, stds, _, _ = train.batch_forward(model.params, model, batch, cfg.flow)
    mean, std, y = means[0][0, 0, 0], stds[0][0, 0, 0], 0.9
    want = 0.5 * np.log(2 * np.pi * std**2) + (y - mean) ** 2 / (2 * std**2)
    np.testing.assert_allclose(train.batch_loss(model, batch, cfg), want, rtol=1e-10)


def test_nll_loss_multiple_particles_mixes_before_log(rng):
    model = _tiny_model()
    model.params["C_gamma"] = np.array([[0.7, -0.4]])  # a state-dependent std, different per particle
    cfg = _config(loss="nll")
    batch = train.stack_batch(_windows(rng, q=2)[:1], model, 4, cfg.seed)
    y = batch.y_future[0]
    _, means, stds, _, _ = train.batch_forward(model.params, model, batch, cfg.flow)

    total = 0.0
    for t in range(2):
        lls = []
        for j in range(4):
            mean, std = means[t][0, j], stds[t][0, j]
            lls.append(-0.5 * np.log(2 * np.pi * std**2).sum() - ((y[t] - mean) ** 2 / (2 * std**2)).sum())
        m = max(lls)
        total += -(m + np.log(np.mean(np.exp(np.array(lls) - m))))
    np.testing.assert_allclose(train.batch_loss(model, batch, cfg), total, rtol=1e-10)


def _loss_batch(y_future, n_p):
    """A batch that holds only what the losses read: the (B, Q, N) targets, for ``n_p`` particles."""
    b_sz, _, n = y_future.shape
    return train.BatchArrays(y_hist=np.zeros((b_sz, 1, n)), y_future=y_future, z=None, window_ids=list(range(b_sz)), n_particles=n_p, seed_key=(0,))


def test_nll_loss_is_stable_with_particle_likelihoods_far_apart(rng):
    # every particle's log-likelihood is below -745, where exp underflows, and
    # particle 2's sits about 1e3 below the others: the shifted log-sum-exp
    # keeps the loss finite, and its VJP matches central differences of the
    # loss
    y = rng.standard_normal((2, 2, 3))  # (B, Q, N)
    offsets = np.array([[40.0, 0.2, -0.3], [40.01, -0.1, 0.25], [65.0, 0.1, 0.0]])  # (3 particles, N)
    means0 = [y[:, k, None, :] + offsets for k in range(2)]
    stds0 = [rng.uniform(0.9, 1.0, (2, 1, 3)) * (1.0 + 1e-3 * rng.standard_normal((2, 3, 3))) for _ in range(2)]
    batch = _loss_batch(y, 3)

    def loss_at(flat):
        parts = [p.reshape(2, 3, 3) for p in np.split(flat, 4)]
        return float(train._loss("nll", batch, None, parts[:2], parts[2:])[0])

    x0 = np.concatenate([a.ravel() for a in means0 + stds0])
    lls = [-(0.5 * ((y[:, k, None, :] - means0[k]) / stds0[k]) ** 2 + np.log(stds0[k])).sum(axis=2) - 1.5 * np.log(2 * np.pi) for k in range(2)]
    for ll in lls:
        assert ll.max() < -745 and np.all(ll[:, 2] < ll[:, :2].min(axis=1) - 900)
    with np.errstate(divide="ignore"):
        assert np.isinf(sum(np.log(np.mean(np.exp(ll), axis=1)) for ll in lls)).all()  # the unshifted form fails
    want = -np.mean(sum(np.logaddexp.reduce(ll, axis=1) - np.log(3) for ll in lls))
    np.testing.assert_allclose(loss_at(x0), want, rtol=1e-13)

    _, d_means, d_stds = train._loss("nll", batch, None, means0, stds0)[1]()
    got = np.concatenate([d.ravel() for d in d_means + d_stds])
    fd = np.empty_like(x0)
    for i in range(x0.size):
        hi, lo = x0.copy(), x0.copy()
        hi[i] += 1e-6
        lo[i] -= 1e-6
        fd[i] = (loss_at(hi) - loss_at(lo)) / 2e-6
    np.testing.assert_allclose(got, fd, rtol=1e-6, atol=1e-6)
    assert np.all(d_means[0][:, 2] == 0.0) and np.abs(d_means[0][:, :2, 0]).min() > 1.0  # the far particle gets no share


def test_nll_loss_survives_log_likelihoods_that_overflow_exp():
    # a tiny std puts every particle's log-likelihood near +690 per coordinate, where exp overflows
    y = np.zeros((1, 1, 2))
    means = [np.array([[[0.0, 0.0], [1e-300, 0.0]]])]
    stds = [np.full((1, 2, 2), 1e-300)]
    ll = -(0.5 * ((y[:, 0, None, :] - means[0]) / stds[0]) ** 2 + np.log(stds[0])).sum(axis=2) - np.log(2 * np.pi)
    assert ll.min() > 1e3
    want = -(np.logaddexp.reduce(ll, axis=1) - np.log(2))[0]
    np.testing.assert_allclose(train._loss("nll", _loss_batch(y, 2), None, means, stds)[0], want, rtol=1e-15)


@pytest.mark.parametrize("kind", ["mae", "nll"])
def test_losses_on_nan_inputs_are_nan(kind):
    # a NaN reaching the loss is reported as a NaN loss (fit's divergence check), not raised
    y = np.zeros((2, 1, 2))
    samples = np.full((2, 3, 1, 2), np.nan)
    means, stds = [np.full((2, 3, 2), np.nan)], [np.ones((2, 3, 2))]
    loss, vjp = train._loss(kind, _loss_batch(y, 3), samples, means, stds)
    assert math.isnan(loss)
    d_samples, d_means, _ = vjp()
    assert np.isnan(d_samples[0] if kind == "mae" else d_means[0]).all()


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


def _fd_check(model, windows, cfg, graph=None, rel_tol=1e-4, n_coords=12, seed=0, ss_mask=None, floor=0.0):
    """Relative errors of ``n_coords`` gradient coordinates against central differences of the frozen-trace loss.

    An error is ``|fd - g| / max(|fd|, |g|, 1e-8, floor * max|g|)``.
    """
    batch = train.stack_batch(windows, model, cfg.n_particles_train, cfg.seed)
    loss0, grads, trace = train.gradients(model, batch, cfg, graph=graph, ss_mask=ss_mask)
    flat_grad = train.flatten_params(model, grads)
    x0 = train.flatten_params(model)
    floor = max(1e-8, floor * np.abs(flat_grad).max())

    def f(vec):
        values = train.unflatten_params(model, vec)
        return train.batch_loss(model, batch, cfg, graph=graph, values=values, ss_mask=ss_mask, frozen_trace=trace)

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
        denom = max(abs(fd), abs(flat_grad[i]), floor)
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


@pytest.mark.parametrize("n_particles", [3, 4])
def test_gradients_match_finite_differences_mae_median_weights(rng, n_particles):
    # an odd count puts weight 1 on the middle sample, an even one 1/2 on each of the two middle samples
    model = _tiny_model(sigma=0.05)
    windows = _windows(rng, p=2, q=2)[:2]
    cfg = _config(loss="mae", flow=FlowConfig(n_lambda=5), n_particles_train=n_particles, scheduled_sampling_tau=0.0)
    errs, _ = _fd_check(model, windows, cfg, n_coords=100)
    assert errs.max() < 1e-4


def test_gradients_match_finite_differences_nll_state_dependent_std(rng):
    # a non-zero C_gamma gives every particle its own std, so the std's VJP reaches every coordinate
    model = _with_params(_tiny_model(sigma=0.05), C_gamma=np.array([[0.7, -0.4]]))
    windows = _windows(rng, p=2, q=2)[:2]
    cfg = _config(loss="nll", flow=FlowConfig(n_lambda=5), n_particles_train=3, scheduled_sampling_tau=0.0)
    errs, _ = _fd_check(model, windows, cfg, n_coords=100)
    assert errs.max() < 1e-4


# every branch of the reverse pass: two layers, covariates, several
# particles, teacher forcing on some decoder steps, and each adjacency mode
GUARD_CASES = [("gru", "mixed", "mae"), ("graph_gru", "fixed", "nll"), ("graph_gru", "adaptive", "mae"), ("graph_gru", "mixed", "nll")]


@pytest.mark.parametrize("kind, mode, loss", GUARD_CASES)
def test_gradients_match_finite_differences_on_every_branch(rng, kind, mode, loss):
    model = ssm_mod.init_model(kind=kind, n_series=3, d_x=2, layers=2, d_z=2, d_e=2, adjacency_mode=mode, rho=0.8, sigma=0.05, init_scale=0.5, seed=5)
    # at unit scale the embedding saturates the softmax, and its gradients fall below rounding
    for name in ("C_gamma", "embed"):
        if name in model.params:
            model.params[name] = 0.3 * rng.standard_normal(model.params[name].shape)
    graph = ssm_mod.Graph.from_weights(np.array([[0.0, 1.0, 0.5], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]))
    windows = _windows(rng, n=3, p=3, q=3, period=12)[:2]
    cfg = _config(loss=loss, n_particles_train=3)
    ss_mask = np.array([[True, False], [False, True]])  # (B, Q - 1): truth feeds window 0's step 2 and window 1's step 3
    errs, _ = _fd_check(model, windows, cfg, graph=graph, n_coords=10**6, ss_mask=ss_mask, floor=1e-3)
    assert errs.size == train.flatten_params(model).size
    assert errs.max() <= 1e-4


def test_batch_forward_replays_the_same_noise(rng):
    # every pass over a batch seeds its windows' generators afresh: two
    # passes, and the gradient pass and its replays, see the same draws
    model = _tiny_model(n_series=3, kind="graph_gru", d_z=2, seed=7)
    graph = ssm_mod.Graph.from_weights(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]))
    cfg = _config(loss="nll", n_particles_train=3)
    batch = train.stack_batch(_windows(rng, n=3, p=5, q=3, period=12)[:4], model, 3, (4, 2))
    first, second = (train.batch_forward(model.params, model, batch, cfg.flow, graph=graph) for _ in range(2))
    for a, b in zip([first[0], *first[1], *first[2]], [second[0], *second[1], *second[2]]):
        assert a.tobytes() == b.tobytes()
    loss, _, trace = train.gradients(model, batch, cfg, graph=graph)
    assert train.batch_loss(model, batch, cfg, graph=graph) == loss
    assert train.batch_loss(model, batch, cfg, graph=graph, frozen_trace=trace) == loss


def test_gradients_graph_model_and_covariates(rng):
    model = _tiny_model(n_series=3, kind="graph_gru", d_z=2, seed=7)
    graph = ssm_mod.Graph.from_weights(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]))
    windows = _windows(rng, n=3, p=2, q=2, period=12)[:2]
    cfg = _config(loss="nll", flow=FlowConfig(n_lambda=4), n_particles_train=1, scheduled_sampling_tau=0.0)
    errs, _ = _fd_check(model, windows, cfg, graph=graph)
    assert errs.max() < 1e-4


def test_graph_gradients_run_without_einsum(monkeypatch, rng):
    # node mixing is a stacked matmul forward and backward; with the mixed
    # adjacency the learned embedding is trained, so the cell's VJP runs its
    # gradients into both the mixing matrix and the mixed states
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


def test_flow_solve_error_names_the_window(rng, monkeypatch):
    # a huge emission scale: the softplus noise std underflows to 0 (r = 0,
    # so S = diag(r) is singular at lambda = 0) where the particle mean is
    # negative, and only the middle window's particle is pushed there
    model = _with_params(_tiny_model(), C_gamma=np.array([[1e4, 0.0]]))
    windows = _windows(rng)[3:6]
    cfg = _config()
    batch = train.stack_batch(windows, model, 1, cfg.seed)
    _, dyn, meas = noise.drawn(batch, model)
    noise.serve(monkeypatch, np.array([[[1.0, 0.0]], [[-1.0, 0.0]], [[1.0, 0.0]]]), dyn, meas)
    want = r"^innovation covariance of window 4 is not positive definite at the closed-form flow \(lambda=0\) of encoder step 1: noise variance of series 0 is 0$"
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
        assert tr.pht.shape == (8, d, n) and tr.h_mat.shape == (n, d)
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


@pytest.fixture
def zero_lr(monkeypatch):
    """fit's Adam steps taken with a zero learning rate, which TrainConfig refuses (lr must be positive)."""
    step = train._Adam.step
    monkeypatch.setattr(train._Adam, "step", lambda self, values, grads, lr: step(self, values, grads, 0.0))


def test_fit_zero_lr_leaves_parameters_bitwise_unchanged(rng, zero_lr):
    model = _tiny_model()
    windows = _windows(rng)
    cfg = _config(max_epochs=2)
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


def test_fit_respects_patience(rng, zero_lr):
    model = _tiny_model()
    windows = _windows(rng)
    cfg = _config(max_epochs=50, patience=3)
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
    assert [math.isfinite(row["val_loss"]) for row in result.log] == [True, False]
    assert math.isnan(result.log[1]["val_loss"]) and math.isfinite(result.log[1]["train_loss"])
    assert result.cause == "particles became non-finite"  # the validation pass's error
    for name in train.param_names(model):
        np.testing.assert_array_equal(train.get_param(result.model, name), train.get_param(one_epoch.model, name))


def test_fit_nan_loss_in_a_later_minibatch_returns_the_best_epoch(rng, monkeypatch):
    # a NaN loss that no NumericError announces (the loss node returns NaN
    # rather than raising): fit stops, logs the epoch as diverged, and keeps epoch 1
    model = _tiny_model()
    windows = _windows(rng)
    ds = train.TrainData(train_windows=windows[:8], val_windows=windows[8:12], graph=None)
    one_epoch = train.fit(ds, model, _config(max_epochs=1))
    gradients, calls = train.gradients, []

    def nan_from_the_fourth_call(*args, **kwargs):  # two minibatches an epoch: epoch 2's second
        calls.append(None)
        loss, grads, trace = gradients(*args, **kwargs)
        return (math.nan if len(calls) >= 4 else loss), grads, trace

    monkeypatch.setattr(train, "gradients", nan_from_the_fourth_call)
    result = train.fit(ds, model, _config(max_epochs=4, patience=10))
    assert len(calls) == 4
    assert result.diverged and not result.stopped_early
    assert result.best_epoch == 1 and result.best_val == one_epoch.best_val
    assert [math.isfinite(row["val_loss"]) for row in result.log] == [True, False]
    assert math.isnan(result.log[1]["train_loss"]) and math.isnan(result.log[1]["val_loss"])
    assert result.cause == "training loss became non-finite at epoch 2, minibatch 2"
    for name, value in one_epoch.model.params.items():
        np.testing.assert_array_equal(result.model.params[name], value)


def test_fit_nan_validation_loss_returns_the_best_epoch_and_names_it(rng, monkeypatch):
    # a NaN validation loss that no NumericError announces
    model = _tiny_model()
    windows = _windows(rng)
    ds = train.TrainData(train_windows=windows[:8], val_windows=windows[8:12], graph=None)
    one_epoch = train.fit(ds, model, _config(max_epochs=1))
    evaluate_loss, calls = train.evaluate_loss, []

    def nan_on_the_second_call(*args, **kwargs):
        calls.append(None)
        return math.nan if len(calls) == 2 else evaluate_loss(*args, **kwargs)

    monkeypatch.setattr(train, "evaluate_loss", nan_on_the_second_call)
    result = train.fit(ds, model, _config(max_epochs=4, patience=10))
    assert len(calls) == 2
    assert result.diverged and not result.stopped_early
    assert result.cause == "validation loss became non-finite at epoch 2"
    assert result.best_epoch == 1 and result.best_val == one_epoch.best_val
    assert [math.isfinite(row["val_loss"]) for row in result.log] == [True, False]
    assert math.isfinite(result.log[1]["train_loss"]) and math.isnan(result.log[1]["val_loss"])
    for name, value in one_epoch.model.params.items():
        np.testing.assert_array_equal(result.model.params[name], value)


def test_fit_keeps_the_error_that_ended_it(rng, training_step_fails):
    model = _tiny_model()
    windows = _windows(rng)
    result = train.fit(train.TrainData(train_windows=windows[:8], val_windows=windows[8:12], graph=None), model, _config())
    assert result.diverged and result.best_epoch == 0
    assert "window 4" in result.cause and "encoder step 1" in result.cause
    assert [math.isfinite(row["val_loss"]) for row in result.log] == [False]


def test_fit_that_ends_cleanly_has_no_cause(rng):
    windows = _windows(rng)
    result = train.fit(train.TrainData(train_windows=windows[:8], val_windows=windows[8:12], graph=None), _tiny_model(), _config(max_epochs=1))
    assert not result.diverged and result.cause is None


def test_evaluate_loss_uses_eval_particle_count(rng):
    model = _tiny_model()
    windows = _windows(rng)[:4]
    cfg = _config(n_particles_eval=5)
    v1 = train.evaluate_loss(model, windows, cfg, None)
    v2 = train.evaluate_loss(model, windows, cfg, None)
    assert v1 == v2
    assert np.isfinite(v1)


def _spy_on_stacks(monkeypatch):
    """Record (windows, particles) of every ``train.stack_batch`` call, which must pass its four arguments by position."""
    calls, stack = [], train.stack_batch

    def spy(*args):
        calls.append((len(args[0]), args[2]))
        return stack(*args)

    monkeypatch.setattr(train, "stack_batch", spy)
    return calls


def test_evaluate_loss_weighs_chunks_by_window_count(rng, monkeypatch):
    model = _tiny_model()
    windows = _windows(rng)[:5]
    cfg = _config(n_particles_eval=3)
    whole = train.evaluate_loss(model, windows, cfg, None)
    calls = _spy_on_stacks(monkeypatch)
    monkeypatch.setattr(train, "CHUNK_ROWS", 6)  # 3 particles: chunks of 2, 2 and 1 windows
    np.testing.assert_allclose(train.evaluate_loss(model, windows, cfg, None), whole, rtol=1e-12)
    assert calls == [(2, 3), (2, 3), (1, 3)]


def test_evaluate_loss_stacks_at_most_chunk_rows(rng, monkeypatch):
    # 70 windows x 10 particles is 700 rows: over the budget, so two stacks
    calls = _spy_on_stacks(monkeypatch)
    loss = train.evaluate_loss(_tiny_model(), _windows(rng, t=80)[:70], _config(n_particles_eval=10), None)
    assert np.isfinite(loss)
    assert calls == [(60, 10), (10, 10)]
    assert all(n_windows * n_particles <= train.CHUNK_ROWS for n_windows, n_particles in calls)


def test_fit_stacks_each_training_minibatch_through_the_module_attribute(rng, monkeypatch):
    # a benchmark that wraps train.stack_batch times one training minibatch
    # from one call at n_particles_train to the next
    calls = _spy_on_stacks(monkeypatch)
    windows = _windows(rng)
    cfg = _config(max_epochs=2, patience=5, batch_size=4, n_particles_train=2, n_particles_eval=3)
    result = train.fit(train.TrainData(train_windows=windows[:10], val_windows=windows[10:14], graph=None), _tiny_model(), cfg)
    assert len(result.log) == 2
    assert calls == [(4, 2), (4, 2), (2, 2), (4, 3)] * 2  # three minibatches, then one validation stack, each epoch


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


# ---------------------------------------------------------------------------
# input checks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda model, windows: train.evaluate_loss(model, [], _config()), "no windows to evaluate"),
        (lambda model, windows: train.fit(train.TrainData([], windows), model, _config()), "the training split has no windows"),
        (lambda model, windows: train.fit(train.TrainData(windows, []), model, _config()), "the validation split has no windows"),
    ],
    ids=["evaluate_nothing", "empty_train_split", "empty_validation_split"],
)
def test_input_checks(rng, call, message):
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        call(_tiny_model(), _windows(rng)[:4])
