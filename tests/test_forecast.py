"""Forecasting: the batched pipeline against a per-window reference,
sample-based distributions, quantiles, and CSV artifacts."""

import csv

import numpy as np
import pytest

from flowcast import data as data_mod
from flowcast import forecast
from flowcast import ssm
from flowcast import train
from flowcast.errors import DataError, FlowSolveError
from flowcast.flow import FlowConfig, edh_flow
from flowcast.forecast import PredictConfig, empirical_quantile, predict


@pytest.fixture
def window(rng):
    vals = rng.standard_normal((24, 1)) * 0.5
    s = data_mod.SeriesSet(values=vals, missing=np.zeros((24, 1), bool), names=["a"])
    return data_mod.make_windows(s, 12, 12)[0]


@pytest.fixture
def multi_window(rng):
    vals = rng.standard_normal((24, 3)) * 0.5
    s = data_mod.SeriesSet(values=vals, missing=np.zeros((24, 3), bool), names=["a", "b", "c"])
    return data_mod.make_windows(s, 12, 12)[0]


def _config(**kw):
    kw.setdefault("flow", FlowConfig(n_lambda=8))
    kw.setdefault("n_particles", 4)
    return PredictConfig(**kw)


def _forward(model, graph, windows, cfg, noiseless=False):
    """The stacked batch of ``windows`` and batch_forward's (samples, means, stds) on it."""
    batch = train.stack_batch(windows, model, cfg.n_particles, cfg.seed)
    params = {name: train.get_param(model, name) for name in train.param_names(model)}
    samples, means, stds, _ = train.batch_forward(params, model, batch, cfg.flow, graph=graph, noiseless=noiseless)
    return batch, samples, means, stds


def _rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


# ---------------------------------------------------------------------------
# the batched pipeline against a per-window reference
# ---------------------------------------------------------------------------


def _reference_forecast(model, graph, window, cfg):
    """One window's sample paths, filtered and rolled out alone with its own noise draws.

    Written from the model's pieces (``transition_core``, ``edh_flow`` and
    the softplus emission), one time step at a time.
    """
    n_p, n = cfg.n_particles, model.n_series
    y_hist = np.asarray(window.y_past, dtype=np.float64)
    p, q = y_hist.shape[0], window.y_future.shape[0]
    noise = ssm.make_window_noise(cfg.seed, window.window_id, n_p, model, p, q)
    mixing = ssm.build_mixing(model.dyn_params, model.hyper, graph) if model.kind == "graph_gru" else None

    def step(x, y_prev, t):  # the transition into (1-based) time t
        z_t = None if window.z is None else window.z[t - 1]
        y_rows = np.broadcast_to(y_prev, (n_p, n))
        return ssm.transition_core(model.dyn_params, model.hyper, x, y_rows, z_t, mixing=mixing) + model.sigma * noise.dyn[t - 2]

    def noise_var(means):
        return np.logaddexp(0.0, means @ model.C_gamma.T) ** 2

    x = model.rho * noise.init
    for t in range(1, p + 1):
        if t > 1:
            x = step(x, y_hist[t - 2], t)
        x = edh_flow(x[None], model.W_phi, y_hist[None, t - 1], noise_var, cfg.flow)[0]
    samples = np.empty((n_p, q, n))
    y_prev = y_hist[-1]
    for k in range(q):
        x = step(x, y_prev, p + 1 + k)
        y_prev = x @ model.W_phi.T + np.logaddexp(0.0, x @ model.C_gamma.T) * noise.meas[k]
        samples[:, k] = y_prev
    return samples


@pytest.mark.parametrize("kind,n,d_z", [("gru", 1, 0), ("graph_gru", 3, 0), ("gru", 2, 2)])
def test_batched_forecast_matches_per_window_reference(rng, kind, n, d_z):
    model = ssm.init_model(kind=kind, n_series=n, d_x=2, layers=1, d_z=d_z, rho=0.8, sigma=0.05, init_scale=0.5, seed=5)
    model.C_gamma = 0.3 * rng.standard_normal(model.C_gamma.shape)  # a state-dependent noise scale
    graph = ssm.Graph.from_weights(np.ones((n, n))) if kind == "graph_gru" else None
    vals = 0.5 * rng.standard_normal((40, n))
    s = data_mod.SeriesSet(values=vals, missing=np.zeros((40, n), bool), names=[f"s{i}" for i in range(n)])
    windows = data_mod.make_windows(s, 4, 3, period=12 if d_z else None)[:4]
    cfg = _config(n_particles=3, seed=2)
    _, samples, _, _ = _forward(model, graph, windows, cfg)
    assert samples.shape == (4, 3, 3, n)
    for i, w in enumerate(windows):
        assert _rel(samples[i], _reference_forecast(model, graph, w, cfg)) <= 1e-12
        assert _rel(predict(model, graph, w, cfg).samples, samples[i]) <= 1e-12


def test_predict_windows_chunks_do_not_change_forecasts(tiny_gru_model, rng, monkeypatch):
    # each window draws its noise from (seed, window id), so cutting the
    # windows into other chunks moves its samples only by rounding
    vals = rng.standard_normal((30, 1)) * 0.5
    s = data_mod.SeriesSet(values=vals, missing=np.zeros((30, 1), bool), names=["a"])
    windows = data_mod.make_windows(s, 6, 3)[:5]
    cfg = _config(n_particles=3)
    whole = forecast.predict_windows(tiny_gru_model, None, windows, cfg)
    stacked = []
    stack = train.stack_batch
    monkeypatch.setattr(train, "stack_batch", lambda chunk, *args: stacked.append(len(chunk)) or stack(chunk, *args))
    # two windows of three particles a chunk; one window when a window alone is over the budget
    for rows, sizes in ((6, [2, 2, 1]), (2, [1] * 5)):
        stacked.clear()
        monkeypatch.setattr(forecast, "CHUNK_ROWS", rows)
        chunked = forecast.predict_windows(tiny_gru_model, None, windows, cfg)
        assert stacked == sizes
        assert [d.meta["window_id"] for d in chunked] == [w.window_id for w in windows]
        for a, b in zip(whole, chunked):
            assert _rel(b.samples, a.samples) <= 1e-12
            assert _rel(b.point, a.point) <= 1e-12


def test_predict_zero_horizon_gives_empty_samples(tiny_gru_model, rng):
    vals = rng.standard_normal((14, 1)) * 0.5
    s = data_mod.SeriesSet(values=vals, missing=np.zeros((14, 1), bool), names=["a"])
    w = data_mod.make_windows(s, 12, 0)[0]
    assert w.y_future is None
    dist = predict(tiny_gru_model, None, w, _config(n_particles=3))
    assert dist.samples.shape == (3, 0, 1)
    assert dist.point.shape == (0, 1)


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------


def test_predict_flow_error_names_the_window(rng):
    vals = rng.standard_normal((30, 1)) * 0.5
    s = data_mod.SeriesSet(values=vals, missing=np.zeros((30, 1), bool), names=["a"])
    window = data_mod.make_windows(s, 4, 2)[7]
    model = ssm.init_model(kind="gru", n_series=1, d_x=2, layers=1, rho=0.8, sigma=0.05, init_scale=0.5, seed=3)
    cfg = _config(n_particles=1)
    # a huge emission scale pointing away from the one particle: the softplus
    # noise std underflows to 0, so S = diag(r) is singular at lambda = 0
    init = ssm.make_window_noise(cfg.seed, window.window_id, 1, model, 4, 2).init[0]
    model.C_gamma = -1e4 * np.sign(init)[None, :]
    with pytest.raises(FlowSolveError, match=r"of window 7 is not positive definite .* of encoder step 1$"):
        predict(model, None, window, cfg)


def test_predict_shapes_and_metadata(tiny_gru_model, window):
    dist = predict(tiny_gru_model, None, window, _config())
    assert dist.samples.shape == (4, 12, 1)
    assert dist.point.shape == (12, 1)
    assert dist.meta["window_id"] == window.window_id
    assert np.isfinite(dist.samples).all()


def test_predict_is_deterministic_given_seed(tiny_gru_model, window):
    d1 = predict(tiny_gru_model, None, window, _config(seed=5))
    d2 = predict(tiny_gru_model, None, window, _config(seed=5))
    np.testing.assert_array_equal(d1.samples, d2.samples)
    d3 = predict(tiny_gru_model, None, window, _config(seed=6))
    assert not np.array_equal(d1.samples, d3.samples)


def test_predict_point_median_vs_mean(tiny_gru_model, window):
    med = predict(tiny_gru_model, None, window, _config(point="median", n_particles=5))
    mean = predict(tiny_gru_model, None, window, _config(point="mean", n_particles=5))
    np.testing.assert_allclose(med.point, np.median(med.samples, axis=0), rtol=1e-12)
    np.testing.assert_allclose(mean.point, mean.samples.mean(axis=0), rtol=1e-12)


def test_noiseless_forecast_emits_measurement_means(tiny_gru_model, window):
    cfg = _config(noiseless=True, n_particles=3)
    _, samples, means, _ = _forward(tiny_gru_model, None, [window], cfg, noiseless=True)
    for k in range(12):
        np.testing.assert_array_equal(samples[:, :, k], means[k])
    np.testing.assert_array_equal(predict(tiny_gru_model, None, window, cfg).samples, samples[0])


def test_single_particle_noiseless_rollout_is_recursive_point_path(window):
    # sigma = 0, one particle, noiseless decoding: starting from the same
    # filtered state, the decoder is a plain deterministic recursion and the
    # decoder's noise draws are irrelevant
    model = ssm.init_model(kind="gru", n_series=1, d_x=2, layers=1, d_z=0, rho=0.8, sigma=0.0, seed=3)
    cfg = _config(n_particles=1, noiseless=True, seed=0)
    batch = train.stack_batch([window], model, 1, cfg.seed)
    params = {name: train.get_param(model, name) for name in train.param_names(model)}
    d1 = train.batch_forward(params, model, batch, cfg.flow, noiseless=True)[0]
    other = np.random.default_rng(99)
    batch.dyn[11:] = other.standard_normal(batch.dyn[11:].shape)  # the decoder's transitions
    batch.meas[:] = other.standard_normal(batch.meas.shape)
    d2 = train.batch_forward(params, model, batch, cfg.flow, noiseless=True)[0]
    np.testing.assert_array_equal(d1, d2)
    full = predict(model, None, window, cfg)
    np.testing.assert_array_equal(full.point, full.samples[0])


def test_decoder_feeds_back_its_own_samples(tiny_gru_model, rng):
    # with two steps, the step-2 emission means differ across particles:
    # each particle's second transition reads its own step-1 sample
    vals = rng.standard_normal((14, 1)) * 0.5
    s = data_mod.SeriesSet(values=vals, missing=np.zeros((14, 1), bool), names=["a"])
    w = data_mod.make_windows(s, 12, 2)[0]
    _, _, means, _ = _forward(tiny_gru_model, None, [w], _config(n_particles=6))
    assert np.ptp(means[1][0], axis=0).max() > 0


def test_predict_more_particles_tightens_the_mean(tiny_gru_model, window):
    # doubling particles: the two ensemble means should agree within a few
    # standard errors of the bigger ensemble
    small = predict(tiny_gru_model, None, window, _config(n_particles=64, seed=1))
    big = predict(tiny_gru_model, None, window, _config(n_particles=512, seed=2))
    se = big.samples.std(axis=0, ddof=1) / np.sqrt(512)
    gap = np.abs(small.samples.mean(axis=0) - big.samples.mean(axis=0))
    frac_within = (gap <= 4 * se + 4 * small.samples.std(axis=0, ddof=1) / np.sqrt(64)).mean()
    assert frac_within > 0.95


def test_predict_graph_model(small_graph_model, multi_window):
    model, graph = small_graph_model
    dist = predict(model, graph, multi_window, _config(n_particles=3))
    assert dist.samples.shape == (3, 12, 3)
    assert np.isfinite(dist.samples).all()


# ---------------------------------------------------------------------------
# quantiles
# ---------------------------------------------------------------------------


def test_quantile_midpoint_of_two_samples():
    samples = np.array([0.0, 10.0])
    np.testing.assert_allclose(empirical_quantile(samples, 0.5), 5.0)


def test_quantile_median_of_five():
    samples = np.array([5.0, 1.0, 4.0, 2.0, 3.0])
    np.testing.assert_allclose(empirical_quantile(samples, 0.5), 3.0)


def test_quantile_linear_interpolation():
    samples = np.array([0.0, 1.0, 2.0, 3.0])
    np.testing.assert_allclose(empirical_quantile(samples, 0.25), 0.75)  # type-7 interpolation


def test_quantile_monotone_in_alpha(rng):
    samples = rng.standard_normal(40)
    qs = [empirical_quantile(samples, a) for a in (0.1, 0.3, 0.5, 0.7, 0.9)]
    assert np.all(np.diff(qs) >= 0)


def test_quantile_works_across_distribution_axes(tiny_gru_model, window):
    dist = predict(tiny_gru_model, None, window, _config(n_particles=8))
    q = empirical_quantile(dist, 0.5)
    assert q.shape == (12, 1)
    np.testing.assert_allclose(q, np.median(dist.samples, axis=0), rtol=1e-12)


def test_quantile_rejects_bad_levels(rng):
    with pytest.raises(DataError):
        empirical_quantile(rng.standard_normal(5), 1.5)


# ---------------------------------------------------------------------------
# CSV artifacts
# ---------------------------------------------------------------------------


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_forecast_csvs_round_trip_values(tmp_path, tiny_gru_model, window):
    dist = predict(tiny_gru_model, None, window, _config(n_particles=3))
    forecast.write_forecast_samples(tmp_path / "samples.csv", [window.window_id], [dist])
    forecast.write_forecast_summary(tmp_path / "summary.csv", [window.window_id], [dist])
    forecast.write_truth(tmp_path / "truth.csv", [window.window_id], [window.y_future])

    rows = _read_rows(tmp_path / "samples.csv")
    assert len(rows) == 3 * 12 * 1
    r0 = rows[0]
    assert set(r0) == {"window", "horizon", "series", "sample", "value"}
    # repr round trip: parsing the text recovers the exact float
    got = float(next(r["value"] for r in rows if r["horizon"] == "3" and r["sample"] == "2"))
    assert got == dist.samples[2, 2, 0]

    srows = _read_rows(tmp_path / "summary.csv")
    assert len(srows) == 12
    assert float(srows[0]["q50"]) == np.quantile(dist.samples[:, 0, 0], 0.5)
    assert float(srows[4]["point"]) == dist.point[4, 0]

    trows = _read_rows(tmp_path / "truth.csv")
    assert float(trows[7]["value"]) == window.y_future[7, 0]
