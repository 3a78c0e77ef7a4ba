"""Forecasting: encoder filtering, decoder rollout, sample-based
distributions, quantiles, and CSV artifacts."""

import csv

import numpy as np
import pytest

from flowcast import data as data_mod
from flowcast import forecast
from flowcast import ssm
from flowcast.errors import DataError, FlowSolveError
from flowcast.flow import FlowConfig
from flowcast.forecast import ForecastDistribution, PredictConfig, empirical_quantile, predict


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
    assert dist.state_particles.shape == (4, 12, 2)
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
    dist = predict(tiny_gru_model, None, window, _config(noiseless=True, n_particles=3))
    for j in range(3):
        for k in range(12):
            mean, _ = ssm.measurement_moments(tiny_gru_model, dist.state_particles[j, k])
            np.testing.assert_allclose(dist.samples[j, k], mean, rtol=1e-10)


def test_single_particle_noiseless_rollout_is_recursive_point_path(window):
    # sigma = 0, one particle, noiseless decoding: starting from the same
    # filtered state, the decoder is a plain deterministic recursion and the
    # rollout seed is irrelevant
    model = ssm.init_model(kind="gru", n_series=1, d_x=2, layers=1, d_z=0, rho=0.8, sigma=0.0, seed=3)
    ens = forecast.filter_window(model, None, window.y_past, None, 1, FlowConfig(n_lambda=8), seed=0)
    d1 = forecast.rollout(model, None, ens, window.y_past[-1], None, q_steps=12, seed=0, noiseless=True)
    d2 = forecast.rollout(model, None, ens, window.y_past[-1], None, q_steps=12, seed=99, noiseless=True)
    np.testing.assert_array_equal(d1.samples, d2.samples)
    full = predict(model, None, window, _config(n_particles=1, noiseless=True, seed=0))
    np.testing.assert_array_equal(full.point, full.samples[0])


def test_decoder_feeds_back_its_own_samples(tiny_gru_model, rng):
    # zero horizon covariates; run with q_steps=2 and check step-2 states
    # differ across particles even though step-1 conditioned on shared y
    vals = rng.standard_normal((14, 1)) * 0.5
    s = data_mod.SeriesSet(values=vals, missing=np.zeros((14, 1), bool), names=["a"])
    w = data_mod.make_windows(s, 12, 2)[0]
    dist = predict(tiny_gru_model, None, w, _config(n_particles=6))
    spread_step2 = np.ptp(dist.state_particles[:, 1, :], axis=0).max()
    assert spread_step2 > 0


def test_predict_more_particles_tightens_the_mean(tiny_gru_model, window):
    # doubling particles: the two ensemble means should agree within a few
    # standard errors of the bigger ensemble
    small = predict(tiny_gru_model, None, window, _config(n_particles=64, seed=1))
    big = predict(tiny_gru_model, None, window, _config(n_particles=512, seed=2))
    se = big.samples.std(axis=0, ddof=1) / np.sqrt(512)
    gap = np.abs(small.samples.mean(axis=0) - big.samples.mean(axis=0))
    frac_within = (gap <= 4 * se + 4 * small.samples.std(axis=0, ddof=1) / np.sqrt(64)).mean()
    assert frac_within > 0.95


def test_filter_window_consumes_history(tiny_gru_model, window):
    ens = forecast.filter_window(tiny_gru_model, None, window.y_past, None, n_particles=5, flow_config=FlowConfig(n_lambda=8), seed=0)
    assert ens.particles.shape == (5, 2)
    assert ens.time_index == 12


def test_rollout_zero_steps_returns_empty(tiny_gru_model, window):
    ens = forecast.filter_window(tiny_gru_model, None, window.y_past, None, 3, FlowConfig(n_lambda=8), seed=0)
    dist = forecast.rollout(tiny_gru_model, None, ens, window.y_past[-1], None, q_steps=0, seed=0)
    assert dist.samples.shape == (3, 0, 1)


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
