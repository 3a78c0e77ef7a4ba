"""Forecasting: the batched pipeline against a per-window reference,
sample-based distributions, quantiles, and CSV artifacts."""

import csv
import io

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
    s = data_mod.SeriesSet(values=vals, names=["a"])
    return data_mod.make_windows(s, 12, 12)[0]


@pytest.fixture
def multi_window(rng):
    vals = rng.standard_normal((24, 3)) * 0.5
    s = data_mod.SeriesSet(values=vals, names=["a", "b", "c"])
    return data_mod.make_windows(s, 12, 12)[0]


def _config(**kw):
    kw.setdefault("flow", FlowConfig(n_lambda=8))
    kw.setdefault("n_particles", 4)
    return PredictConfig(**kw)


def _forward(model, graph, windows, cfg, noiseless=False):
    """The stacked batch of ``windows`` and batch_forward's (samples, means, stds) on it."""
    batch = train.stack_batch(windows, model, cfg.n_particles, cfg.seed)
    samples, means, stds, _ = train.batch_forward(model.params, model, batch, cfg.flow, graph=graph, noiseless=noiseless)
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
    noise = train.stack_batch([window], model, n_p, cfg.seed)  # this window's draws, alone
    prm = model.params
    mixing = ssm.build_mixing(prm, model.hyper, graph) if model.hyper["kind"] == "graph_gru" else None

    def step(x, y_prev, t):  # the transition into (1-based) time t
        z_rows = None if window.z is None else np.broadcast_to(window.z[t - 1], (n_p, window.z.shape[1]))
        y_rows = np.broadcast_to(y_prev, (n_p, n))
        return ssm.transition_core(prm, model.hyper, x, y_rows, z_rows, mixing=mixing) + prm["sigma"] * noise.dyn[t - 2, 0]

    def noise_var(means):
        return np.logaddexp(0.0, means @ prm["C_gamma"].T) ** 2

    x = prm["rho"] * noise.init[0]
    for t in range(1, p + 1):
        if t > 1:
            x = step(x, y_hist[t - 2], t)
        x = edh_flow(x[None], prm["W_phi"], y_hist[None, t - 1], noise_var, cfg.flow)[0]
    samples = np.empty((n_p, q, n))
    y_prev = y_hist[-1]
    for k in range(q):
        x = step(x, y_prev, p + 1 + k)
        y_prev = x @ prm["W_phi"].T + np.logaddexp(0.0, x @ prm["C_gamma"].T) * noise.meas[k, 0]
        samples[:, k] = y_prev
    return samples


@pytest.mark.parametrize("kind,n,d_z", [("gru", 1, 0), ("graph_gru", 3, 0), ("gru", 2, 2)])
def test_batched_forecast_matches_per_window_reference(rng, kind, n, d_z):
    model = ssm.init_model(kind=kind, n_series=n, d_x=2, layers=1, d_z=d_z, rho=0.8, sigma=0.05, init_scale=0.5, seed=5)
    model.params["C_gamma"] = 0.3 * rng.standard_normal(model.params["C_gamma"].shape)  # a state-dependent noise scale
    graph = ssm.Graph.from_weights(np.ones((n, n))) if kind == "graph_gru" else None
    vals = 0.5 * rng.standard_normal((40, n))
    s = data_mod.SeriesSet(values=vals, names=[f"s{i}" for i in range(n)])
    windows = data_mod.make_windows(s, 4, 3, period=12 if d_z else None)[:4]
    cfg = _config(n_particles=3, seed=2)
    _, samples, _, _ = _forward(model, graph, windows, cfg)
    assert samples.shape == (4, 3, 3, n)
    for i, w in enumerate(windows):
        assert _rel(samples[i], _reference_forecast(model, graph, w, cfg)) <= 1e-12
        assert _rel(predict(model, graph, w, cfg).samples, samples[i]) <= 1e-12


def test_predict_windows_chunks_do_not_change_forecasts(tiny_gru_model, rng, monkeypatch):
    # each window draws its noise from (seed, window id); with one series a
    # window's arithmetic does not depend on the other rows of its chunk, so
    # the stacks hold predict's forecasts bit for bit whatever the chunking
    vals = rng.standard_normal((30, 1)) * 0.5
    s = data_mod.SeriesSet(values=vals, names=["a"])
    windows = data_mod.make_windows(s, 6, 3)[:5]
    stacked = []
    stack = train.stack_batch
    monkeypatch.setattr(train, "stack_batch", lambda chunk, *args: stacked.append(len(chunk)) or stack(chunk, *args))
    for point in ("median", "mean"):
        cfg = _config(n_particles=3, point=point)
        alone = [predict(tiny_gru_model, None, w, cfg) for w in windows]
        assert [d.meta["window_id"] for d in alone] == [w.window_id for w in windows]
        # two windows of three particles a chunk; one window when a window alone is over the budget; all at once
        for rows, sizes in ((6, [2, 2, 1]), (2, [1] * 5), (9, [3, 2]), (300, [5])):
            stacked.clear()
            monkeypatch.setattr(forecast, "CHUNK_ROWS", rows)
            samples, points = forecast.predict_windows(tiny_gru_model, None, windows, cfg)
            assert stacked == sizes
            assert samples.shape == (5, 3, 3, 1) and points.shape == (5, 3, 1)
            assert samples.tobytes() == np.stack([d.samples for d in alone]).tobytes()
            assert points.tobytes() == np.stack([d.point for d in alone]).tobytes()


def test_predict_windows_needs_a_window(tiny_gru_model):
    with pytest.raises(DataError, match="no windows"):
        forecast.predict_windows(tiny_gru_model, None, [], _config())


def test_predict_zero_horizon_gives_empty_samples(tiny_gru_model, rng):
    vals = rng.standard_normal((14, 1)) * 0.5
    s = data_mod.SeriesSet(values=vals, names=["a"])
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
    s = data_mod.SeriesSet(values=vals, names=["a"])
    window = data_mod.make_windows(s, 4, 2)[7]
    model = ssm.init_model(kind="gru", n_series=1, d_x=2, layers=1, rho=0.8, sigma=0.05, init_scale=0.5, seed=3)
    cfg = _config(n_particles=1)
    # a huge emission scale pointing away from the one particle: the softplus
    # noise std underflows to 0, so S = diag(r) is singular at lambda = 0
    init = train.stack_batch([window], model, 1, cfg.seed).init[0, 0]
    model.params["C_gamma"] = -1e4 * np.sign(init)[None, :]
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
    d1 = train.batch_forward(model.params, model, batch, cfg.flow, noiseless=True)[0]
    other = np.random.default_rng(99)
    batch.dyn[11:] = other.standard_normal(batch.dyn[11:].shape)  # the decoder's transitions
    batch.meas[:] = other.standard_normal(batch.meas.shape)
    d2 = train.batch_forward(model.params, model, batch, cfg.flow, noiseless=True)[0]
    np.testing.assert_array_equal(d1, d2)
    full = predict(model, None, window, cfg)
    np.testing.assert_array_equal(full.point, full.samples[0])


def test_decoder_feeds_back_its_own_samples(tiny_gru_model, rng):
    # with two steps, the step-2 emission means differ across particles:
    # each particle's second transition reads its own step-1 sample
    vals = rng.standard_normal((14, 1)) * 0.5
    s = data_mod.SeriesSet(values=vals, names=["a"])
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


def test_predict_windows_graph_model_runs_without_einsum(small_graph_model, multi_window, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("np.einsum on the forecast path")

    monkeypatch.setattr(np, "einsum", forbidden)
    model, graph = small_graph_model
    samples, points = forecast.predict_windows(model, graph, [multi_window, multi_window], _config(n_particles=3))
    assert samples.shape == (2, 3, 12, 3) and np.isfinite(samples).all()


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


def test_forecast_csvs_round_trip_values(tmp_path, rng):
    model = ssm.init_model(kind="gru", n_series=3, d_x=2, layers=1, d_z=0, rho=0.8, sigma=0.05, init_scale=0.5, seed=3)
    vals = rng.standard_normal((25, 3)) * 0.5
    s = data_mod.SeriesSet(values=vals, names=["a", "b", "c"])
    windows = data_mod.make_windows(s, 12, 11, start_offset=298)
    ids = [w.window_id for w in windows]
    assert ids == [298, 299, 300]  # window ids past the small-int cache, keys of three digits
    samples, points = forecast.predict_windows(model, None, windows, _config(n_particles=3, point="mean"))
    targets = np.stack([w.y_future for w in windows])
    assert points.tobytes() == np.stack([paths.mean(axis=0) for paths in samples]).tobytes()
    paths = [tmp_path / name for name in ("samples.csv", "summary.csv", "truth.csv")]
    forecast.write_forecast_samples(paths[0], ids, samples)
    forecast.write_forecast_summary(paths[1], ids, samples, points)
    forecast.write_truth(paths[2], ids, targets)

    # byte for byte what a row-at-a-time writer produces: CRLF rows by window,
    # horizon, series and sample, repr values; quantiles per cell, across the particles
    cells = [(a, wid, h, i) for a, wid in enumerate(ids) for h in range(11) for i in range(3)]
    reference = {
        "samples": [[wid, h + 1, i, j, repr(float(samples[a, j, h, i]))] for a, wid, h, i in cells for j in range(3)],
        "summary": [
            [wid, h + 1, i, repr(float(points[a, h, i])), *(repr(float(v)) for v in np.quantile(samples[a, :, h, i], [0.1, 0.5, 0.9]))]
            for a, wid, h, i in cells
        ],
        "truth": [[wid, h + 1, i, repr(float(targets[a, h, i]))] for a, wid, h, i in cells],
    }
    for path, header in zip(paths, ("window,horizon,series,sample,value", "window,horizon,series,point,q10,q50,q90", "window,horizon,series,value")):
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header.split(","))
        for row in reference[path.stem]:
            writer.writerow(row)
        assert path.read_bytes() == buf.getvalue().encode()
    assert float(_read_rows(paths[1])[0]["q50"]) == np.median(samples[0, :, 0, 0])

    # repr values read back exactly: the reader returns the written arrays bitwise
    back_samples, back_points, back_targets = forecast.read_forecast_files(*paths)
    assert back_samples.shape == (3, 3, 11, 3) and back_points.shape == back_targets.shape == (3, 11, 3)
    assert back_samples.tobytes() == samples.tobytes()
    assert back_points.tobytes() == points.tobytes()
    assert back_targets.tobytes() == targets.astype(np.float64).tobytes()


def _csv_writer_text(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode()


@pytest.mark.parametrize("ids", [[5, 1800], np.array([5, 1800], dtype=np.int64)], ids=["int", "int64"])
def test_forecast_writers_match_a_csv_writer_rendering(tmp_path, rng, ids):
    # one particle, so every quantile is the sample itself; a negative zero,
    # a subnormal and a value repr writes with an exponent
    samples = rng.standard_normal((2, 1, 3, 2))
    samples[0, 0, 0] = [-0.0, 1e-310]
    samples[1, 0, 2, 1] = 1e16
    points, targets = samples[:, 0] * 2.0, samples[:, 0] - 1.0
    paths = [tmp_path / name for name in ("samples.csv", "summary.csv", "truth.csv")]
    forecast.write_forecast_samples(paths[0], ids, samples)
    forecast.write_forecast_summary(paths[1], ids, samples, points)
    forecast.write_truth(paths[2], ids, targets)
    cells = [(a, wid, h, i) for a, wid in enumerate(ids) for h in range(3) for i in range(2)]
    v = lambda arr, *index: float(arr[index])
    want = [
        _csv_writer_text(["window", "horizon", "series", "sample", "value"], [[wid, h + 1, i, 0, v(samples, a, 0, h, i)] for a, wid, h, i in cells]),
        _csv_writer_text(
            ["window", "horizon", "series", "point", "q10", "q50", "q90"],
            [[wid, h + 1, i, v(points, a, h, i), *[v(samples, a, 0, h, i)] * 3] for a, wid, h, i in cells],
        ),
        _csv_writer_text(["window", "horizon", "series", "value"], [[wid, h + 1, i, v(targets, a, h, i)] for a, wid, h, i in cells]),
    ]
    assert [path.read_bytes() for path in paths] == want
    assert b"\r\n5,1,1,0,1e-310\r\n" in want[0] and b",-0.0\r\n" in want[0] and b",1e+16\r\n" in want[0]
    back_samples, back_points, back_targets = forecast.read_forecast_files(*paths)
    assert back_samples.tobytes() == samples.tobytes()
    assert back_points.tobytes() == points.tobytes()
    assert back_targets.tobytes() == targets.tobytes()


def _shift_horizon(row):
    cells = row.split(",")
    return ",".join([cells[0], str(int(cells[1]) + 1), *cells[2:]])


@pytest.mark.parametrize(
    "name, edit, match",
    [
        ("samples", lambda rows: [rows[0].replace("sample", "draw")] + rows[1:], "lacks columns: \\['sample'\\]"),
        ("truth", lambda rows: rows[:1] + [rows[1].rsplit(",", 1)[0] + ",oops"] + rows[2:], "bad cell"),
        ("samples", lambda rows: rows[:1] + [rows[1].replace(",1,", ",1.5,", 1)] + rows[2:], "must hold integers"),
        ("samples", lambda rows: rows + rows[-1:], "1 duplicated"),
        ("samples", lambda rows: rows[:-1], "lacks rows for at least 1 of its 16"),
        ("truth", lambda rows: rows[:1], "has no rows"),
        ("summary", lambda rows: [r for r in rows if not r.startswith("8,")], "summary and truth files cover different"),
        ("all", lambda rows: rows[:1] + [_shift_horizon(r) for r in rows[1:]], "not contiguous from 1"),
    ],
    ids=["missing-column", "non-numeric", "non-integer-key", "duplicate", "missing-cell", "no-rows", "other-cells", "horizons"],
)
def test_read_forecast_files_rejects_malformed_files(tmp_path, rng, name, edit, match):
    samples = rng.standard_normal((2, 2, 2, 2))
    paths = {key: tmp_path / f"{key}.csv" for key in ("samples", "summary", "truth")}
    forecast.write_forecast_samples(paths["samples"], [7, 8], samples)
    forecast.write_forecast_summary(paths["summary"], [7, 8], samples, rng.standard_normal((2, 2, 2)))
    forecast.write_truth(paths["truth"], [7, 8], rng.standard_normal((2, 2, 2)))
    for key, path in paths.items():
        if name in (key, "all"):
            path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    with pytest.raises(DataError, match=match):
        forecast.read_forecast_files(paths["samples"], paths["summary"], paths["truth"])
