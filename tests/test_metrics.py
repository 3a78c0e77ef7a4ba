"""Scoring: the rows of ``evaluate_forecasts`` (point metrics, CRPS,
quantile losses) against hand cases and an independent recomputation,
``crps_sum``, ``quantile_loss``, and the report layout."""

import re

import numpy as np
import pytest

from flowcast import metrics
from flowcast.errors import DataError
from flowcast.kernels import crps_batch


# ---------------------------------------------------------------------------
# point metrics
# ---------------------------------------------------------------------------


def _rows(samples, points, targets, horizons):
    return {(m, h): v for m, h, v in metrics.evaluate_forecasts(samples, points, targets, horizons)}


def _point_rows(points, targets, horizons):
    """Rows of a point forecast scored with a one-particle ensemble at the points."""
    return _rows(points[:, None], points, targets, horizons)


def test_point_metrics_hand_case():
    points = np.array([[[1.0], [2.0]], [[3.0], [5.0]]])  # (windows=2, Q=2, N=1)
    targets = np.array([[[2.0], [2.0]], [[1.0], [1.0]]])
    rows = _point_rows(points, targets, [1, 2])
    np.testing.assert_allclose(rows["mae", 1], (1.0 + 2.0) / 2)
    np.testing.assert_allclose(rows["rmse", 1], np.sqrt((1.0 + 4.0) / 2))
    np.testing.assert_allclose(rows["mape", 1], 100.0 * (1.0 / 2.0 + 2.0 / 1.0) / 2)
    np.testing.assert_allclose(rows["mae", 2], (0.0 + 4.0) / 2)


def test_mape_masks_near_zero_targets():
    points = np.array([[[1.0], [1.0]]])
    targets = np.array([[[1e-9], [2.0]]])
    rows = _point_rows(points, targets, [1, 2])
    assert np.isnan(rows["mape", 1])  # the only horizon-1 target is masked out
    np.testing.assert_allclose(rows["mape", 2], 50.0)


def test_point_metrics_horizon_validation():
    points = targets = np.zeros((1, 2, 1))
    with pytest.raises(DataError, match=re.escape("requested horizons [0, 3] exceed the forecast horizon 2")):
        _point_rows(points, targets, [0, 1, 3])


# ---------------------------------------------------------------------------
# CRPS
# ---------------------------------------------------------------------------


def test_crps_is_bounded_by_mean_absolute_error(rng):
    for _ in range(30):
        samples = rng.standard_normal(17)
        y = rng.standard_normal()
        crps = crps_batch(samples[None], np.array([y]))[0]
        assert 0.0 <= crps <= np.mean(np.abs(samples - y)) + 1e-12


def test_crps_rewards_sharp_calibrated_forecasts(rng):
    # forecast centered on the truth beats one biased away from it
    truth = 1.0
    sharp = truth + 0.2 * rng.standard_normal(400)
    biased = truth + 2.0 + 0.2 * rng.standard_normal(400)
    sharp_crps, biased_crps = crps_batch(np.stack([sharp, biased]), np.full(2, truth))
    assert sharp_crps < biased_crps


@pytest.mark.parametrize("horizon", [0, -1, 5])
def test_crps_avg_horizon_validation(rng, horizon):
    samples, targets = rng.standard_normal((3, 8, 4, 2)), rng.standard_normal((3, 4, 2))
    with pytest.raises(DataError, match=re.escape(f"requested horizons [{horizon}] exceed the forecast horizon 4")):
        metrics.evaluate_forecasts(samples, samples.mean(axis=1), targets, [horizon])


def test_crps_avg_over_windows_and_series(rng):
    samples = rng.standard_normal((3, 8, 4, 2))  # (windows, particles, Q, N)
    targets = rng.standard_normal((3, 4, 2))
    got = _rows(samples, samples.mean(axis=1), targets, [2])["crps_avg", 2]
    want = np.mean([crps_batch(samples[w, :, 1, i][None], targets[w, 1, i][None])[0] for w in range(3) for i in range(2)])
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_crps_sum_hand_case():
    # one window, one step, two series; the aggregate ensemble is the
    # per-particle sum across series
    samples = np.array([[[[0.0, 0.0]]], [[[1.0, 1.0]]]]).transpose(1, 0, 2, 3)  # (1, 2, 1, 2)
    assert samples.shape == (1, 2, 1, 2)
    targets = np.array([[[1.0, 1.0]]])
    # summed samples {0, 2}, summed target 2: CRPS = mean|x-y| - spread/2 = 1 - 0.5 = 0.5
    # denominator sum |target-sum| = 2 -> 0.25
    np.testing.assert_allclose(metrics.crps_sum(samples, targets), 0.25, rtol=1e-12)


def test_crps_sum_zero_denominator_is_nan():
    samples = np.zeros((1, 3, 2, 1))
    targets = np.zeros((1, 2, 1))
    assert np.isnan(metrics.crps_sum(samples, targets))


def test_ql_avg_zero_denominator_is_nan():
    targets = np.zeros((1, 2, 1))
    rows = _rows(np.ones((1, 3, 2, 1)), np.ones((1, 2, 1)), targets, [1])
    assert np.isnan(rows["ql50_avg", 1]) and np.isnan(rows["ql90_avg", 1])


# ---------------------------------------------------------------------------
# quantile loss
# ---------------------------------------------------------------------------


def test_quantile_loss_hand_cases():
    # y=1, prediction 0, alpha=0.9: 2 * 0.9 * 1 = 1.8
    np.testing.assert_allclose(metrics.quantile_loss(np.array([1.0]), np.array([0.0]), 0.9), [1.8])
    # y=0, prediction 1, alpha=0.9: 2 * 0.1 * 1 = 0.2
    np.testing.assert_allclose(metrics.quantile_loss(np.array([0.0]), np.array([1.0]), 0.9), [0.2])


def test_quantile_loss_at_median_is_absolute_error(rng):
    y = rng.standard_normal(50)
    yhat = rng.standard_normal(50)
    np.testing.assert_allclose(metrics.quantile_loss(y, yhat, 0.5), np.abs(y - yhat), rtol=1e-12)


def test_quantile_loss_is_minimized_at_the_true_quantile(rng):
    # property: among constant predictions, the alpha-quantile of the sample
    # minimizes the average loss
    y = rng.standard_normal(4000)
    alpha = 0.8
    q = np.quantile(y, alpha)
    loss_at_q = metrics.quantile_loss(y, np.full_like(y, q), alpha).mean()
    for cand in (q - 0.3, q + 0.3):
        assert loss_at_q <= metrics.quantile_loss(y, np.full_like(y, cand), alpha).mean() + 1e-9


def test_ql_avg_normalizes_by_target_scale(rng):
    forecasts = rng.standard_normal((2, 3, 2))
    targets = rng.standard_normal((2, 3, 2)) + 3.0
    got = _point_rows(forecasts, targets, [2])["ql50_avg", 2]  # every quantile of one particle is that particle
    raw = metrics.quantile_loss(targets[:, 1, :].ravel(), forecasts[:, 1, :].ravel(), 0.5)
    want = raw.sum() / np.abs(targets[:, 1, :]).sum()
    np.testing.assert_allclose(got, want, rtol=1e-12)


# ---------------------------------------------------------------------------
# aggregate report
# ---------------------------------------------------------------------------


def test_evaluate_forecasts_produces_expected_rows(rng):
    samples = rng.standard_normal((4, 10, 6, 2))
    points = samples.mean(axis=1)
    targets = rng.standard_normal((4, 6, 2))
    rows = metrics.evaluate_forecasts(samples, points, targets, horizons=[1, 3, 6])
    per_horizon = ("mae", "mape", "rmse", "crps_avg", "ql50_avg", "ql90_avg")
    assert [(m, h) for m, h, _ in rows] == [(m, h) for h in (1, 3, 6) for m in per_horizon] + [("crps_sum", "all")]
    for _, _, v in rows:
        assert isinstance(v, float)


def _pairwise_crps(x, y):
    """E|X - y| - E|X - X'| / 2 over the ensemble x, each pair counted."""
    return np.mean(np.abs(x - y)) - 0.5 * np.mean(np.abs(x[:, None] - x[None, :]))


def _quantile(x, alpha):
    """The linearly interpolated sample quantile, numpy's default rule."""
    xs = np.sort(x)
    pos = alpha * (len(xs) - 1)
    lo = int(np.floor(pos))
    return xs[lo] + (pos - lo) * (xs[min(lo + 1, len(xs) - 1)] - xs[lo])


def test_evaluate_forecasts_matches_independent_recomputation(rng):
    m, n_p, q, n = 3, 7, 4, 2
    samples = rng.standard_normal((m, n_p, q, n))
    points = rng.standard_normal((m, q, n))
    targets = rng.standard_normal((m, q, n))  # of both signs, so the scales are sums of |y|
    rows = metrics.evaluate_forecasts(samples, points, targets, horizons=[2, 4])
    want = []
    for h in (2, 4):
        cells = [(w, i) for w in range(m) for i in range(n)]
        y = np.array([targets[w, h - 1, i] for w, i in cells])
        err = np.array([points[w, h - 1, i] for w, i in cells]) - y
        crps = [_pairwise_crps(samples[w, :, h - 1, i], targets[w, h - 1, i]) for w, i in cells]
        want += [
            ("mae", h, sum(abs(e) for e in err) / len(cells)),
            ("mape", h, 100.0 * np.mean([abs(e / t) for e, t in zip(err, y) if abs(t) > 1e-3])),
            ("rmse", h, np.sqrt(sum(e * e for e in err) / len(cells))),
            ("crps_avg", h, sum(crps) / len(cells)),
        ]
        for alpha, name in ((0.5, "ql50_avg"), (0.9, "ql90_avg")):
            loss = 0.0
            for (w, i), t in zip(cells, y):
                qa = _quantile(samples[w, :, h - 1, i], alpha)
                loss += 2.0 * (alpha * max(t - qa, 0.0) + (1.0 - alpha) * max(qa - t, 0.0))
            want.append((name, h, loss / np.abs(y).sum()))
    summed, summed_truth = samples.sum(axis=-1), targets.sum(axis=-1)
    crps_sum = sum(_pairwise_crps(summed[w, :, t], summed_truth[w, t]) for w in range(m) for t in range(q))
    want.append(("crps_sum", "all", crps_sum / np.abs(summed_truth).sum()))
    assert [row[:2] for row in rows] == [row[:2] for row in want]
    np.testing.assert_allclose([row[2] for row in rows], [row[2] for row in want], rtol=1e-12)


def test_metrics_report_csv_layout(tmp_path, rng):
    samples = rng.standard_normal((2, 5, 3, 1))
    points = samples.mean(axis=1)
    targets = rng.standard_normal((2, 3, 1))
    rows = metrics.evaluate_forecasts(samples, points, targets, horizons=[1])
    path = tmp_path / "metrics.csv"
    metrics.write_metrics_report(path, rows)
    text = path.read_text().splitlines()
    assert text[0] == "metric,horizon,value"
    assert len(text) == len(rows) + 1


# ---------------------------------------------------------------------------
# input checks
# ---------------------------------------------------------------------------


_SHAPES = "samples must be (M, n_particles, Q, N) and points and targets (M, Q, N)"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: metrics.evaluate_forecasts(np.zeros((2, 5, 3, 1)), np.zeros((2, 3, 1)), np.zeros((2, 4, 1)), [1]), _SHAPES),
        (lambda: metrics.evaluate_forecasts(np.zeros((2, 5, 4, 2)), np.zeros((2, 4, 1)), np.zeros((2, 4, 1)), [1]), _SHAPES),
    ],
    ids=["shape_mismatch", "samples_shape_mismatch"],
)
def test_input_checks(call, message):
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        call()
