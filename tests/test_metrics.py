"""Scoring: point metrics, CRPS (against numerical integration of its
CDF definition), quantile loss, and the report layout."""

import re

import numpy as np
import pytest

from flowcast import metrics
from flowcast.errors import DataError
from flowcast.kernels import crps_batch


# ---------------------------------------------------------------------------
# point metrics
# ---------------------------------------------------------------------------


def test_point_metrics_hand_case():
    points = np.array([[[1.0], [2.0]], [[3.0], [5.0]]])  # (windows=2, Q=2, N=1)
    targets = np.array([[[2.0], [2.0]], [[1.0], [1.0]]])
    out1 = metrics.point_metrics(points, targets, horizon=1)
    np.testing.assert_allclose(out1["mae"], (1.0 + 2.0) / 2)
    np.testing.assert_allclose(out1["rmse"], np.sqrt((1.0 + 4.0) / 2))
    np.testing.assert_allclose(out1["mape"], 100.0 * (1.0 / 2.0 + 2.0 / 1.0) / 2)
    out2 = metrics.point_metrics(points, targets, horizon=2)
    np.testing.assert_allclose(out2["mae"], (0.0 + 4.0) / 2)


def test_mape_masks_near_zero_targets():
    points = np.array([[[1.0], [1.0]]])
    targets = np.array([[[1e-9], [2.0]]])
    out = metrics.point_metrics(points, targets, horizon=1)
    assert np.isnan(out["mape"])  # the only horizon-1 target is masked out
    out2 = metrics.point_metrics(points, targets, horizon=2)
    np.testing.assert_allclose(out2["mape"], 50.0)


def test_point_metrics_horizon_validation():
    points = targets = np.zeros((1, 2, 1))
    with pytest.raises(DataError):
        metrics.point_metrics(points, targets, horizon=3)


# ---------------------------------------------------------------------------
# CRPS
# ---------------------------------------------------------------------------


def _crps_by_integration(samples, y, grid_pad=6.0, n_grid=200001):
    """Oracle: integrate (F_hat(x) - 1{x >= y})^2 dx on a dense grid."""
    lo = min(samples.min(), y) - grid_pad
    hi = max(samples.max(), y) + grid_pad
    xs = np.linspace(lo, hi, n_grid)
    cdf = np.searchsorted(np.sort(samples), xs, side="right") / len(samples)
    ind = (xs >= y).astype(float)
    return np.trapezoid((cdf - ind) ** 2, xs)


def test_crps_two_point_hand_case():
    np.testing.assert_allclose(crps_batch(np.array([[0.0, 2.0]]), np.array([1.0])), [0.5], rtol=1e-12)


def test_crps_matches_numerical_integration(rng):
    for _ in range(20):
        samples = rng.standard_normal(rng.integers(2, 30)) * rng.uniform(0.5, 2.0)
        y = rng.standard_normal() * 1.5
        got = crps_batch(samples[None], np.array([y]))[0]
        want = _crps_by_integration(samples, y)
        np.testing.assert_allclose(got, want, atol=1e-3)


def test_crps_is_bounded_by_mean_absolute_error(rng):
    for _ in range(30):
        samples = rng.standard_normal(17)
        y = rng.standard_normal()
        crps = crps_batch(samples[None], np.array([y]))[0]
        assert 0.0 <= crps <= np.mean(np.abs(samples - y)) + 1e-12


def test_crps_degenerate_ensemble_equals_absolute_error(rng):
    y = 0.3
    np.testing.assert_allclose(crps_batch(np.full((1, 9), -1.2), np.array([y])), [1.5], rtol=1e-12)


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
    with pytest.raises(DataError, match=f"horizon {horizon} outside 1..4"):
        metrics.crps_avg(samples, targets, horizon)


def test_crps_avg_over_windows_and_series(rng):
    samples = rng.standard_normal((3, 8, 4, 2))  # (windows, particles, Q, N)
    targets = rng.standard_normal((3, 4, 2))
    got = metrics.crps_avg(samples, targets, horizon=2)
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
    assert np.isnan(metrics.ql_avg(np.ones((1, 2, 1)), targets, 0.5, 1))


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
    got = metrics.ql_avg(forecasts, targets, alpha=0.5, horizon=2)
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
    names = {(m, h) for m, h, _ in rows}
    for h in (1, 3, 6):
        for m in ("mae", "mape", "rmse", "crps_avg", "ql50_avg", "ql90_avg"):
            assert (m, h) in names
    assert ("crps_sum", "all") in names
    for _, _, v in rows:
        assert isinstance(v, float)


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


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: metrics.point_metrics(np.zeros((2, 3, 1)), np.zeros((2, 4, 1)), 1), "points and targets must have identical shapes"),
    ],
    ids=["shape_mismatch"],
)
def test_input_checks(call, message):
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        call()
