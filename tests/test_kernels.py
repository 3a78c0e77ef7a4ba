"""Numpy kernels against brute-force oracles."""

import numpy as np

from flowcast import kernels


# ---------------------------------------------------------------------------
# systematic resampling
# ---------------------------------------------------------------------------


def test_resample_uniform_weights_is_identity():
    w = np.full(5, 0.2)
    idx = kernels.systematic_resample_indices(np.cumsum(w), 0.5)
    np.testing.assert_array_equal(idx, [0, 1, 2, 3, 4])


def test_resample_point_mass_duplicates_winner():
    w = np.array([0.0, 1.0, 0.0])
    idx = kernels.systematic_resample_indices(np.cumsum(w), 0.123)
    np.testing.assert_array_equal(idx, [1, 1, 1])


def test_resample_counts_are_unbiased(rng):
    # E[#copies of particle i] = n * w_i; systematic resampling guarantees
    # the count is within 1 of that target for every draw of u.
    w = rng.dirichlet(np.ones(6))
    n = len(w)
    for u in np.linspace(0.0, 0.999, 25):
        idx = kernels.systematic_resample_indices(np.cumsum(w), float(u))
        counts = np.bincount(idx, minlength=n)
        assert np.all(np.abs(counts - n * w) < 1.0 + 1e-12)


def test_resample_indices_are_sorted(rng):
    w = rng.dirichlet(np.ones(9))
    idx = kernels.systematic_resample_indices(np.cumsum(w), 0.77)
    assert np.all(np.diff(idx) >= 0)


# ---------------------------------------------------------------------------
# forward fill
# ---------------------------------------------------------------------------


def test_forward_fill_copies_last_observed_value():
    vals = np.array([[1.0, 10.0], [0.0, 20.0], [3.0, 0.0], [0.0, 0.0]])
    miss = np.array([[False, False], [True, False], [False, True], [True, True]])
    out = kernels.forward_fill_array(vals.copy(), miss)
    np.testing.assert_array_equal(out[:, 0], [1.0, 1.0, 3.0, 3.0])
    np.testing.assert_array_equal(out[:, 1], [10.0, 20.0, 20.0, 20.0])


def test_forward_fill_no_missing_is_identity(rng):
    vals = rng.standard_normal((7, 2))
    out = kernels.forward_fill_array(vals.copy(), np.zeros((7, 2), dtype=bool))
    np.testing.assert_array_equal(out, vals)


# ---------------------------------------------------------------------------
# batched empirical CRPS
# ---------------------------------------------------------------------------


def _crps_brute(samples, y):
    n = len(samples)
    term1 = np.mean(np.abs(samples - y))
    term2 = np.mean(np.abs(samples[:, None] - samples[None, :])) / 2.0
    return term1 - term2


def test_crps_batch_matches_pairwise_bruteforce(rng):
    samples = np.sort(rng.standard_normal((5, 13)), axis=1)
    targets = rng.standard_normal(5)
    got = kernels.crps_batch(samples, targets)
    want = [_crps_brute(samples[i], targets[i]) for i in range(5)]
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_crps_batch_two_point_example():
    # samples {0, 2} vs target 1: mean|x-y| = 1, spread term = 1/2.
    got = kernels.crps_batch(np.array([[0.0, 2.0]]), np.array([1.0]))
    np.testing.assert_allclose(got, [0.5], rtol=1e-15)


def test_crps_degenerate_ensemble_is_absolute_error():
    got = kernels.crps_batch(np.full((1, 4), 2.5), np.array([1.0]))
    np.testing.assert_allclose(got, [1.5], rtol=1e-15)


# ---------------------------------------------------------------------------
# diagonal Gaussian log-likelihood
# ---------------------------------------------------------------------------


def test_diag_gauss_loglik_standard_normal_at_zero():
    got = kernels.diag_gauss_loglik(np.zeros((1, 3)), np.ones((1, 3)), np.zeros(3))
    np.testing.assert_allclose(got, [-1.5 * np.log(2 * np.pi)], rtol=1e-14)


def test_diag_gauss_loglik_matches_scipy(rng):
    from scipy import stats

    means = rng.standard_normal((6, 4))
    stds = rng.uniform(0.3, 2.0, (6, 4))
    y = rng.standard_normal(4)
    got = kernels.diag_gauss_loglik(means, stds, y)
    want = [stats.norm.logpdf(y, means[i], stds[i]).sum() for i in range(6)]
    np.testing.assert_allclose(got, want, rtol=1e-12)
