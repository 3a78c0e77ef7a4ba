"""Kalman filter, bootstrap particle filter, and the linear-Gaussian
benchmark harness: conjugate hand cases plus Monte Carlo agreement."""

import re

import numpy as np
import pytest

from flowcast import filters
from flowcast import flow as flow_mod
from flowcast.errors import DataError, DegenerateWeightsError, NumericError
from flowcast.filters import (
    LinearGaussianSSM,
    bpf_filter_linear,
    flow_filter_linear,
    kalman_filter,
    kalman_predict,
    kalman_update,
    systematic_resample,
)


def _scalar_ssm(f=0.9, q=0.25, h=1.0, r=1.0):
    return LinearGaussianSSM(
        F=np.array([[f]]),
        Q=np.array([[q]]),
        H=np.array([[h]]),
        R=np.array([[r]]),
        init_mean=np.zeros(1),
        init_cov=np.eye(1),
    )


# ---------------------------------------------------------------------------
# linear-Gaussian model container
# ---------------------------------------------------------------------------


def test_ssm_validates_shapes():
    with pytest.raises(DataError):
        LinearGaussianSSM(
            F=np.eye(2),
            Q=np.eye(3),
            H=np.eye(2),
            R=np.eye(2),
            init_mean=np.zeros(2),
            init_cov=np.eye(2),
        )


@pytest.mark.parametrize("name", ["Q", "R", "init_cov"])
def test_ssm_rejects_a_covariance_that_is_not_positive_semi_definite(name):
    # R = diag(1, -0.5) once gave finite Kalman means, a flow solve error and a sqrt warning
    mats = {"Q": np.eye(2), "R": np.eye(2), "init_cov": np.eye(2), name: np.diag([1.0, -0.5])}
    with pytest.raises(DataError, match=rf"^{name} must be positive semi-definite, but has eigenvalue -0\.5$"):
        LinearGaussianSSM(F=0.9 * np.eye(2), H=np.eye(2), init_mean=np.zeros(2), **mats)
    mats[name] = np.zeros((2, 2))  # a zero covariance is allowed: no noise
    LinearGaussianSSM(F=0.9 * np.eye(2), H=np.eye(2), init_mean=np.zeros(2), **mats)


def test_ssm_simulation_shapes_and_determinism():
    ssm = _scalar_ssm()
    s1, o1 = ssm.simulate(10, np.random.default_rng(5))
    s2, o2 = ssm.simulate(10, np.random.default_rng(5))
    assert s1.shape == (10, 1) and o1.shape == (10, 1)
    np.testing.assert_array_equal(s1, s2)
    np.testing.assert_array_equal(o1, o2)


def test_ssm_simulation_with_zero_state_noise_is_deterministic():
    ssm = LinearGaussianSSM(F=0.9 * np.eye(2), Q=np.zeros((2, 2)), H=np.eye(2), R=np.eye(2), init_mean=np.zeros(2), init_cov=np.eye(2))
    states, _ = ssm.simulate(10, np.random.default_rng(5))
    assert np.all(states[0] != 0.0)
    np.testing.assert_array_equal(states[1:], 0.9 * states[:-1])


def test_ssm_simulation_with_singular_state_noise_jitters_the_factor():
    # diag(1, 0) has no Cholesky factor; diag(1, 0) + 1e-12 I does, so the second coordinate moves by about 1e-6
    ssm = LinearGaussianSSM(F=np.eye(2), Q=np.diag([1.0, 0.0]), H=np.eye(2), R=np.eye(2), init_mean=np.zeros(2), init_cov=np.eye(2))
    states, _ = ssm.simulate(200, np.random.default_rng(5))
    steps = np.diff(states, axis=0)
    assert 0.8 < steps[:, 0].std() < 1.2
    assert 0.0 < np.abs(steps[:, 1]).max() < 1e-5


def test_ssm_round_trip(tmp_path, rng):
    d = 3
    a = rng.standard_normal((d, d)) * 0.3
    ssm = LinearGaussianSSM(
        F=a,
        Q=0.2 * np.eye(d),
        H=rng.standard_normal((2, d)),
        R=np.diag([0.5, 0.7]),
        init_mean=rng.standard_normal(d),
        init_cov=np.eye(d),
    )
    path = tmp_path / "ssm.npz"
    filters.save_linear_ssm(path, ssm)
    with np.load(path) as back:
        for attr in ("F", "Q", "H", "R", "init_mean", "init_cov"):
            np.testing.assert_array_equal(back[attr], getattr(ssm, attr))


# ---------------------------------------------------------------------------
# Kalman filter
# ---------------------------------------------------------------------------


def test_kalman_update_scalar_conjugate_case():
    # prior N(0, 1), y = 1, r = 1 -> posterior N(1/2, 1/2)
    mean, cov = kalman_update(np.zeros(1), np.eye(1), np.array([1.0]), _scalar_ssm())
    np.testing.assert_allclose(mean, [0.5], rtol=1e-12)
    np.testing.assert_allclose(cov, [[0.5]], rtol=1e-12)


def test_kalman_predict_scalar():
    mean, cov = kalman_predict(np.array([2.0]), np.array([[0.5]]), _scalar_ssm(f=0.9, q=0.25))
    np.testing.assert_allclose(mean, [1.8], rtol=1e-12)
    np.testing.assert_allclose(cov, [[0.9 * 0.5 * 0.9 + 0.25]], rtol=1e-12)


def test_kalman_huge_noise_update_is_noop():
    mean0, cov0 = np.array([1.0, -1.0]), np.diag([2.0, 3.0])
    ssm = LinearGaussianSSM(
        F=np.eye(2),
        Q=np.eye(2),
        H=np.eye(2),
        R=1e14 * np.eye(2),
        init_mean=np.zeros(2),
        init_cov=np.eye(2),
    )
    mean, cov = kalman_update(mean0, cov0, np.array([100.0, -100.0]), ssm)
    np.testing.assert_allclose(mean, mean0, atol=1e-9)
    np.testing.assert_allclose(cov, cov0, atol=1e-9)


def test_kalman_perfect_observation_pins_the_state():
    mean, cov = kalman_update(np.zeros(1), np.eye(1), np.array([3.0]), _scalar_ssm(r=1e-14))
    np.testing.assert_allclose(mean, [3.0], rtol=1e-6)
    assert cov[0, 0] < 1e-9


def test_kalman_filter_matches_scalar_recursion():
    # independent scalar recursion written longhand
    ssm = _scalar_ssm(f=0.8, q=0.2, h=1.0, r=0.5)
    obs = np.array([[0.5], [-0.2], [1.0], [0.3]])
    means, covs = kalman_filter(ssm, obs)

    m, p = 0.0, 1.0
    for t, y in enumerate(obs[:, 0]):
        if t > 0:
            m, p = 0.8 * m, 0.8 * p * 0.8 + 0.2
        k = p / (p + 0.5)
        m = m + k * (y - m)
        p = (1 - k) * p
        np.testing.assert_allclose(means[t], [m], rtol=1e-10)
        np.testing.assert_allclose(covs[t], [[p]], rtol=1e-10)


def test_kalman_filter_covariances_stay_symmetric(rng):
    d = 4
    a = 0.5 * rng.standard_normal((d, d))
    ssm = LinearGaussianSSM(
        F=a,
        Q=0.3 * np.eye(d),
        H=rng.standard_normal((2, d)),
        R=np.diag([0.4, 0.9]),
        init_mean=np.zeros(d),
        init_cov=np.eye(d),
    )
    _, obs = ssm.simulate(30, rng)
    _, covs = kalman_filter(ssm, obs)
    for p in covs:
        np.testing.assert_allclose(p, p.T, atol=1e-12)
        assert np.all(np.linalg.eigvalsh(p) > -1e-10)


@pytest.mark.parametrize("d", [1, 3])
def test_kalman_filter_non_finite_mean_names_the_time_index(d):
    # an infinite observation makes the filtered mean infinite at its own
    # time index (and NaN after it); the filter raises there, without a warning
    ssm = LinearGaussianSSM(F=0.9 * np.eye(d), Q=0.1 * np.eye(d), H=np.eye(d), R=np.eye(d), init_mean=np.zeros(d), init_cov=np.eye(d))
    obs = np.full((3, d), 0.1)
    obs[1, -1] = np.inf
    with pytest.raises(NumericError, match=r"^Kalman filtered mean became non-finite at time index 1$"):
        kalman_filter(ssm, obs)


# ---------------------------------------------------------------------------
# resampling
# ---------------------------------------------------------------------------


def test_systematic_resample_validates_inputs():
    with pytest.raises(DataError):
        systematic_resample(np.array([0.5, 0.6]), 0.5)  # does not sum to 1
    with pytest.raises(DataError):
        systematic_resample(np.array([0.5, 0.5]), 1.5)  # u out of range
    with pytest.raises(DataError):
        systematic_resample(np.array([1.5, -0.5]), 0.5)  # negative weight


def test_systematic_resample_is_deterministic_given_u(rng):
    w = rng.dirichlet(np.ones(8))
    i1 = systematic_resample(w, 0.25)
    i2 = systematic_resample(w, 0.25)
    np.testing.assert_array_equal(i1, i2)


# ---------------------------------------------------------------------------
# bootstrap particle filter
# ---------------------------------------------------------------------------


def test_bpf_linear_tracks_kalman_scalar(rng):
    ssm = _scalar_ssm(f=0.9, q=0.3, r=0.4)
    _, obs = ssm.simulate(15, rng)
    kf_means, _ = kalman_filter(ssm, obs)
    means, ess = bpf_filter_linear(ssm, obs, n_particles=20000, rng=np.random.default_rng(77))
    assert means.shape == (15, 1)
    assert ess.shape == (15,)
    np.testing.assert_allclose(means, kf_means, atol=0.06)


def test_bpf_resamples_when_ess_collapses(rng):
    # near-deterministic observations concentrate the weights immediately
    ssm = _scalar_ssm(f=1.0, q=1.0, r=1e-4)
    _, obs = ssm.simulate(5, rng)
    means, ess = bpf_filter_linear(ssm, obs, n_particles=500, rng=np.random.default_rng(3))
    # recorded ESS is the pre-resample value, so dipping under the
    # threshold is exactly a resampling event
    assert (ess < 0.5 * 500).any()
    assert ess.shape == (5,)


def test_bpf_weights_are_normalized_in_the_log_domain():
    # every log-likelihood is near -1000, which exp() alone underflows to zero
    ssm = _scalar_ssm(f=1.0, q=0.01, r=1.0)
    obs = np.array([[45.0], [45.0]])
    rng = np.random.default_rng(4)
    loglik = -0.5 * (45.0 - ssm.init_mean[0]) ** 2
    assert loglik < -1000 and np.exp(loglik) == 0.0
    means, ess = bpf_filter_linear(ssm, obs, n_particles=50, rng=rng)
    assert np.isfinite(means).all() and np.isfinite(ess).all()
    assert (ess >= 1.0 - 1e-12).all()


def test_bpf_infinite_observation_names_the_time_index():
    ssm = _scalar_ssm()
    obs = np.array([[0.1], [0.2], [np.inf], [0.3]])
    with pytest.raises(DegenerateWeightsError, match="time index 2"):
        bpf_filter_linear(ssm, obs, n_particles=20, rng=np.random.default_rng(0))


@pytest.mark.parametrize(
    "run",
    [
        kalman_filter,
        lambda ssm, obs: bpf_filter_linear(ssm, obs, n_particles=20, rng=np.random.default_rng(0)),
        lambda ssm, obs: flow_filter_linear(ssm, obs, n_particles=20, rng=np.random.default_rng(0)),
    ],
    ids=["kalman", "bpf", "flow"],
)
def test_filters_reject_a_missing_observation(run):
    # no filter masks a missing value, so each names it before filtering
    ssm = LinearGaussianSSM(F=0.9 * np.eye(2), Q=0.1 * np.eye(2), H=np.eye(2), R=np.eye(2), init_mean=np.zeros(2), init_cov=np.eye(2))
    obs = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, np.nan], [np.nan, 0.6]])
    with pytest.raises(DataError, match=r"^observation of series 1 at time index 2 is missing \(NaN\)"):
        run(ssm, obs)


@pytest.mark.parametrize(
    "run",
    [
        lambda ssm, obs: bpf_filter_linear(ssm, obs, n_particles=20, rng=np.random.default_rng(0)),
        lambda ssm, obs: flow_filter_linear(ssm, obs, n_particles=20, rng=np.random.default_rng(0)),
    ],
    ids=["bpf", "flow"],
)
def test_particle_filters_reject_correlated_measurement_noise(run):
    # the particle filters model R by its diagonal, so a correlated R would
    # make them filter a different system than the Kalman filter they are held to
    r_full = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.4], [0.0, 0.4, 1.0]])
    ssm = LinearGaussianSSM(F=0.9 * np.eye(2), Q=0.1 * np.eye(2), H=np.ones((3, 2)), R=r_full, init_mean=np.zeros(2), init_cov=np.eye(2))
    obs = np.full((4, 3), 0.1)
    with pytest.raises(DataError, match=r"^the particle filters need a diagonal R, but R\[1, 2\] = 0\.4$"):
        run(ssm, obs)
    means, _ = kalman_filter(ssm, obs)  # the exact filter takes the full R
    assert np.isfinite(means).all()
    ssm.R = np.diag(np.diag(r_full))
    assert np.isfinite(run(ssm, obs)[0]).all()


@pytest.mark.parametrize("h", [0.0, 1.0])
def test_bpf_ess_lies_between_one_and_n(rng, h):
    ssm = _scalar_ssm(f=1.0, q=1.0, h=h, r=1e-2)
    _, obs = ssm.simulate(12, rng)
    _, ess = bpf_filter_linear(ssm, obs, n_particles=200, rng=np.random.default_rng(8))
    assert ((ess >= 1.0 - 1e-12) & (ess <= 200 * (1 + 1e-12))).all()
    if h == 0.0:  # the observations carry no information: the weights stay uniform
        np.testing.assert_allclose(ess, 200.0, rtol=1e-12)
    else:
        assert ess.min() < 100.0


# ---------------------------------------------------------------------------
# flow filter on the linear benchmark
# ---------------------------------------------------------------------------


def test_flow_filter_linear_tracks_kalman(rng):
    ssm = _scalar_ssm(f=0.9, q=0.3, r=0.4)
    _, obs = ssm.simulate(12, rng)
    kf_means, _ = kalman_filter(ssm, obs)
    means = flow_filter_linear(ssm, obs, n_particles=4000, rng=np.random.default_rng(9), config=flow_mod.FlowConfig(n_lambda=29))
    np.testing.assert_allclose(means, kf_means, atol=0.08)


def test_flow_filter_beats_bpf_in_high_dimensions():
    # the classic failure mode of the bootstrap filter: weight collapse as
    # dimension grows, while the flow moves particles instead of weighting
    d = 32
    rng = np.random.default_rng(123)
    a = 0.9 * np.eye(d)
    ssm = LinearGaussianSSM(
        F=a,
        Q=0.3 * np.eye(d),
        H=np.eye(d),
        R=0.25 * np.eye(d),
        init_mean=np.zeros(d),
        init_cov=np.eye(d),
    )
    _, obs = ssm.simulate(8, rng)
    kf_means, _ = kalman_filter(ssm, obs)
    flow_means = flow_filter_linear(ssm, obs, 100, np.random.default_rng(1), flow_mod.FlowConfig(n_lambda=29))
    bpf_means, ess = bpf_filter_linear(ssm, obs, 100, np.random.default_rng(2))
    flow_rmse = np.sqrt(np.mean((flow_means - kf_means) ** 2))
    bpf_rmse = np.sqrt(np.mean((bpf_means - kf_means) ** 2))
    assert flow_rmse < bpf_rmse
    assert ess.mean() < 20  # weight degeneracy


# ---------------------------------------------------------------------------
# input checks
# ---------------------------------------------------------------------------


def _ssm_with(**override):
    fields = dict(F=np.eye(2), Q=np.eye(2), H=np.eye(1, 2), R=np.eye(1), init_mean=np.zeros(2), init_cov=np.eye(2))
    return LinearGaussianSSM(**{**fields, **override})


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: _ssm_with(F=np.ones((2, 3))), DataError, "F must be square"),
        (lambda: _ssm_with(H=np.ones((1, 3))), DataError, "H must be (N, D)"),
        (lambda: _ssm_with(Q=np.eye(3)), DataError, "Q must be (D, D) and R must be (N, N)"),
        (lambda: _ssm_with(R=np.eye(2)), DataError, "Q must be (D, D) and R must be (N, N)"),
        (lambda: _ssm_with(init_mean=np.zeros(3)), DataError, "initial moments have inconsistent shapes"),
        (lambda: _ssm_with(init_cov=np.eye(3)), DataError, "initial moments have inconsistent shapes"),
        (lambda: _ssm_with(Q=np.array([[1.0, 0.5], [0.0, 1.0]])), DataError, "Q must be symmetric"),
        (  # H = 0 and R = 0 make S = 0
            lambda: filters.kalman_update(np.zeros(2), np.eye(2), np.zeros(1), _ssm_with(H=np.zeros((1, 2)), R=np.zeros((1, 1)))),
            NumericError,
            "Kalman innovation covariance is singular: ",
        ),
        (lambda: filters.systematic_resample(np.full((2, 2), 0.25), 0.5), DataError, "weights must be a vector"),
    ],
    ids=["F_not_square", "H_width", "Q_shape", "R_shape", "init_mean_shape", "init_cov_shape", "Q_asymmetric", "singular_S", "weights_2d"],
)
def test_input_checks(call, error, message):  # a message ending ": " goes on with numpy's own error
    with pytest.raises(error, match=f"^{re.escape(message)}" + ("" if message.endswith(": ") else "$")):
        call()
