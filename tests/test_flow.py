"""Particle-flow update: step schedule, ensemble moments, drift
coefficients (hand-derived affine cases, read from the trace), and
convergence of the Euler integration to the exact Gaussian posterior."""

import numpy as np
import pytest

from flowcast import autodiff as ad
from flowcast.errors import FlowDivergedError, FlowSolveError
from flowcast.flow import FlowConfig, GaussianBelief, edh_flow, ensemble_moments, step_schedule
from flowcast.ssm import StateEnsemble


# ---------------------------------------------------------------------------
# step schedule
# ---------------------------------------------------------------------------


def test_schedule_sums_to_one():
    for n, q in [(29, 1.2), (8, 1.5), (100, 1.01)]:
        eps = step_schedule(n, q)
        assert eps.shape == (n,)
        np.testing.assert_allclose(eps.sum(), 1.0, rtol=1e-12)


def test_schedule_unit_ratio_is_uniform():
    eps = step_schedule(10, 1.0)
    np.testing.assert_allclose(eps, np.full(10, 0.1), rtol=1e-12)


def test_schedule_growth_ratio_between_consecutive_steps():
    eps = step_schedule(29, 1.2)
    np.testing.assert_allclose(eps[1:] / eps[:-1], np.full(28, 1.2), rtol=1e-12)


def test_schedule_last_over_first_is_ratio_power():
    eps = step_schedule(29, 1.2)
    np.testing.assert_allclose(eps[-1] / eps[0], 1.2**28, rtol=1e-12)
    # numerically that power is ~164.84, a factor the default schedule
    # concentrates into the late pseudo-time steps
    assert 164.0 < eps[-1] / eps[0] < 165.0


def test_schedule_first_step_closed_form():
    q, n = 1.2, 29
    eps = step_schedule(n, q)
    np.testing.assert_allclose(eps[0], (q - 1) / (q**n - 1), rtol=1e-12)


def test_schedule_rejects_bad_arguments():
    with pytest.raises(ValueError):
        step_schedule(0, 1.2)
    with pytest.raises(ValueError):
        step_schedule(5, 0.0)


# ---------------------------------------------------------------------------
# ensemble moments
# ---------------------------------------------------------------------------


def test_moments_two_point_ensemble():
    ens = np.array([[[0.0], [2.0]]])
    mean, cov = ensemble_moments(ens, jitter=0.0)
    np.testing.assert_allclose(mean, [[1.0]])
    np.testing.assert_allclose(cov, [[[1.0]]])  # population covariance


def test_moments_jitter_inflates_diagonal():
    ens = np.array([[[0.0, 0.0], [2.0, 0.0]]])
    _, cov = ensemble_moments(ens, jitter=0.01)
    np.testing.assert_allclose(np.diag(cov[0]), [1.01, 0.01], rtol=1e-12)


def test_moments_single_particle_uses_prior_scale():
    ens = np.array([[[3.0, -1.0]], [[0.5, 4.0]]])
    mean, cov = ensemble_moments(ens, jitter=0.5, single_particle_scale=2.0)
    np.testing.assert_allclose(mean, [[3.0, -1.0], [0.5, 4.0]])
    np.testing.assert_allclose(cov, np.broadcast_to(2.0 * np.eye(2), (2, 2, 2)))  # no jitter on top


def test_moments_covariance_is_symmetric(rng):
    ens = rng.standard_normal((3, 40, 6))
    _, cov = ensemble_moments(ens)
    np.testing.assert_array_equal(cov, np.swapaxes(cov, 1, 2))


def test_moments_match_numpy_population_covariance(rng):
    ens = rng.standard_normal((3, 25, 4))
    mean, cov = ensemble_moments(ens, jitter=0.0)
    for i in range(3):
        np.testing.assert_allclose(mean[i], ens[i].mean(axis=0), rtol=1e-12)
        np.testing.assert_allclose(cov[i], np.cov(ens[i].T, bias=True), rtol=1e-10, atol=1e-12)


# ---------------------------------------------------------------------------
# drift coefficients: scalar cases solvable by hand
# ---------------------------------------------------------------------------


def _scalar_trace(mean, r, y):
    # one particle, so the frozen prior covariance is single_particle_scale = 1;
    # ratio 1e-300 makes the first step the whole unit interval, so the two
    # records sit at lambda = 0 and lambda = 1 exactly
    cfg = FlowConfig(n_lambda=2, ratio=1e-300, single_particle_prior_scale=1.0)
    _, trace = edh_flow(np.array([[[mean]]]), np.array([[1.0]]), np.array([[y]]), np.array([r]), cfg, return_trace=True)
    return trace


def _scalar_case(lam):
    # prior N(1, 1), observation y = 1 with unit noise, H = 1
    lam_rec, _, a, b = _scalar_trace(1.0, 1.0, 1.0)[int(lam)]
    assert lam_rec == lam
    return a[0], b[0]


def test_coefficients_at_lambda_zero():
    a, b = _scalar_case(0.0)
    # A = -1/2 * P H (lam H P H + R)^-1 H, and lam = 0 -> S = R = 1
    np.testing.assert_allclose(a, [[-0.5]], rtol=1e-12)
    # b = (I + 0)[(I + 0) P H R^-1 y + A mean] = 1*1*1*1 - 0.5*1 = 0.5
    np.testing.assert_allclose(b, [0.5], rtol=1e-12)


def test_coefficients_at_lambda_one():
    a, b = _scalar_case(1.0)
    # S = 1*1 + 1 = 2, A = -1/2 * 1/2 = -1/4
    np.testing.assert_allclose(a, [[-0.25]], rtol=1e-12)
    # b = (1 - 1/2) [ (1 - 1/4)*1 - 1/4 ] = 0.5 * 0.5 = 0.25
    np.testing.assert_allclose(b, [0.25], rtol=1e-12)


def test_coefficients_informative_observation_pulls_towards_it():
    _, _, a, b = _scalar_trace(0.0, 0.01, 5.0)[0]
    # tiny measurement noise: drift near y/(2 r) * ... dominated by data pull
    assert b[0, 0] > 0  # towards the positive observation
    assert a[0, 0, 0] < 0  # contraction


def test_coefficients_singular_noise_raises():
    with pytest.raises(FlowSolveError, match=r"pseudo-time step 1/2 \(lambda=0\)"):
        _scalar_trace(0.0, -1.0, 0.0)


def test_non_spd_innovation_raises_on_taped_and_plain_calls(rng):
    # r = -1 makes lam H P H^T + diag(r) indefinite; an LU solve would return
    # an expanding drift instead, so every caller must get the same error
    cfg = FlowConfig(n_lambda=4)
    h = np.eye(2)
    taped = ad.Var(rng.standard_normal((3, 5, 2)))
    with pytest.raises(FlowSolveError, match=r"pseudo-time step 1/4 \(lambda=0\) of encoder step 7"):
        edh_flow(taped, h, np.zeros((3, 2)), np.full((3, 2), -1.0), cfg, return_trace=True, encoder_step=7)
    with pytest.raises(FlowSolveError, match=r"pseudo-time step 1/4 \(lambda=0\)$"):
        edh_flow(rng.standard_normal((1, 5, 2)), h, np.zeros((1, 2)), lambda means: np.full((1, 2), -1.0), cfg)


# ---------------------------------------------------------------------------
# full flow vs exact Gaussian posterior
# ---------------------------------------------------------------------------


def _flow_one(particles, y, h, r_diag, cfg):
    """The flow on a single (n_p, D) ensemble."""
    return edh_flow(particles[None], h, y[None], r_diag, cfg)[0]


def _kalman_posterior(mean0, cov0, h, r_diag, y):
    s = h @ cov0 @ h.T + np.diag(r_diag)
    k = cov0 @ h.T @ np.linalg.inv(s)
    mean = mean0 + k @ (y - h @ mean0)
    cov = cov0 - k @ h @ cov0
    return mean, cov


def test_flow_recovers_scalar_conjugate_posterior(rng):
    # prior N(0, 1), y = 1, r = 1 -> posterior N(0.5, 0.5).  A uniform
    # pseudo-time grid converges to the exact affine transport, so the
    # landing point is the Kalman update of the *sample* moments.
    particles = rng.standard_normal((20000, 1))
    m0, p0 = particles.mean(), particles.var()
    out = _flow_one(particles, np.array([1.0]), np.eye(1), np.array([1.0]), FlowConfig(n_lambda=512, ratio=1.0, jitter=0.0))
    want_mean = m0 + p0 / (p0 + 1.0) * (1.0 - m0)
    want_var = p0 / (p0 + 1.0)
    assert abs(out.mean() - want_mean) < 2e-3
    assert abs(out.var() - want_var) < 2e-3
    assert abs(out.mean() - 0.5) < 0.02
    assert abs(out.var() - 0.5) < 0.02


def test_flow_default_schedule_lands_near_posterior(rng):
    # The default geometric grid keeps its last steps coarse, so the Euler
    # endpoint carries a small fixed bias; it must stay within a few percent.
    particles = rng.standard_normal((20000, 1))
    m0, p0 = particles.mean(), particles.var()
    out = _flow_one(particles, np.array([1.0]), np.eye(1), np.array([1.0]), FlowConfig(n_lambda=29, jitter=0.0))
    want_mean = m0 + p0 / (p0 + 1.0) * (1.0 - m0)
    assert abs(out.mean() - want_mean) < 0.05


def test_flow_matches_kalman_moments_multivariate(rng):
    d = 4
    mean0 = rng.standard_normal(d)
    sqrt_c = rng.standard_normal((d, d)) * 0.4
    cov0 = sqrt_c @ sqrt_c.T + 0.5 * np.eye(d)
    h = rng.standard_normal((2, d))
    r_diag = np.array([0.5, 0.8])
    y = rng.standard_normal(2)

    particles = mean0 + rng.standard_normal((40000, d)) @ np.linalg.cholesky(cov0).T
    out = _flow_one(particles, y, h, r_diag, FlowConfig(n_lambda=1024, ratio=1.0, jitter=0.0))
    # oracle: what the exact posterior does to the *sample* moments
    m_hat = particles.mean(axis=0)
    p_hat = np.cov(particles.T, bias=True)
    want_mean, want_cov = _kalman_posterior(m_hat, p_hat, h, r_diag, y)
    got_mean = out.mean(axis=0)
    got_cov = np.cov(out.T, bias=True)
    np.testing.assert_allclose(got_mean, want_mean, atol=0.01)
    np.testing.assert_allclose(got_cov, want_cov, atol=0.02)


def test_flow_euler_error_shrinks_with_more_uniform_steps(rng):
    d = 3
    mean0 = rng.standard_normal(d)
    cov0 = np.diag([1.0, 2.0, 0.5])
    h = np.eye(d)
    r_diag = np.full(d, 0.7)
    y = rng.standard_normal(d)
    particles = mean0 + rng.standard_normal((5000, d)) * np.sqrt(np.diag(cov0))
    m_hat = particles.mean(axis=0)
    p_hat = np.cov(particles.T, bias=True)
    want_mean, _ = _kalman_posterior(m_hat, p_hat, h, r_diag, y)

    errs = []
    for n_lambda in (8, 64, 512):
        out = _flow_one(particles, y, h, r_diag, FlowConfig(n_lambda=n_lambda, ratio=1.0, jitter=0.0))
        errs.append(np.linalg.norm(out.mean(axis=0) - want_mean))
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] < 0.01


def test_flow_zero_jacobian_leaves_particles_nearly_alone(rng):
    # H = 0: the observation carries no information, A = 0 and the drift
    # collapses to zero, so particles stay put.
    particles = rng.standard_normal((50, 2))
    out = _flow_one(particles, np.array([3.0]), np.zeros((1, 2)), np.array([1.0]), FlowConfig(n_lambda=8, jitter=0.0))
    np.testing.assert_allclose(out, particles, atol=1e-12)


def test_flow_trace_records_full_schedule(rng):
    particles = rng.standard_normal((30, 2))
    cfg = FlowConfig(n_lambda=8)
    _, trace = edh_flow(particles[None], np.eye(2), np.array([[0.5, -0.5]]), np.array([1.0, 1.0]), cfg, return_trace=True)
    assert len(trace) == 8
    eps = step_schedule(8, cfg.ratio)
    lam = 0.0
    for k, (rec_lam, rec_eps, a, b) in enumerate(trace):
        np.testing.assert_allclose(rec_lam, lam, rtol=1e-12)  # coefficients use pre-step lambda
        np.testing.assert_allclose(rec_eps, eps[k], rtol=1e-12)
        assert a.shape == (1, 2, 2) and b.shape == (1, 2)
        lam += eps[k]


def test_flow_batch_slices_match_each_ensemble_flowed_alone(rng):
    # relinearized noise variances depend on each ensemble's own running mean
    c = rng.standard_normal((3, 5)) * 0.5
    h = rng.standard_normal((3, 5))
    particles = rng.standard_normal((4, 10, 5))
    y = rng.standard_normal((4, 3))

    def noise_var(means):
        return np.logaddexp(0.0, means @ c.T) ** 2

    cfg = FlowConfig(n_lambda=12)
    batched = edh_flow(particles, h, y, noise_var, cfg)
    for i in range(4):
        alone = edh_flow(particles[i : i + 1], h, y[i : i + 1], noise_var, cfg)
        np.testing.assert_allclose(batched[i], alone[0], rtol=1e-12, atol=1e-12)


def test_nonfinite_particles_are_rejected_at_construction():
    from flowcast.errors import NumericError

    with pytest.raises(NumericError):
        StateEnsemble(np.array([[np.inf, 0.0]]))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_flow_divergence_error_names_the_step(rng):
    # an explosive linearization: gigantic drift makes particles overflow
    particles = rng.standard_normal((10, 1)) * 1e150
    with pytest.raises((FlowDivergedError, FlowSolveError), match=r"pseudo-time step \d/4"):
        _flow_one(particles, np.array([1.0]), np.array([[1e150]]), np.array([1e-300]), FlowConfig(n_lambda=4, jitter=0.0))


def test_flow_config_validation():
    with pytest.raises(ValueError):
        FlowConfig(n_lambda=0)
    with pytest.raises(ValueError):
        FlowConfig(ratio=-1.0)
    with pytest.raises(ValueError):
        FlowConfig(jitter=-0.1)


def test_gaussian_belief_validation(rng):
    with pytest.raises(Exception):
        GaussianBelief(mean=np.zeros(2), cov=np.array([[1.0, 0.5], [0.4, 1.0]])).validate()
    GaussianBelief(mean=np.zeros(2), cov=np.eye(2)).validate()
