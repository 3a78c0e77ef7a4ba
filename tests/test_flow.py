"""Particle-flow update: step schedule, ensemble moments, drift
coefficients (hand-derived affine cases, read from a stepwise reference
flow), the relinearized map against that reference, the closed-form
fixed-noise map against the exact Gaussian posterior and against Euler
steps, the one-particle Kalman update, and convergence of the Euler
integration to that posterior."""

import decimal
import re

import numpy as np
import pytest
import scipy.linalg

from flowcast import autodiff as ad, filters
from flowcast import data as data_mod
from flowcast import flow as flow_mod
from flowcast import ssm as ssm_mod
from flowcast import train as train_mod
from flowcast.errors import DataError, FlowDivergedError, FlowSolveError
from flowcast.flow import FlowConfig, edh_flow, step_schedule


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
# frozen ensemble moments, read from the trace
# ---------------------------------------------------------------------------


def _frozen_pht(ens, h, jitter=1e-2, scale=1.0):
    """The (B, D, N) P H^T a flow froze for the ensembles ``ens``."""
    cfg = FlowConfig(n_lambda=1, jitter=jitter, single_particle_prior_scale=scale)
    n = h.shape[0]
    _, trace = edh_flow(ens, h, np.zeros((ens.shape[0], n)), np.ones(n), cfg)
    return trace.pht


def test_moments_two_point_ensemble():
    ens = np.array([[[0.0], [2.0]]])
    pht = _frozen_pht(ens, np.eye(1), jitter=0.0)
    np.testing.assert_allclose(pht, [[[1.0]]])  # population covariance


def test_moments_jitter_inflates_diagonal():
    ens = np.array([[[0.0, 0.0], [2.0, 0.0]]])
    pht = _frozen_pht(ens, np.eye(2), jitter=0.01)
    np.testing.assert_allclose(np.diag(pht[0]), [1.01, 0.01], rtol=1e-12)


def test_moments_single_particle_uses_prior_scale():
    ens = np.array([[[3.0, -1.0]], [[0.5, 4.0]]])
    h = np.array([[1.0, 2.0], [0.5, -1.0], [0.0, 3.0]])
    pht = _frozen_pht(ens, h, jitter=0.5, scale=2.0)
    np.testing.assert_allclose(pht, np.broadcast_to(2.0 * h.T, (2, 2, 3)))  # no jitter on top


def test_moments_covariance_is_symmetric(rng):
    # with H = I the frozen P H^T is the covariance itself
    ens = rng.standard_normal((3, 40, 6))
    pht = _frozen_pht(ens, np.eye(6))
    np.testing.assert_array_equal(pht, np.swapaxes(pht, 1, 2))


def test_moments_match_numpy_population_covariance(rng):
    ens = rng.standard_normal((3, 25, 4))
    h = rng.standard_normal((3, 4))
    for jitter in (0.0, 0.3):
        pht = _frozen_pht(ens, h, jitter=jitter)
        for i in range(3):
            want = np.cov(ens[i], rowvar=False, bias=True) @ h.T + jitter * h.T
            np.testing.assert_allclose(pht[i], want, rtol=1e-10, atol=1e-12)


# ---------------------------------------------------------------------------
# the stepwise reference: every Euler step moves every particle
# ---------------------------------------------------------------------------


def _stepwise_flow(particles, h, y, r, cfg):
    """The flow stepped particle by particle, for B ensembles at once.

    Each Euler step moves every particle row x by ``eps (beta - 1/2 (x H^T)
    S^-1) PHt^T`` and re-reads a callable ``r`` at the particles' own mean.
    Returns the moved particles, the frozen (B, D) mean and (B, D, N) PHt,
    and the per-step (lam, eps, S^-1, beta).
    """
    b_sz, n_p, d = particles.shape
    n = h.shape[0]
    mean0 = particles.mean(axis=1)
    if n_p == 1:
        pht = np.broadcast_to(cfg.single_particle_prior_scale * h.T, (b_sz, d, n))
    else:
        centered = particles - mean0[:, None, :]
        pht = np.swapaxes(centered, 1, 2) @ (centered @ h.T) / n_p + cfg.jitter * h.T
    innov = y - mean0 @ h.T
    x = particles.copy()
    r_now = None if callable(r) else np.broadcast_to(r, (b_sz, n))
    steps = []
    lam = 0.0
    for m, eps in enumerate(step_schedule(cfg.n_lambda, cfg.ratio)):
        if callable(r) and (m == 0 or cfg.relinearize_every_step):
            r_now = r(x.mean(axis=1))
        s_inv = np.linalg.inv(lam * h @ pht + r_now[:, :, None] * np.eye(n))
        beta = 0.5 * np.einsum("bij,bj->bi", s_inv, y + r_now * np.einsum("bij,bj->bi", s_inv, innov))
        x = x + eps * (beta[:, None, :] - 0.5 * (x @ h.T) @ s_inv) @ np.swapaxes(pht, 1, 2)
        steps.append((lam, eps, s_inv, beta))
        lam += eps
    return x, mean0, pht, steps


def _relative_difference(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


# noise: True re-reads r at the running means (the stepwise path); False
# fixes r in [0.5, 1.5] and "spread" fixes it log-uniformly over [1e-3, 1e3]
# (the diagonal path, whose exact map uniform Euler steps approach)
@pytest.mark.parametrize(
    "b_sz, n_p, d, n, noise, jitter",
    [
        (1, 20, 6, 3, False, 1e-2),  # N < D
        (1, 20, 4, 4, False, 1e-2),  # N = D
        (1, 20, 3, 6, False, 1e-2),  # N > D
        (2, 1, 5, 2, False, 1e-2),  # single-particle prior
        (1, 1, 5, 5, True, 1e-2),  # single particle, relinearized, N = D
        (4, 10, 5, 3, False, 1e-2),  # a batch of ensembles
        (4, 10, 5, 3, True, 1e-2),  # noise variances re-read at the running means
        (4, 10, 5, 3, True, 0.0),  # no jitter
        (4, 10, 3, 5, True, 0.0),  # no jitter, N > D: a rank-deficient P H^T
        (4, 10, 3, 5, False, 0.0),  # the same rank-deficient G with fixed r
        (4, 10, 5, 3, "spread", 1e-2),  # noise variances six decades apart
        (3, 20, 16, 16, False, 1e-2),  # N = D = 16, a batch of three
    ],
)
def test_composed_flow_matches_stepwise_reference(rng, b_sz, n_p, d, n, noise, jitter):
    particles = rng.standard_normal((b_sz, n_p, d))
    h = rng.standard_normal((n, d)) * 0.5
    y = rng.standard_normal((b_sz, n))
    if noise is True:
        c = rng.standard_normal((n, d)) * 0.3

        def r(means):
            return 0.5 + np.logaddexp(0.0, means @ c.T) ** 2

    elif noise == "spread":
        r = 10.0 ** rng.uniform(-3.0, 3.0, size=(b_sz, n))
    else:
        r = rng.uniform(0.5, 1.5, size=(b_sz, n))
    cfg = FlowConfig(n_lambda=29, jitter=jitter, relinearize_every_step=noise is True)
    got, trace = edh_flow(particles, h, y, r, cfg)
    want, mean0, pht, _ = _stepwise_flow(particles, h, y, r, cfg)
    assert _relative_difference(trace.pht, pht) <= 1e-12
    assert trace.k_mat.shape == (b_sz, n, n) and trace.k_vec.shape == (b_sz, 1, n)
    if noise is True:
        assert _relative_difference(got, want) <= 1e-12
        return
    # the fixed-noise map is exact: the particle mean is the Kalman posterior
    # mean of the jittered ensemble prior, and uniform Euler steps close in on
    # it at first order: four times the steps, about a quarter of the error
    r = np.broadcast_to(r, y.shape)
    want_mean = [_kalman_posterior(mean0[i], _dense_prior(particles[i], cfg), h, r[i], y[i])[0] for i in range(b_sz)]
    assert _relative_difference(got.mean(axis=1), np.array(want_mean)) <= 1e-12
    errs = [_relative_difference(got, _stepwise_flow(particles, h, y, r, FlowConfig(n_lambda=m, ratio=1.0, jitter=jitter))[0]) for m in (32, 128, 512)]
    assert errs[0] > 3.0 * errs[1] > 9.0 * errs[2]


def _exact_mode(mu, a, b):
    """kappa and c of one mode at lambda = 1, from the integrals of the flow ODE in 700-digit decimals."""
    if mu == 0.0:
        return -0.5, a + b
    with decimal.localcontext() as ctx:
        ctx.prec = 700  # (1 + mu)^-1/2 - 1 must not cancel at mu = 1e-300
        mu_d, a_d, b_d = decimal.Decimal(mu), decimal.Decimal(a), decimal.Decimal(b)
        s = (1 + mu_d).sqrt()
        kappa = (1 / s - 1) / mu_d
        c = (2 * a_d * (s - 1) / mu_d + 2 * b_d * (1 - 1 / s) / mu_d) / s
        return float(kappa), float(c)


def _eigenbasis_flow(particles, h, y, r):
    """``edh_flow``'s one-particle set-up (``P = I``), its map composed by ``_fixed_noise_map`` instead of the Kalman update."""
    pht = h.T[None]
    half_y = 0.5 * y[:, :, None]
    half_innov = half_y - 0.5 * (h @ particles.mean(axis=1)[:, :, None])

    def fail(*args, **kwargs):
        raise AssertionError("the eigenbasis map failed")

    trace = flow_mod.FlowTrace(pht, h, *flow_mod._fixed_noise_map(np.broadcast_to(r, y.shape), h @ pht, half_y, half_innov, fail))
    return ad.flow_map(particles, *trace), trace


@pytest.mark.parametrize("mu", [0.0, 1e-300, 1e-8, 1.0, 1e12])
def test_fixed_noise_map_is_exact_at_extreme_eigenvalues(mu):
    # one particle of one state with H = sqrt(mu) and r = 1, so G = mu and
    # V = +-1: the map's K is kappa and its k is c, whatever the sign of V
    h = np.array([[np.sqrt(mu)]])
    x0, y = 0.5, 1.25
    a, b = y / 2.0, (y - h[0, 0] * x0) / 2.0
    moved, trace = _eigenbasis_flow(np.array([[[x0]]]), h, np.array([[y]]), np.ones(1))
    kappa, c = _exact_mode(mu, a, b)
    assert np.isfinite(moved).all()
    assert abs(trace.k_mat[0, 0, 0] - kappa) <= 1e-15 * abs(kappa)
    assert abs(trace.k_vec[0, 0, 0] - c) <= 1e-15 * abs(c)


def test_fixed_callable_noise_is_read_once_at_the_starting_mean(rng):
    # without relinearization a callable r is read once, at the starting
    # means, and the flow is the one an array of those variances gives
    particles = rng.standard_normal((3, 10, 4))
    h = rng.standard_normal((2, 4))
    y = rng.standard_normal((3, 2))
    c = rng.standard_normal((2, 4)) * 0.5
    reads = []

    def r(means):
        reads.append(means.copy())
        return 0.5 + np.logaddexp(0.0, means @ c.T) ** 2

    cfg = FlowConfig(n_lambda=29, relinearize_every_step=False)
    got, trace = edh_flow(particles, h, y, r, cfg)
    assert len(reads) == 1
    np.testing.assert_array_equal(reads[0], particles.mean(axis=1))
    want, want_trace = edh_flow(particles, h, y, r(particles.mean(axis=1)), cfg)
    np.testing.assert_array_equal(got, want)
    for got_field, want_field in zip(trace, want_trace):
        np.testing.assert_array_equal(got_field, want_field)


def test_fixed_noise_flows_factorize_nothing(monkeypatch, rng):
    # a fixed-noise flow diagonalizes once and never inverts or factors an
    # S; a relinearized one inverts its S once a step but checks it without
    # a Cholesky
    d = 16
    ssm = filters.LinearGaussianSSM(
        F=0.9 * np.eye(d), Q=0.3 * np.eye(d), H=rng.standard_normal((d, d)) / 4.0, R=np.diag(rng.uniform(0.2, 1.0, d)),
        init_mean=np.zeros(d), init_cov=np.eye(d),
    )
    _, obs = ssm.simulate(5, rng)
    monkeypatch.setattr(filters, "_safe_cholesky", np.linalg.cholesky)  # the filter's set-up factors of Q and P0

    def forbidden(*args, **kwargs):
        raise AssertionError("a per-step factorization")

    monkeypatch.setattr(np.linalg, "cholesky", forbidden)
    inv, inverted = np.linalg.inv, []

    def counted_inv(a):
        inverted.append(a.shape)
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counted_inv)
    c = rng.standard_normal((d, d)) * 0.3
    relinearized, _ = edh_flow(rng.standard_normal((2, 20, d)), ssm.H, obs[:2], lambda m: 0.5 + np.logaddexp(0.0, m @ c.T) ** 2, FlowConfig(relinearize_every_step=True))
    assert np.isfinite(relinearized).all()
    assert inverted == [(2, d, d)] * FlowConfig().n_lambda
    monkeypatch.setattr(np.linalg, "inv", forbidden)
    assert np.isfinite(filters.flow_filter_linear(ssm, obs, 50, rng)).all()


def test_composed_map_is_not_symmetric_once_r_varies(rng):
    # the map's gain K is symmetric for a constant r only; flow_map's
    # gradient must use its transpose
    c = rng.standard_normal((3, 5)) * 0.5
    particles = rng.standard_normal((1, 20, 5))
    _, trace = edh_flow(particles, rng.standard_normal((3, 5)), rng.standard_normal((1, 3)), lambda m: np.logaddexp(0.0, m @ c.T) ** 2, FlowConfig(relinearize_every_step=True))
    assert np.max(np.abs(trace.k_mat - np.swapaxes(trace.k_mat, 1, 2))) > 1e-6


# ---------------------------------------------------------------------------
# one particle: the Kalman update
# ---------------------------------------------------------------------------


_ONE_PARTICLE = FlowConfig(single_particle_prior_scale=0.7)


def _one_particle_problem(rng, d, n, b_sz=6):
    """One particle in each of ``b_sz`` windows, an (N, D) H and per-window noise variances, and their (B, N, N) S."""
    particles = rng.standard_normal((b_sz, 1, d))
    h = rng.standard_normal((n, d)) * 0.5
    r = rng.uniform(0.2, 2.0, size=(b_sz, n))
    s = _ONE_PARTICLE.single_particle_prior_scale * h @ h.T + r[:, :, None] * np.eye(n)
    return particles, h, rng.standard_normal((b_sz, n)), r, s


@pytest.mark.parametrize("d, n", [(7, 4), (3, 5)], ids=["N<D", "N>D"])
def test_one_particle_flow_is_the_kalman_update(rng, d, n):
    particles, h, y, r, s = _one_particle_problem(rng, d, n)
    moved, trace = edh_flow(particles, h, y, r, _ONE_PARTICLE)
    x0 = particles[:, 0]
    gain_innov = np.linalg.solve(s, (y - x0 @ h.T)[:, :, None])[:, :, 0]
    want = x0 + _ONE_PARTICLE.single_particle_prior_scale * gain_innov @ h  # x0 + s H^T S^-1 (y - H x0), in rows
    assert _relative_difference(moved[:, 0], want) <= 1e-13
    np.testing.assert_array_equal(ad.flow_map(particles, *trace), moved)


@pytest.mark.parametrize("d, n", [(7, 4), (3, 5)], ids=["N<D", "N>D"])
def test_one_particle_flow_vjp_is_the_kalman_jacobian(rng, d, n):
    # with H and r held, the update's Jacobian is I - s H^T S^-1 H: a row
    # gradient g goes back as g - s (g H^T) S^-1 H
    particles, h, y, r, s = _one_particle_problem(rng, d, n)
    _, trace = edh_flow(particles, h, y, r, _ONE_PARTICLE)
    g = rng.standard_normal(particles.shape)
    want = g - _ONE_PARTICLE.single_particle_prior_scale * (g @ h.T) @ np.linalg.inv(s) @ h
    assert _relative_difference(ad.flow_map_vjp(g, *trace[:3]), want) <= 1e-13


def test_one_particle_training_step_runs_no_eigh(monkeypatch):
    model = ssm_mod.init_model(kind="graph_gru", n_series=3, d_x=2, rho=0.8, sigma=0.05, init_scale=0.5, seed=4)
    graph = ssm_mod.Graph.from_weights(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 2.0], [1.0, 0.0, 0.0]]))
    series = data_mod.SeriesSet(values=0.5 * np.random.default_rng(3).standard_normal((30, 3)), names=["a", "b", "c"])
    windows = data_mod.make_windows(series, 4, 2)[:5]

    def forbidden(*args, **kwargs):
        raise AssertionError("an eigendecomposition")

    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    cfg = train_mod.TrainConfig(loss="nll", n_particles_train=1)
    loss, grads, _ = train_mod.gradients(model, train_mod.stack_batch(windows, model, 1, 0), cfg, graph=graph)
    assert np.isfinite(loss) and all(np.isfinite(g).all() for g in grads.values())
    with pytest.raises(AssertionError, match="an eigendecomposition"):  # an ensemble still diagonalizes
        train_mod.gradients(model, train_mod.stack_batch(windows, model, 2, 0), cfg, graph=graph)


def _singular_in_window(rng, r, y):
    # two equal rows of H make two equal rows of S wherever r is negligible
    h = rng.standard_normal((3, 4))
    h[1] = h[0]
    r[2] = 1e-300
    return h, r, y


def _infinite_observation(rng, r, y):
    y[2, 0] = np.inf
    return rng.standard_normal((3, 4)), r, y


def _zero_noise_variance(rng, r, y):
    r[2, 1] = 0.0
    return rng.standard_normal((3, 4)), r, y


def _overflowing_h_pht(rng, r, y):
    # every window shares H PHt, so every S overflows and the first window is named
    return rng.standard_normal((3, 4)) * 1e200, r, y


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "make, error, window, message",
    [
        (_zero_noise_variance, FlowSolveError, 12, "innovation covariance of window 12 is not positive definite at the closed-form flow (lambda=0) of encoder step 3: noise variance of series 1 is 0"),
        (_singular_in_window, FlowSolveError, 12, "innovation covariance of window 12 is singular at the closed-form flow (lambda=0) of encoder step 3"),
        (_infinite_observation, FlowDivergedError, 12, "the flow map of window 12 became non-finite at the closed-form flow (lambda=0) of encoder step 3"),
        (_overflowing_h_pht, FlowDivergedError, 10, "the flow map of window 10 became non-finite at the closed-form flow (lambda=0) of encoder step 3"),
    ],
    ids=["non-positive-r", "singular-S", "non-finite-map", "non-finite-S"],
)
def test_one_particle_flow_fails_like_an_ensemble(rng, make, error, window, message):
    # the third of four windows fails (or, where S overflows, all of them), and
    # the error names the first failing window and the encoder step
    h, r, y = make(rng, rng.uniform(0.5, 1.5, size=(4, 3)), rng.standard_normal((4, 3)))
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        edh_flow(rng.standard_normal((4, 1, 4)), h, y, r, FlowConfig(), encoder_step=3, window_ids=[10, 11, 12, 13])
    assert (info.value.window_id, info.value.encoder_step, info.value.step, info.value.lam) == (window, 3, 1, 0.0)


@pytest.mark.parametrize("relinearized", [False, True])
def test_one_particle_flows_form_h_pht_once(monkeypatch, rng, relinearized):
    # at one particle every window's PHt is s H^T: the flow forms H PHt once,
    # and it is bit for bit each window's own product
    target = "_relinearized_map" if relinearized else "_kalman_map"
    composed, seen = getattr(flow_mod, target), []

    def spy(*args):
        seen.append(args[4] if relinearized else args[1])
        return composed(*args)

    monkeypatch.setattr(flow_mod, target, spy)
    particles, h, y, _, _ = _one_particle_problem(rng, 9, 4, b_sz=5)
    c = rng.standard_normal((4, 9)) * 0.3
    _, trace = edh_flow(particles, h, y, _softplus_noise(c), FlowConfig(relinearize_every_step=relinearized))
    per_window = h @ trace.pht
    assert per_window.shape == (5, 4, 4)
    assert seen[0].shape == ((5, 4, 4) if relinearized else (4, 4))
    assert np.array_equal(np.broadcast_to(seen[0], per_window.shape), per_window)
    if relinearized:
        assert seen[0].strides[0] == 0  # one (N, N) product, broadcast


# ---------------------------------------------------------------------------
# drift coefficients: scalar cases solvable by hand
# ---------------------------------------------------------------------------


def _dense_drift(pht, h, step):
    """(lam, A, b) of one reference Euler step: A = -1/2 PHt S^-1 H, b = PHt beta."""
    lam, _, s_inv, beta = step
    a = -0.5 * pht @ s_inv @ h
    b = (pht @ beta[:, :, None])[:, :, 0]
    return lam, a, b


# one particle, so the frozen prior covariance is single_particle_scale = 1;
# ratio 1e-300 makes the first step the whole unit interval, so the two
# steps sit at lambda = 0 and lambda = 1 exactly
_SCALAR_CONFIG = FlowConfig(n_lambda=2, ratio=1e-300, single_particle_prior_scale=1.0)


def _scalar_drift(mean, r, y, k):
    h = np.array([[1.0]])
    _, _, pht, steps = _stepwise_flow(np.array([[[mean]]]), h, np.array([[y]]), np.array([r]), _SCALAR_CONFIG)
    return _dense_drift(pht, h, steps[k])


def _scalar_case(lam):
    # prior N(1, 1), observation y = 1 with unit noise, H = 1
    lam_rec, a, b = _scalar_drift(1.0, 1.0, 1.0, int(lam))
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
    _, a, b = _scalar_drift(0.0, 0.01, 5.0, 0)
    # tiny measurement noise: drift near y/(2 r) * ... dominated by data pull
    assert b[0, 0] > 0  # towards the positive observation
    assert a[0, 0, 0] < 0  # contraction


def test_coefficients_singular_noise_raises():
    with pytest.raises(FlowSolveError, match=r"at the closed-form flow \(lambda=0\): noise variance of series 0 is -1$"):
        edh_flow(np.zeros((1, 1, 1)), np.array([[1.0]]), np.zeros((1, 1)), np.array([-1.0]), _SCALAR_CONFIG)


def test_non_spd_innovation_names_the_encoder_step_and_the_variance(rng):
    # r = -1 makes lam H P H^T + diag(r) indefinite; an LU solve would return
    # an expanding drift instead
    r = np.ones((3, 2))
    r[0, 1] = -1.0
    with pytest.raises(FlowSolveError, match=r"at the closed-form flow \(lambda=0\) of encoder step 7: noise variance of series 1 is -1$"):
        edh_flow(rng.standard_normal((3, 5, 2)), np.eye(2), np.zeros((3, 2)), r, FlowConfig(n_lambda=4), encoder_step=7)


def test_non_spd_innovation_names_the_failing_window(rng):
    # only the middle ensemble gets a non-positive noise variance
    r = np.ones((3, 2))
    r[1, 0] = -0.5
    with pytest.raises(FlowSolveError, match=r"^innovation covariance of window 17 is not positive definite at the closed-form flow \(lambda=0\): noise variance of series 0 is -0.5$") as info:
        edh_flow(rng.standard_normal((3, 5, 2)), np.eye(2), np.zeros((3, 2)), r, FlowConfig(n_lambda=4), window_ids=[5, 17, 9])
    assert (info.value.window_id, info.value.encoder_step, info.value.step, info.value.lam) == (17, None, 1, 0.0)


def test_solve_error_attributes_name_a_later_step(rng):
    # noise variances that turn negative at their third read make S
    # indefinite at pseudo-time step 3, first in the first window
    reads = []

    def r(means):
        reads.append(1)
        return np.full((2, 1), 1.0 if len(reads) < 3 else -1.0)

    with pytest.raises(FlowSolveError) as info:
        edh_flow(rng.standard_normal((2, 4, 1)), np.eye(1), np.zeros((2, 1)), r, FlowConfig(n_lambda=5, relinearize_every_step=True), encoder_step=6, window_ids=[40, 41])
    lams = np.cumsum(step_schedule(5, 1.2))
    assert (info.value.window_id, info.value.encoder_step, info.value.step) == (40, 6, 3)
    assert info.value.lam == lams[1]
    assert str(info.value).endswith(f"pseudo-time step 3/5 (lambda={lams[1]:.6g}) of encoder step 6: noise variance of series 0 is -1")


# ---------------------------------------------------------------------------
# the relinearized map against its one-step-at-a-time form
# ---------------------------------------------------------------------------


def _stepwise_relinearized_map(r, mean0, pht, h_mat, hph, half_y, half_innov, eps, lams, fail):
    """The relinearized loop written plainly: every transpose taken where it
    is used, a per-ensemble SPD mask built every step, ``coef`` rebuilt."""
    b_sz, n = hph.shape[:2]
    mean_row = np.concatenate([mean0 @ h_mat.T, np.ones((b_sz, 1))], axis=1)[:, None, :]
    coef = np.zeros((b_sz, n + 1, n))
    for m in range(len(eps)):
        r_now = r(mean0 + (mean_row @ coef @ np.swapaxes(pht, 1, 2))[:, 0, :])
        s = lams[m] * hph
        s.reshape(b_sz, n * n)[:, :: n + 1] += r_now
        spd = (r_now > 0).all(axis=1) & np.isfinite(s).all(axis=(1, 2))
        if not spd.all():
            row = np.flatnonzero(~spd)[0]
            bad = [i for i, v in enumerate(r_now[row]) if not v > 0]
            cause = f": noise variance of series {bad[0]} is {r_now[row, bad[0]]:.6g}" if bad else ""
            raise fail(FlowSolveError, "innovation covariance", "is not positive definite at", row, m, lams[m], cause)
        s_inv = np.linalg.inv(s)
        beta = s_inv @ (half_y + r_now[:, :, None] * (s_inv @ half_innov))
        pull = coef @ np.swapaxes(hph, 1, 2)
        pull.reshape(b_sz, -1)[:, : n * n : n + 1] += 1.0
        coef = coef - (0.5 * eps[m]) * (pull @ s_inv)
        coef[:, n] += eps[m] * beta[:, :, 0]
        if not np.isfinite(coef).all():
            row = np.flatnonzero(~np.isfinite(coef).all(axis=(1, 2)))[0]
            raise fail(FlowDivergedError, "the flow map", "became non-finite at", row, m, lams[m])
    return coef[:, :n], coef[:, n:]


def _softplus_noise(c):
    return lambda means: 0.5 + np.logaddexp(0.0, means @ c.T) ** 2


def _flow_both_ways(monkeypatch, particles, h, y, make_r, **kwargs):
    """``edh_flow`` as shipped, then with the stepwise loop, each on a fresh ``make_r()``: each result or raised error."""
    outcomes = []
    for loop in (flow_mod._relinearized_map, _stepwise_relinearized_map):
        monkeypatch.setattr(flow_mod, "_relinearized_map", loop)
        try:
            outcomes.append(edh_flow(particles, h, y, make_r(), **kwargs))
        except (FlowSolveError, FlowDivergedError) as exc:
            outcomes.append(exc)
    return outcomes


@pytest.mark.parametrize("b_sz", [1, 3, 64])
@pytest.mark.parametrize("n_p", [1, 100])
@pytest.mark.parametrize("d, n", [(6, 3), (4, 4)], ids=["N<D", "N=D"])
def test_relinearized_map_is_bitwise_the_stepwise_loop(monkeypatch, rng, b_sz, n_p, d, n):
    particles = rng.standard_normal((b_sz, n_p, d))
    h = rng.standard_normal((n, d)) * 0.5
    y = rng.standard_normal((b_sz, n))
    c = rng.standard_normal((n, d)) * 0.3
    got, want = _flow_both_ways(monkeypatch, particles, h, y, lambda: _softplus_noise(c), config=FlowConfig(n_lambda=29, relinearize_every_step=True))
    assert np.array_equal(got[0], want[0])
    for got_field, want_field in zip(got[1], want[1]):
        assert np.array_equal(got_field, want_field)


def _noise_turning(value, window, at_read):
    """Softplus-like noise that becomes ``value`` in one window from its ``at_read``-th read on."""
    reads = []

    def r(means):
        reads.append(1)
        out = 0.5 + np.logaddexp(0.0, means) ** 2
        if len(reads) >= at_read:
            out[window] = value
        return out

    return r


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "value, at_read, scale, error, step",
    [
        (-1.0, 4, 1.0, FlowSolveError, 4),
        (0.0, 7, 1.0, FlowSolveError, 7),
        (np.inf, 2, 1.0, FlowSolveError, 2),
        (1e-300, 1, 1e100, FlowDivergedError, 1),  # a wide ensemble and a tiny r: the map K, k overflows
    ],
    ids=["negative-r-step-4", "zero-r-step-7", "inf-r", "map-overflow"],
)
def test_relinearized_map_fails_like_the_stepwise_loop(monkeypatch, rng, value, at_read, scale, error, step):
    # only the middle window fails
    particles = rng.standard_normal((3, 10, 2))
    particles[1] *= scale
    got = _flow_both_ways(
        monkeypatch, particles, np.eye(2), np.ones((3, 2)), lambda: _noise_turning(value, 1, at_read),
        config=FlowConfig(n_lambda=9, jitter=0.0, relinearize_every_step=True), encoder_step=5, window_ids=[30, 31, 32],
    )
    assert type(got[0]) is type(got[1]) is error
    assert str(got[0]) == str(got[1])
    for attr in ("window_id", "encoder_step", "step", "lam"):
        assert getattr(got[0], attr) == getattr(got[1], attr)
    assert (got[0].window_id, got[0].encoder_step, got[0].step) == (31, 5, step)


# ---------------------------------------------------------------------------
# against the dense D x D drift
# ---------------------------------------------------------------------------


def _dense_prior(particles, cfg):
    """The D x D prior covariance a flow freezes for one (n_p, D) ensemble."""
    d = particles.shape[1]
    if len(particles) == 1:
        return cfg.single_particle_prior_scale * np.eye(d)
    return np.cov(particles, rowvar=False, bias=True) + cfg.jitter * np.eye(d)


def _dense_reference_flow(particles, h, y, r, cfg):
    """The textbook flow dx/dl = A x + b, one ensemble at a time, with

    A(l) = -1/2 P H^T (l H P H^T + R)^-1 H
    b(l) = (I + 2 l A) [ (I + l A) P H^T R^-1 y + A eta_bar ]

    Relinearized noise variances take Euler steps.  Fixed ones take the
    exact solution at l = 1: with J = H^T R^-1 H, ``A = -1/2 P J (I + l
    P J)^-1``, so ``Phi(l) = (I + l P J)^-1/2`` solves ``dPhi/dl = A Phi``;
    the mean lands on the Kalman posterior mean and every deviation from it
    is multiplied by ``Phi(1)``, a matrix square root (not an eigh).
    """
    b_sz, n_p, d = particles.shape
    eye = np.eye(d)
    mean0 = particles.mean(axis=1)
    x = particles.copy()
    if not (callable(r) and cfg.relinearize_every_step):
        r_fixed = np.broadcast_to(r(mean0) if callable(r) else r, (b_sz, h.shape[0]))
        for i in range(b_sz):
            p = _dense_prior(particles[i], cfg)
            mean1 = _kalman_posterior(mean0[i], p, h, r_fixed[i], y[i])[0]
            phi = np.linalg.inv(scipy.linalg.sqrtm(eye + p @ h.T @ (h / r_fixed[i][:, None])))
            x[i] = mean1 + (particles[i] - mean0[i]) @ phi.T
        return x
    lam = 0.0
    for m, eps in enumerate(step_schedule(cfg.n_lambda, cfg.ratio)):
        r_now = r(x.mean(axis=1))
        for i in range(b_sz):
            p = _dense_prior(particles[i], cfg)
            r_mat = np.diag(r_now[i])
            a = -0.5 * p @ h.T @ np.linalg.solve(lam * h @ p @ h.T + r_mat, h)
            b = (eye + 2 * lam * a) @ ((eye + lam * a) @ p @ h.T @ np.linalg.solve(r_mat, y[i]) + a @ mean0[i])
            x[i] = x[i] + eps * (x[i] @ a.T + b)
        lam += eps
    return x


@pytest.mark.parametrize(
    "b_sz, n_p, d, n, relinearized",
    [
        (1, 20, 6, 3, False),  # N < D
        (1, 20, 4, 4, False),  # N = D
        (1, 20, 3, 6, False),  # N > D
        (2, 1, 5, 2, False),  # single-particle prior
        (4, 10, 5, 3, False),  # a batch of ensembles
        (4, 10, 5, 3, True),  # noise variances re-read at the running means
    ],
)
def test_flow_matches_dense_drift_reference(rng, b_sz, n_p, d, n, relinearized):
    particles = rng.standard_normal((b_sz, n_p, d))
    h = rng.standard_normal((n, d)) * 0.5
    y = rng.standard_normal((b_sz, n))
    if relinearized:
        c = rng.standard_normal((n, d)) * 0.3

        def r(means):
            return 0.5 + np.logaddexp(0.0, means @ c.T) ** 2

    else:
        r = rng.uniform(0.5, 1.5, size=(b_sz, n))
    cfg = FlowConfig(n_lambda=29, relinearize_every_step=relinearized)
    got, _ = edh_flow(particles, h, y, r, cfg)
    want = _dense_reference_flow(particles, h, y, r, cfg)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


# ---------------------------------------------------------------------------
# full flow vs exact Gaussian posterior
# ---------------------------------------------------------------------------


def _flow_one(particles, y, h, r_diag, cfg):
    """The flow on a single (n_p, D) ensemble."""
    return edh_flow(particles[None], h, y[None], r_diag, cfg)[0][0]


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
    # Euler steps (the relinearized path, here with a constant r) approach
    # the Kalman mean as the uniform grid refines; the fixed-noise map is
    # already there
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
        cfg = FlowConfig(n_lambda=n_lambda, ratio=1.0, jitter=0.0, relinearize_every_step=True)
        out = _flow_one(particles, y, h, lambda means: r_diag[None], cfg)
        errs.append(np.linalg.norm(out.mean(axis=0) - want_mean))
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] < 0.01
    exact = _flow_one(particles, y, h, r_diag, FlowConfig(n_lambda=8, jitter=0.0))
    assert np.linalg.norm(exact.mean(axis=0) - want_mean) <= 1e-12 * np.linalg.norm(want_mean)


def test_flow_zero_jacobian_leaves_particles_nearly_alone(rng):
    # H = 0: the observation carries no information, A = 0 and the drift
    # collapses to zero, so particles stay put.
    particles = rng.standard_normal((50, 2))
    out = _flow_one(particles, np.array([3.0]), np.zeros((1, 2)), np.array([1.0]), FlowConfig(n_lambda=8, jitter=0.0))
    np.testing.assert_allclose(out, particles, atol=1e-12)


def test_flow_trace_records_full_schedule(rng):
    # the trace of a relinearized flow holds the map composed from all eight
    # steps of the schedule; the per-step coefficients come from the stepwise
    # reference
    particles = rng.standard_normal((1, 30, 2))
    h = np.array([[1.0, -0.5]])
    cfg = FlowConfig(n_lambda=8, relinearize_every_step=True)

    def r(means):
        return np.ones((1, 1))

    moved, trace = edh_flow(particles, h, np.array([[0.5]]), r, cfg)
    assert trace.pht.shape == (1, 2, 1)
    assert trace.k_mat.shape == (1, 1, 1) and trace.k_vec.shape == (1, 1, 1)
    np.testing.assert_array_equal(trace.h_mat, h)
    want, _, _, steps = _stepwise_flow(particles, h, np.array([[0.5]]), r, cfg)
    assert len(steps) == 8
    eps = step_schedule(8, cfg.ratio)
    lam = 0.0
    for k, (rec_lam, rec_eps, s_inv, beta) in enumerate(steps):
        np.testing.assert_allclose(rec_lam, lam, rtol=1e-12)  # coefficients use pre-step lambda
        np.testing.assert_allclose(rec_eps, eps[k], rtol=1e-12)
        assert s_inv.shape == (1, 1, 1) and beta.shape == (1, 1)
        lam += eps[k]
    replayed = ad.flow_map(particles, *trace)
    np.testing.assert_array_equal(replayed, moved)
    assert _relative_difference(moved, want) <= 1e-12


@pytest.mark.parametrize("n_p", [1, 20])
def test_closed_form_trace_replays_bit_for_bit(rng, n_p):
    # a fixed-noise flow's trace is the exact map that moved its particles:
    # replaying it on the starting ensembles gives the flow's output bit for bit
    particles = rng.standard_normal((3, n_p, 5))
    h = rng.standard_normal((2, 5))
    moved, trace = edh_flow(particles, h, rng.standard_normal((3, 2)), rng.uniform(0.5, 1.5, size=(3, 2)), FlowConfig())
    np.testing.assert_array_equal(ad.flow_map(particles, *trace), moved)


def test_flow_batch_slices_match_each_ensemble_flowed_alone(rng):
    # relinearized noise variances depend on each ensemble's own running mean
    c = rng.standard_normal((3, 5)) * 0.5
    h = rng.standard_normal((3, 5))
    particles = rng.standard_normal((4, 10, 5))
    y = rng.standard_normal((4, 3))

    def noise_var(means):
        return np.logaddexp(0.0, means @ c.T) ** 2

    cfg = FlowConfig(n_lambda=12, relinearize_every_step=True)
    batched, _ = edh_flow(particles, h, y, noise_var, cfg)
    for i in range(4):
        alone, _ = edh_flow(particles[i : i + 1], h, y[i : i + 1], noise_var, cfg)
        np.testing.assert_allclose(batched[i], alone[0], rtol=1e-12, atol=1e-12)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_flow_divergence_error_names_the_step(rng):
    # an explosive linearization: H P H^T overflows, and with it the map; a
    # fixed-noise flow names its one closed-form step, whatever n_lambda says
    particles = rng.standard_normal((10, 1)) * 1e150
    with pytest.raises(FlowDivergedError, match=r"^the flow map of ensemble 0 became non-finite at the closed-form flow \(lambda=0\)$") as info:
        _flow_one(particles, np.array([1.0]), np.array([[1e150]]), np.array([1e-300]), FlowConfig(n_lambda=4, jitter=0.0))
    assert (info.value.step, info.value.lam) == (1, 0.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_relinearized_non_finite_innovation_is_a_solve_error(rng):
    # the explosive linearization with relinearized noise: H P H^T overflows,
    # so S = 0 * inf + r is not finite at lambda = 0, which the stepwise path
    # reports as not positive definite before inverting it
    particles = rng.standard_normal((1, 10, 1)) * 1e150
    with pytest.raises(FlowSolveError, match=r"^innovation covariance of ensemble 0 is not positive definite at pseudo-time step 1/4 \(lambda=0\)$"):
        edh_flow(particles, np.array([[1e150]]), np.ones((1, 1)), lambda means: np.ones((1, 1)), FlowConfig(n_lambda=4, jitter=0.0, relinearize_every_step=True))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_error_attributes_locate_the_map_and_the_particles(rng):
    cfg = FlowConfig(n_lambda=4, jitter=0.0)
    # the same explosive linearization in the second window only: its map
    # K, k overflows at the first step, before any particle moves
    particles = rng.standard_normal((2, 10, 1))
    particles[1] *= 1e150
    h = np.array([[1e150]])
    with pytest.raises(FlowDivergedError, match=r"^the flow map of window 8 became non-finite at the closed-form flow \(lambda=0\) of encoder step 2$") as info:
        edh_flow(particles, h, np.ones((2, 1)), np.array([[1.0], [1e-300]]), cfg, encoder_step=2, window_ids=[7, 8])
    assert (info.value.window_id, info.value.encoder_step, info.value.step, info.value.lam) == (8, 2, 1, 0.0)
    # a finite closed-form map whose exact answer is out of range: with H = 1e-10
    # the posterior mean is about y / H = 1e310 (at y = 1e290 it is finite)
    wide, h_tiny = np.array([[[-1e15], [1e15]]]), np.array([[1e-10]])
    assert np.isfinite(edh_flow(wide, h_tiny, np.array([[1e290]]), np.ones(1), cfg)[0]).all()
    with pytest.raises(FlowDivergedError, match=r"^particle 0 of ensemble 0 became non-finite after the closed-form flow \(lambda=1\)$") as info:
        edh_flow(wide, h_tiny, np.array([[1e300]]), np.ones(1), cfg)
    assert (info.value.window_id, info.value.encoder_step, info.value.step, info.value.lam) == (None, None, 1, 1.0)
    # one coarse relinearized Euler step from a wide ensemble: the map K =
    # -1/(2 r), k = 0 is finite, but it moves the particles +-1e100 by
    # +-5e309 (the exact fixed-noise map cannot overshoot)
    with pytest.raises(FlowDivergedError, match=r"^particle 0 of ensemble 0 became non-finite after pseudo-time step 1/1 \(lambda=0\)$") as info:
        edh_flow(np.array([[[1e100], [-1e100]]]), np.eye(1), np.zeros((1, 1)), lambda means: np.array([[1e-10]]), FlowConfig(n_lambda=1, jitter=0.0, relinearize_every_step=True))
    assert (info.value.window_id, info.value.encoder_step, info.value.step, info.value.lam) == (None, None, 1, 0.0)


def test_flow_config_validation():
    with pytest.raises(ValueError):
        FlowConfig(n_lambda=0)
    with pytest.raises(ValueError):
        FlowConfig(ratio=-1.0)
    with pytest.raises(ValueError):
        FlowConfig(jitter=-0.1)


# ---------------------------------------------------------------------------
# input checks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "particles, h_mat, y, message",
    [
        (np.zeros((3, 2)), np.eye(2), np.zeros((1, 2)), "particles must be a (B, n_particles, D) array"),
        (np.zeros((1, 3, 2)), np.eye(3), np.zeros((1, 3)), "need h_mat of shape (N, 2) and y of shape (1, N)"),
        (np.zeros((1, 3, 2)), np.eye(2), np.zeros((2, 2)), "need h_mat of shape (N, 2) and y of shape (1, N)"),
    ],
    ids=["particles_2d", "h_mat_width", "y_rows"],
)
def test_input_checks(particles, h_mat, y, message):
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        edh_flow(particles, h_mat, y, np.ones(h_mat.shape[0]))
