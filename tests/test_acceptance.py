"""Acceptance suite.

One test per shipped guarantee, each asserting its numeric bound and
printing a single PASS/FAIL line with the measured margins (visible with
``pytest -v -s`` or on failure).
"""

import json
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

from flowcast import data as data_mod
from flowcast import filters as filters_mod
from flowcast import flow as flow_mod
from flowcast import forecast as forecast_mod
from flowcast import metrics as metrics_mod
from flowcast import ssm as ssm_mod
from flowcast import train as train_mod
from flowcast.flow import FlowConfig
from flowcast.kernels import crps_batch


def _report(name, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. flow measurement update agrees with the Kalman posterior
# ---------------------------------------------------------------------------


def test_flow_update_matches_kalman_posterior_across_dimensions():
    t0 = time.perf_counter()
    worst_mean = 0.0
    worst_var = 0.0
    for d in (1, 4, 16):
        for trial in range(10):
            rng = np.random.default_rng(np.random.SeedSequence((900, d, trial)))
            m0 = rng.uniform(1.0, 3.0, d) * rng.choice([-1.0, 1.0], d)
            a = rng.standard_normal((d, d)) / np.sqrt(d)
            p0 = a @ a.T + 0.5 * np.eye(d)
            h = rng.standard_normal((d, d)) / np.sqrt(d)
            r_diag = rng.uniform(0.25, 1.0, d)
            x_true = rng.multivariate_normal(m0, p0)
            y = h @ x_true + rng.standard_normal(d) * np.sqrt(r_diag)

            ssm = filters_mod.LinearGaussianSSM(
                F=np.eye(d), Q=np.zeros((d, d)), H=h, R=np.diag(r_diag), init_mean=m0, init_cov=p0
            )
            post_mean, post_cov = filters_mod.kalman_update(m0, p0, y, ssm)

            particles = rng.multivariate_normal(m0, p0, size=2000)
            out = flow_mod.edh_flow(particles[None], h, y[None], r_diag, FlowConfig(n_lambda=29))[0][0]
            m_flow = out.mean(axis=0)
            v_flow = out.var(axis=0)
            worst_mean = max(worst_mean, np.linalg.norm(m_flow - post_mean) / np.linalg.norm(post_mean))
            worst_var = max(worst_var, np.max(np.abs(v_flow / np.diag(post_cov) - 1.0)))
    elapsed = time.perf_counter() - t0
    ok = worst_mean <= 0.05 and worst_var <= 0.20 and elapsed < 60.0
    _report(
        "flow vs Kalman single update (30 systems, D in {1,4,16}, 2000 particles)",
        ok,
        f"mean rel L2 {worst_mean:.4f} <= 0.05, var dev {worst_var:.4f} <= 0.20, {elapsed:.1f}s < 60s",
    )


# ---------------------------------------------------------------------------
# 2. bootstrap filter tracks the Kalman filter in low dimension
# ---------------------------------------------------------------------------


def test_bootstrap_filter_tracks_kalman_in_low_dimension():
    result = data_mod.synth_generate("linear_gaussian", (2, 2), 10, seed=5)
    ssm, obs = result.oracle, result.series.values
    kf_means, _ = filters_mod.kalman_filter(ssm, obs)
    rng = np.random.default_rng(np.random.SeedSequence((5, 2, 5000, 13)))
    bpf_means, _ = filters_mod.bpf_filter_linear(ssm, obs, 5000, rng)
    rel = np.linalg.norm(bpf_means - kf_means) / np.linalg.norm(kf_means)
    _report(
        "bootstrap filter vs Kalman (D=2, 5000 particles, 10 steps)",
        rel <= 0.05,
        f"filtered-mean rel error {rel:.4f} <= 0.05",
    )


# ---------------------------------------------------------------------------
# 3. flow beats the degenerate bootstrap filter in high dimension
# ---------------------------------------------------------------------------


def test_flow_outperforms_degenerate_bootstrap_in_high_dimension():
    t0 = time.perf_counter()
    wins = 0
    ess_fracs = []
    for seed in range(20):
        result = data_mod.synth_generate("linear_gaussian", (64, 64), 20, seed=1000 + seed)
        ssm, obs = result.oracle, result.series.values
        kf_means, _ = filters_mod.kalman_filter(ssm, obs)
        rng = np.random.default_rng(np.random.SeedSequence((seed, 64, 100, 11)))
        flow_means = filters_mod.flow_filter_linear(ssm, obs, 100, rng, FlowConfig(n_lambda=29))
        rng = np.random.default_rng(np.random.SeedSequence((seed, 64, 100, 13)))
        bpf_means, ess = filters_mod.bpf_filter_linear(ssm, obs, 100, rng)
        rmse_flow = np.sqrt(np.mean((flow_means - kf_means) ** 2))
        rmse_bpf = np.sqrt(np.mean((bpf_means - kf_means) ** 2))
        wins += rmse_flow < rmse_bpf
        ess_fracs.append(ess.mean() / 100.0)
    elapsed = time.perf_counter() - t0
    ok = wins >= 18 and max(ess_fracs) < 0.1 and elapsed < 300.0
    _report(
        "flow vs bootstrap at equal budget (D=64, 100 particles, T=20, 20 seeds)",
        ok,
        f"flow wins {wins}/20 >= 18, worst mean ESS fraction {max(ess_fracs):.4f} < 0.1, {elapsed:.1f}s < 300s",
    )


# ---------------------------------------------------------------------------
# 4. probability metrics match independent oracles
# ---------------------------------------------------------------------------


def _crps_by_integration(samples, y, grid_pad=6.0, n_grid=200001):
    lo = min(samples.min(), y) - grid_pad
    hi = max(samples.max(), y) + grid_pad
    xs = np.linspace(lo, hi, n_grid)
    cdf = np.searchsorted(np.sort(samples), xs, side="right") / len(samples)
    ind = (xs >= y).astype(float)
    return np.trapezoid((cdf - ind) ** 2, xs)


def test_probability_metrics_match_independent_oracles():
    rng = np.random.default_rng(424242)
    worst_crps = 0.0
    for _ in range(50):
        samples = rng.standard_normal(int(rng.integers(2, 40))) * rng.uniform(0.5, 2.0)
        y = float(rng.standard_normal() * 1.5)
        got = crps_batch(samples[None], np.array([y]))[0]
        want = _crps_by_integration(samples, y)
        worst_crps = max(worst_crps, abs(got - want))

    y = rng.standard_normal(200)
    yhat = rng.standard_normal(200)
    ql_dev = float(np.max(np.abs(metrics_mod.quantile_loss(y, yhat, 0.5) - np.abs(y - yhat))))

    # one window, one step, two series; aggregate ensemble {0, 2} vs summed
    # truth 2 gives CRPS 0.5, normalized by summed |truth| = 2
    samples4 = np.array([[[[0.0, 0.0]]], [[[1.0, 1.0]]]]).transpose(1, 0, 2, 3)
    sum_dev = abs(metrics_mod.crps_sum(samples4, np.array([[[1.0, 1.0]]])) - 0.25)

    ok = worst_crps <= 1e-3 and ql_dev <= 1e-12 and sum_dev <= 1e-12
    _report(
        "metric oracles (CRPS integration x50, median pinball, summed CRPS hand case)",
        ok,
        f"CRPS dev {worst_crps:.2e} <= 1e-3, QL(0.5) dev {ql_dev:.2e} <= 1e-12, sum case dev {sum_dev:.2e} <= 1e-12",
    )


# ---------------------------------------------------------------------------
# 5. reverse-mode gradients match finite differences on every coordinate
# ---------------------------------------------------------------------------


def test_training_gradients_match_finite_differences_everywhere():
    worst = 0.0
    checked = 0
    for seed in range(5):
        rng = np.random.default_rng(2000 + seed)
        vals = 0.5 * rng.standard_normal((14, 1))
        series = data_mod.SeriesSet(values=vals, names=["s0"])
        windows = data_mod.make_windows(series, 2, 2)[:2]
        model = ssm_mod.init_model(
            kind="gru", n_series=1, d_x=2, layers=1, rho=0.8, sigma=0.05, init_scale=0.5, seed=seed
        )
        for loss in ("mae", "nll"):
            cfg = train_mod.TrainConfig(
                loss=loss,
                flow=FlowConfig(n_lambda=8),
                n_particles_train=1,
                scheduled_sampling_tau=0.0,
                seed=seed,
            )
            batch = train_mod.stack_batch(windows, model, 1, seed)
            _, grads, trace = train_mod.gradients(model, batch, cfg)
            flat_grad = train_mod.flatten_params(model, grads)
            x0 = train_mod.flatten_params(model)

            def f(vec):
                values = train_mod.unflatten_params(model, vec)
                return train_mod.batch_loss(model, batch, cfg, values=values, frozen_trace=trace)

            def central(i, h):
                xp = x0.copy()
                xp[i] += h
                xm = x0.copy()
                xm[i] -= h
                return (f(xp) - f(xm)) / (2 * h)

            for i in range(x0.size):
                # Richardson extrapolation of steps h and h/2 cancels the h^2
                # term, so h can be large enough that rounding stays small
                h = 1e-4 * max(1.0, abs(x0[i]))
                fd = (4.0 * central(i, h / 2) - central(i, h)) / 3.0
                denom = max(abs(fd), abs(flat_grad[i]), 1e-8)
                worst = max(worst, abs(fd - flat_grad[i]) / denom)
                checked += 1
    _report(
        "gradients vs Richardson-extrapolated central differences (every coordinate, both losses, 5 seeds)",
        worst <= 1e-4,
        f"{checked} coordinates, worst rel error {worst:.2e} <= 1e-4",
    )


# ---------------------------------------------------------------------------
# 6. end-to-end learning approaches the optimal forecaster
# ---------------------------------------------------------------------------


# the forecast distribution against the exact oracle's: measured CRPS
# 1.022x the oracle's, and coverage 0.489 / 0.782 / 0.932 at 50 / 80 / 95 %
# against the oracle's own 0.487 / 0.776 / 0.945 (largest gap 0.013)
CRPS_RATIO_BOUND = 1.05
COVERAGE_GAP_BOUND = 0.03


def test_end_to_end_learning_approaches_optimal_forecaster():
    t0 = time.perf_counter()
    result = data_mod.synth_generate("var_graph", 5, 2000, 0)
    series, graph, oracle = result.series, result.graph, result.oracle
    # a four-step horizon keeps the optimal forecast clearly below the
    # constant-mean baseline, so a near-optimal model can prove it learned
    p_steps, q_steps = 12, 4
    raw_train, raw_val, raw_test = data_mod.chronological_split(
        series, (0.7, 0.1, 0.2), min_length=p_steps + q_steps
    )
    train_s, stats = data_mod.standardize(raw_train)
    val_s, _ = data_mod.standardize(raw_val, stats=stats)
    test_s, _ = data_mod.standardize(raw_test, stats=stats)
    w_train = data_mod.make_windows(train_s, p_steps, q_steps, start_offset=0)
    w_val = data_mod.make_windows(val_s, p_steps, q_steps, start_offset=train_s.n_steps)
    offset = train_s.n_steps + val_s.n_steps
    w_test = data_mod.make_windows(test_s, p_steps, q_steps, start_offset=offset)
    w_test_raw = data_mod.make_windows(raw_test, p_steps, q_steps, start_offset=offset)

    model0 = ssm_mod.init_model(
        kind="gru", n_series=5, d_x=8, layers=1, rho=0.8, sigma=0.05, init_scale=0.5, seed=0
    )
    fit_cfg = train_mod.TrainConfig(max_epochs=30, patience=30)  # every other setting is the schema default
    mae_cfg = train_mod.TrainConfig(loss="mae", n_particles_eval=10, seed=0, flow=FlowConfig(n_lambda=29))
    untrained_val_mae = train_mod.evaluate_loss(model0, w_val, mae_cfg, graph=graph)

    fit = train_mod.fit(train_mod.TrainData(train_windows=w_train, val_windows=w_val, graph=graph), model0, fit_cfg)
    model = fit.model
    trained_val_mae = train_mod.evaluate_loss(model, w_val, mae_cfg, graph=graph)
    val_ratio = trained_val_mae / untrained_val_mae

    pcfg = forecast_mod.PredictConfig(
        n_particles=100, flow=FlowConfig(n_lambda=29), seed=0, noiseless=False, point="mean"
    )
    levels = (0.5, 0.8, 0.95)  # central-interval coverage levels
    samples, points = forecast_mod.predict_windows(model, graph, w_test, pcfg)
    samples = data_mod.destandardize(samples, stats)  # (M, n_p, Q, N)
    truth = np.stack([np.asarray(w_raw.y_future) for w_raw in w_test_raw])  # (M, Q, N)
    model_mae = float(np.mean(np.abs(data_mod.destandardize(points, stats) - truth)))
    model_cov = {}
    for c in levels:
        lo, hi = np.quantile(samples, [0.5 - c / 2, 0.5 + c / 2], axis=1)
        model_cov[c] = float(np.mean((truth >= lo) & (truth <= hi)))
    coverage = model_cov[0.8]

    # optimal reference: Kalman-filter each window's history under the true
    # generator, then predict forward; the predictive distribution of each
    # cell is Gaussian, mean H m_k and variance diag(H P_k H^T + R)
    errs, oracle_mean, oracle_std = [], [], []
    for w_raw in w_test_raw:
        filtered, covs = filters_mod.kalman_filter(oracle, np.asarray(w_raw.y_past))
        mean, cov = filtered[-1], covs[-1]
        for k in range(q_steps):
            mean, cov = filters_mod.kalman_predict(mean, cov, oracle)
            errs.append(np.abs(oracle.H @ mean - np.asarray(w_raw.y_future)[k]))
            oracle_mean.append(oracle.H @ mean)
            oracle_std.append(np.sqrt(np.diag(oracle.H @ cov @ oracle.H.T + oracle.R)))
    oracle_mae = float(np.mean(errs))
    oracle_ratio = model_mae / oracle_mae

    # CRPS, both on the raw scale, cell by cell: the model's empirical one
    # over its particles, the oracle's in closed form,
    # sigma [z (2 Phi(z) - 1) + 2 phi(z) - 1/sqrt(pi)]
    from scipy.stats import norm

    truth = truth.reshape(-1)  # (M*Q*N,), window, horizon, series
    cells = np.moveaxis(samples, 1, -1).reshape(truth.size, -1)  # (M*Q*N, n_p)
    model_crps = float(np.mean(metrics_mod.crps_batch(cells, truth)))
    mu, sd = np.concatenate(oracle_mean), np.concatenate(oracle_std)
    z = (truth - mu) / sd
    oracle_crps = float(np.mean(sd * (z * (2.0 * norm.cdf(z) - 1.0) + 2.0 * norm.pdf(z) - 1.0 / np.sqrt(np.pi))))
    crps_ratio = model_crps / oracle_crps
    oracle_cov = {c: float(np.mean(np.abs(z) <= norm.ppf(0.5 + c / 2))) for c in levels}
    cov_gap = max(abs(model_cov[c] - oracle_cov[c]) for c in levels)
    elapsed = time.perf_counter() - t0

    ok = (
        val_ratio < 0.7
        and oracle_ratio <= 1.15
        and 0.70 <= coverage <= 0.90
        and crps_ratio <= CRPS_RATIO_BOUND
        and cov_gap <= COVERAGE_GAP_BOUND
        and elapsed < 600.0
    )
    coverages = ", ".join(f"{c:.0%} {model_cov[c]:.3f} (oracle {oracle_cov[c]:.3f})" for c in levels)
    _report(
        "end-to-end learning on a 5-node linear-graph generator (T=2000, 30 epochs)",
        ok,
        f"val MAE ratio {val_ratio:.3f} < 0.7, test MAE {oracle_ratio:.3f}x optimal <= 1.15x, "
        f"80% interval coverage {coverage:.3f} in [0.70, 0.90], CRPS {crps_ratio:.3f}x optimal <= {CRPS_RATIO_BOUND}x, "
        f"coverage {coverages}, largest gap {cov_gap:.3f} <= {COVERAGE_GAP_BOUND}, {elapsed:.0f}s < 600s",
    )


# ---------------------------------------------------------------------------
# 7. CLI runs are bitwise reproducible
# ---------------------------------------------------------------------------


def _run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "flowcast", *args, "--threads", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, f"flowcast {' '.join(args)}\n{proc.stderr}"


def _assert_identical(a, b, mismatches, label):
    if a.read_bytes() != b.read_bytes():
        mismatches.append(label)


def _assert_log_identical(a, b, mismatches, label):
    # the training log carries one wall-clock column (seconds); every other
    # field must match bitwise
    rows_a = [line.split(",") for line in a.read_text().splitlines()]
    rows_b = [line.split(",") for line in b.read_text().splitlines()]
    stripped_a = [row[:4] + row[5:] for row in rows_a]
    stripped_b = [row[:4] + row[5:] for row in rows_b]
    if stripped_a != stripped_b:
        mismatches.append(label)


def _run_twice(args, out_dir, names, snap_dir, mismatches, label, compare=None):
    """Run one command twice with identical arguments; the second run must
    reproduce every artifact of the first byte for byte."""
    compare = compare or {}
    _run_cli(args)
    snap_dir.mkdir()
    for name in names:
        shutil.copy2(out_dir / name, snap_dir / name)
    _run_cli(args)
    for name in names:
        check = compare.get(name, _assert_identical)
        check(snap_dir / name, out_dir / name, mismatches, f"{label}/{name}")


def test_cli_runs_are_bitwise_reproducible(tmp_path):
    config = {
        "data": {"synth": {"kind": "var_graph", "n_series": 3, "t_steps": 120, "seed": 7}},
        "windows": {"history": 6, "horizon": 4},
        "model": {"kind": "gru", "d_x": 4, "layers": 1, "rho": 0.8, "sigma": 0.05, "init_scale": 0.5},
        "flow": {"n_lambda": 6},
        "train": {"loss": "mae", "lr": 0.01, "batch_size": 32, "max_epochs": 2, "patience": 5,
                  "particles_train": 1, "particles_eval": 2, "seed": 0},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    mismatches = []

    synth_dir = tmp_path / "synth"
    _run_twice(
        ["synth", "--kind", "var_graph", "--n", "3", "--t", "60", "--seed", "2", "--out", str(synth_dir)],
        synth_dir,
        ("series.csv", "graph.csv", "oracle.npz"),
        tmp_path / "snap_synth",
        mismatches,
        "synth",
    )

    run_dir = tmp_path / "run"
    _run_twice(
        ["train", "--config", str(config_path), "--out", str(run_dir)],
        run_dir,
        ("checkpoint.npz", "resolved_config.json", "training_log.csv"),
        tmp_path / "snap_train",
        mismatches,
        "train",
        compare={"training_log.csv": _assert_log_identical},
    )

    fc_dir = tmp_path / "fc"
    _run_twice(
        [
            "forecast",
            "--checkpoint", str(run_dir / "checkpoint.npz"),
            "--config", str(run_dir / "resolved_config.json"),
            "--particles", "3",
            "--seed", "1",
            "--out", str(fc_dir),
        ],
        fc_dir,
        ("samples.csv", "summary.csv", "truth.csv"),
        tmp_path / "snap_forecast",
        mismatches,
        "forecast",
    )

    _run_twice(
        [
            "evaluate",
            "--samples", str(fc_dir / "samples.csv"),
            "--summary", str(fc_dir / "summary.csv"),
            "--truth", str(fc_dir / "truth.csv"),
            "--out", str(tmp_path / "metrics.csv"),
        ],
        tmp_path,
        ("metrics.csv",),
        tmp_path / "snap_evaluate",
        mismatches,
        "evaluate",
    )

    _run_twice(
        ["filter-bench", "--dims", "2,4", "--particles", "50", "--t", "5", "--seeds", "2", "--out", str(tmp_path / "bench.csv")],
        tmp_path,
        ("bench.csv",),
        tmp_path / "snap_bench",
        mismatches,
        "filter-bench",
    )

    _report(
        "CLI reproducibility (synth/train/forecast/evaluate/filter-bench, two runs each)",
        not mismatches,
        "all artifacts bitwise identical (training log compared outside its wall-clock column)"
        if not mismatches
        else f"differing artifacts: {mismatches}",
    )


# ---------------------------------------------------------------------------
# 8. invariant properties
# ---------------------------------------------------------------------------


def test_invariant_properties_hold():
    rng = np.random.default_rng(777)
    failures = []

    # an uninformative measurement (zero Jacobian) leaves particles untouched
    particles = rng.standard_normal((60, 3))
    out = flow_mod.edh_flow(particles[None], np.zeros((2, 3)), np.zeros((1, 2)), np.ones(2), FlowConfig(n_lambda=12))[0][0]
    if not np.allclose(out, particles, atol=1e-12):
        failures.append("zero-information flow moved particles")

    # permuting nodes (graph, embedding, state blocks, observations alike)
    # permutes the graph transition output identically
    n = 4
    model = ssm_mod.init_model(kind="graph_gru", n_series=n, d_x=3, layers=1, rho=0.9, sigma=0.0, init_scale=0.6, seed=11)
    weights = np.abs(rng.standard_normal((n, n))) * (1 - np.eye(n))
    graph = ssm_mod.Graph.from_weights(weights)
    x_prev = rng.standard_normal((n, 3))
    y_prev = rng.standard_normal((1, n))
    mixing = ssm_mod.build_mixing(model.params, model.hyper, graph)
    base = ssm_mod.transition_core(model.params, model.hyper, x_prev.reshape(1, -1), y_prev, None, mixing=mixing)[0]
    perm = rng.permutation(n)
    params_p = dict(model.params)
    params_p["embed"] = model.params["embed"][perm]
    graph_p = ssm_mod.Graph.from_weights(weights[np.ix_(perm, perm)])
    mixing_p = ssm_mod.build_mixing(params_p, model.hyper, graph_p)
    permuted = ssm_mod.transition_core(
        params_p, model.hyper, x_prev[perm].reshape(1, -1), y_prev[:, perm], None, mixing=mixing_p
    )[0]
    if not np.allclose(permuted[0].reshape(n, 3), base[0].reshape(n, 3)[perm], atol=1e-10):
        failures.append("graph transition is not permutation-equivariant")

    # systematic resampling is unbiased: over random offsets, the average
    # selection frequency of each particle matches its weight to within 1%
    w = rng.dirichlet(np.ones(64))
    counts = np.zeros(64)
    draws = 2000
    for _ in range(draws):
        idx = filters_mod.systematic_resample(w, float(rng.uniform()))
        counts += np.bincount(idx, minlength=64)
    freq = counts / (draws * 64)
    rel_dev = float(np.max(np.abs(freq - w)) / np.max(w))
    if rel_dev > 0.01:
        failures.append(f"resampling bias {rel_dev:.2e}")

    # pseudo-time step schedules sum to one
    for n_lam, ratio in ((29, 1.2), (1, 1.0), (50, 1.01), (8, 2.0)):
        if abs(flow_mod.step_schedule(n_lam, ratio).sum() - 1.0) > 1e-12:
            failures.append(f"schedule ({n_lam}, {ratio}) does not sum to one")

    # standardization round-trips
    vals = rng.standard_normal((40, 3)) * 5 + 2
    series = data_mod.SeriesSet(values=vals, names=["a", "b", "c"])
    scaled, stats = data_mod.standardize(series, per_series=True)
    if not np.allclose(data_mod.destandardize(scaled.values, stats), vals, atol=1e-12):
        failures.append("standardize does not round-trip")

    # empirical quantiles are monotone in the level
    samples = rng.standard_normal(31)
    qs = [np.quantile(samples, a, axis=0) for a in (0.1, 0.25, 0.5, 0.75, 0.9)]
    if not np.all(np.diff(qs) >= 0):
        failures.append("quantiles are not monotone")

    _report(
        "invariants (identity flow, permutation equivariance, resampling bias, schedule sum, scaling round-trip, quantile order)",
        not failures,
        "6/6 properties hold" if not failures else f"failed: {failures}",
    )
