"""Command-line interface.

Subcommands: ``train``, ``forecast``, ``evaluate``, ``filter-bench``,
``synth``.  Exit codes: 0 success, 1 usage error, 2 data/config error,
3 numeric failure.

Heavy imports happen after ``--threads`` is handled so the thread caps
reach the numeric libraries before they initialize.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _apply_thread_cap(argv) -> None:
    threads = None
    for i, arg in enumerate(argv):
        if arg == "--threads" and i + 1 < len(argv):
            threads = argv[i + 1]
        elif arg.startswith("--threads="):
            threads = arg.split("=", 1)[1]
    if threads is None:
        return
    try:
        n = max(1, int(threads))
    except ValueError:
        return  # argparse will report it
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "NUMBA_NUM_THREADS"):
        os.environ[var] = str(n)


def _int_list(text) -> list:
    """argparse type of a comma-separated list of integers."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def build_parser() -> _Parser:
    parser = _Parser(prog="flowcast", description="Probabilistic multivariate time-series forecasting")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="fit a model from a JSON config")
    p_train.add_argument("--config", required=True, help="path to the JSON run config")
    p_train.add_argument("--set", action="append", default=[], metavar="KEY=VALUE", help="override a config key (dotted path)")
    p_train.add_argument("--seed", type=int, default=None, help="override train.seed")
    p_train.add_argument("--threads", type=int, default=None, help="cap numeric library threads")
    p_train.add_argument("--out", default=None, help="override output.dir")

    p_fc = sub.add_parser("forecast", help="sample forecasts for the test split")
    p_fc.add_argument("--checkpoint", required=True)
    p_fc.add_argument("--config", required=True, help="resolved config from the training run")
    p_fc.add_argument("--split", choices=["train", "val", "test"], default="test")
    p_fc.add_argument("--particles", type=int, default=10)
    p_fc.add_argument("--seed", type=int, default=0)
    p_fc.add_argument("--noiseless", action="store_true", help="emit measurement means instead of draws")
    p_fc.add_argument("--point", choices=["median", "mean"], default="median")
    p_fc.add_argument("--max-windows", type=int, default=None, help="limit the number of windows (debugging)")
    p_fc.add_argument("--threads", type=int, default=None)
    p_fc.add_argument("--out", required=True, help="output directory")

    p_ev = sub.add_parser("evaluate", help="score forecasts against realized values")
    p_ev.add_argument("--samples", required=True)
    p_ev.add_argument("--summary", required=True)
    p_ev.add_argument("--truth", required=True)
    p_ev.add_argument("--horizons", type=_int_list, default=None, help="comma-separated horizons (default: quarters of Q)")
    p_ev.add_argument("--threads", type=int, default=None)
    p_ev.add_argument("--out", required=True, help="metrics CSV path")

    p_fb = sub.add_parser("filter-bench", help="flow vs BPF vs Kalman on linear-Gaussian systems")
    p_fb.add_argument("--dims", type=_int_list, default="4,16", help="comma-separated state dimensions")
    p_fb.add_argument("--particles", type=_int_list, default="100", help="comma-separated particle counts")
    p_fb.add_argument("--t", type=int, default=20, help="steps per trajectory")
    p_fb.add_argument("--seeds", type=int, default=5, help="replicates per cell")
    p_fb.add_argument("--seed", type=int, default=0)
    p_fb.add_argument("--n-lambda", type=int, default=29)
    p_fb.add_argument("--threads", type=int, default=None)
    p_fb.add_argument("--out", required=True, help="benchmark CSV path")

    p_sy = sub.add_parser("synth", help="generate a synthetic dataset with a known oracle")
    p_sy.add_argument("--kind", choices=["linear_gaussian", "var_graph"], required=True)
    p_sy.add_argument("--n", type=int, default=5, help="number of series")
    p_sy.add_argument("--state-dim", type=int, default=None, help="state dimension (linear_gaussian)")
    p_sy.add_argument("--t", type=int, default=2000)
    p_sy.add_argument("--seed", type=int, default=0)
    p_sy.add_argument("--threads", type=int, default=None)
    p_sy.add_argument("--out", required=True, help="output directory")
    return parser


# ---------------------------------------------------------------------------
# shared pipeline pieces
# ---------------------------------------------------------------------------


def _prepare_dataset(cfg: dict, splits):
    """Config -> (window lists of the named splits, graph, stats, series names)."""
    from . import data as data_mod
    from .errors import DataError

    d = cfg["data"]
    p_steps, q_steps = cfg["windows"]["history"], cfg["windows"]["horizon"]
    if d["synth"]["kind"] is not None:
        s = d["synth"]
        dims = s["n_series"] if s["kind"] == "var_graph" else (s["n_series"], s["state_dim"] or s["n_series"])
        result = data_mod.synth_generate(s["kind"], dims, s["t_steps"], s["seed"])
        series, graph = result.series, result.graph
    else:
        series = data_mod.load_series(d["path"])
        graph = None if d["graph"] is None else data_mod.load_graph(d["graph"], series.n_series)
    series = data_mod.forward_fill(series)
    fr = cfg["split"]
    segments = data_mod.chronological_split(series, (fr["train"], fr["val"], fr["test"]), min_length=p_steps + q_steps)
    _, stats = data_mod.standardize(segments[0], per_series=d["per_series_norm"])
    period = d["period"] if d["covariates"] else None
    if d["covariates"] and d["period"] is None:
        raise DataError("config key 'data.period' is required when covariates are enabled")
    windows, offset = {}, 0
    for name, segment in zip(("train", "val", "test"), segments):
        if name in splits:  # windows are cut only where they are used
            scaled, _ = data_mod.standardize(segment, stats=stats)
            windows[name] = data_mod.make_windows(scaled, p_steps, q_steps, period=period, start_offset=offset)
        offset += segment.n_steps
    return windows, graph, stats, series.names


def _model_from_config(cfg: dict, n_series: int):
    from . import ssm as ssm_mod

    m = cfg["model"]
    d_z = 2 if cfg["data"]["covariates"] else 0
    return ssm_mod.init_model(
        kind=m["kind"],
        n_series=n_series,
        d_x=m["d_x"],
        layers=m["layers"],
        d_z=d_z,
        d_e=m["d_e"],
        adjacency_mode=m["adjacency_mode"],
        rho=m["rho"],
        sigma=m["sigma"],
        init_scale=m["init_scale"],
        seed=m["init_seed"],
    )


def _flow_config(cfg: dict):
    from . import flow as flow_mod

    f = cfg["flow"]
    return flow_mod.FlowConfig(
        n_lambda=f["n_lambda"],
        ratio=f["ratio"],
        jitter=f["jitter"],
        single_particle_prior_scale=f["single_particle_prior_scale"],
        relinearize_every_step=f["relinearize_every_step"],
    )


def _train_config(cfg: dict):
    from . import train as train_mod

    t = cfg["train"]
    return train_mod.TrainConfig(
        loss=t["loss"],
        lr=t["lr"],
        milestones=tuple(t["milestones"]),
        lr_factor=t["lr_factor"],
        clip_norm=t["clip_norm"],
        batch_size=t["batch_size"],
        max_epochs=t["max_epochs"],
        patience=t["patience"],
        n_particles_train=t["particles_train"],
        n_particles_eval=t["particles_eval"],
        scheduled_sampling_tau=t["scheduled_sampling_tau"],
        seed=t["seed"],
        learn_rho_sigma=t["learn_rho_sigma"],
        flow=_flow_config(cfg),
    )


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_train(args) -> int:
    from . import config as config_mod
    from . import ssm as ssm_mod
    from . import train as train_mod

    raw = config_mod.apply_overrides(config_mod.read_json(args.config), args.set)
    if args.seed is not None:
        raw.setdefault("train", {})["seed"] = args.seed
    if args.out is not None:
        raw.setdefault("output", {})["dir"] = args.out
    cfg = config_mod.validate_config(raw)

    windows, graph, stats, names = _prepare_dataset(cfg, ("train", "val"))
    model = _model_from_config(cfg, len(names))
    tcfg = _train_config(cfg)
    dataset = train_mod.TrainData(train_windows=windows["train"], val_windows=windows["val"], graph=graph)
    result = train_mod.fit(dataset, model, tcfg)

    out_dir = cfg["output"]["dir"]
    os.makedirs(out_dir, exist_ok=True)
    config_mod.dump_config(cfg, os.path.join(out_dir, "resolved_config.json"))
    ssm_mod.save_checkpoint(os.path.join(out_dir, "checkpoint.npz"), result.model)
    train_mod.write_training_log(os.path.join(out_dir, "training_log.csv"), result)
    config_mod.dump_config(
        {"mean": stats.mean.tolist(), "std": stats.std.tolist(), "per_series": stats.per_series},
        os.path.join(out_dir, "norm_stats.json"),
    )
    print(f"trained {len(result.log)} epochs; best val loss {result.best_val:.6g} at epoch {result.best_epoch}")
    print(f"artifacts in {out_dir}: checkpoint.npz, training_log.csv, resolved_config.json")
    if result.diverged:
        print("training diverged; checkpoint holds the last good parameters", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_forecast(args) -> int:
    import numpy as np

    from . import config as config_mod
    from . import data as data_mod
    from . import forecast as forecast_mod
    from . import ssm as ssm_mod
    from .errors import DataError

    cfg = config_mod.validate_config(config_mod.read_json(args.config))
    model = ssm_mod.load_checkpoint(args.checkpoint)
    windows, graph, stats, names = _prepare_dataset(cfg, (args.split,))
    if model.n_series != len(names):
        raise DataError(f"checkpoint expects {model.n_series} series but the data has {len(names)}")
    chosen = windows[args.split]
    if args.max_windows is not None:
        chosen = chosen[: args.max_windows]
    if not chosen:
        raise DataError(f"the {args.split} split has no complete windows")
    pcfg = forecast_mod.PredictConfig(
        n_particles=args.particles,
        flow=_flow_config(cfg),
        seed=args.seed,
        noiseless=args.noiseless,
        point=args.point,
    )
    dists = forecast_mod.predict_windows(model, graph, chosen, pcfg)
    for dist in dists:
        dist.samples = data_mod.destandardize(dist.samples, stats)
        dist.point = data_mod.destandardize(dist.point, stats)
    ids = [window.window_id for window in chosen]
    targets = [data_mod.destandardize(np.asarray(w.y_future), stats) for w in chosen if w.y_future is not None]
    os.makedirs(args.out, exist_ok=True)
    forecast_mod.write_forecast_samples(os.path.join(args.out, "samples.csv"), ids, dists)
    forecast_mod.write_forecast_summary(os.path.join(args.out, "summary.csv"), ids, dists)
    if len(targets) == len(dists):
        forecast_mod.write_truth(os.path.join(args.out, "truth.csv"), ids, targets)
    print(f"wrote forecasts for {len(dists)} windows ({args.particles} particles) to {args.out}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    from . import forecast as forecast_mod
    from . import metrics as metrics_mod
    from .errors import DataError

    samples, points, targets = forecast_mod.read_forecast_files(args.samples, args.summary, args.truth)
    q = targets.shape[1]
    horizons = args.horizons or sorted({max(1, (q * k) // 4) for k in range(1, 5)})
    bad = [h for h in horizons if not 1 <= h <= q]
    if bad:
        raise DataError(f"requested horizons {bad} exceed the forecast horizon {q}")
    rows = metrics_mod.evaluate_forecasts(samples, points, targets, horizons)
    metrics_mod.write_metrics_report(args.out, rows)
    for metric, horizon, value in rows:
        print(f"{metric:>10} h={horizon:>3}  {value:.6f}" if value == value else f"{metric:>10} h={horizon:>3}  undefined")
    return EXIT_OK


def cmd_filter_bench(args) -> int:
    import numpy as np

    from . import data as data_mod
    from . import filters as filters_mod
    from . import flow as flow_mod

    fcfg = flow_mod.FlowConfig(n_lambda=args.n_lambda)
    rows = []
    for d in args.dims:
        for seed in range(args.seeds):
            result = data_mod.synth_generate("linear_gaussian", (d, d), args.t, seed=args.seed + seed)
            ssm = result.oracle
            obs = result.series.values
            kf_means, _ = filters_mod.kalman_filter(ssm, obs)
            rows.append({"dim": d, "n_particles": "", "method": "kalman", "seed": args.seed + seed, "rmse_vs_kalman": 0.0, "ess_mean": ""})
            for n_p in args.particles:
                rng = np.random.default_rng(np.random.SeedSequence((args.seed + seed, d, n_p, 11)))
                flow_means = filters_mod.flow_filter_linear(ssm, obs, n_p, rng, fcfg)
                rmse_flow = float(np.sqrt(np.mean((flow_means - kf_means) ** 2)))
                rows.append({"dim": d, "n_particles": n_p, "method": "flow", "seed": args.seed + seed, "rmse_vs_kalman": rmse_flow, "ess_mean": ""})
                rng = np.random.default_rng(np.random.SeedSequence((args.seed + seed, d, n_p, 13)))
                bpf_means, ess = filters_mod.bpf_filter_linear(ssm, obs, n_p, rng)
                rmse_bpf = float(np.sqrt(np.mean((bpf_means - kf_means) ** 2)))
                rows.append(
                    {"dim": d, "n_particles": n_p, "method": "bpf", "seed": args.seed + seed, "rmse_vs_kalman": rmse_bpf, "ess_mean": repr(float(ess.mean()))}
                )
    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["dim", "n_particles", "method", "seed", "rmse_vs_kalman", "ess_mean"])
        writer.writeheader()
        for row in rows:
            row = dict(row)
            if isinstance(row["rmse_vs_kalman"], float):
                row["rmse_vs_kalman"] = repr(row["rmse_vs_kalman"])
            writer.writerow(row)
    print(f"wrote {len(rows)} benchmark rows to {args.out}")
    return EXIT_OK


def cmd_synth(args) -> int:
    from . import data as data_mod
    from . import filters as filters_mod

    dims = (args.n, args.state_dim or args.n) if args.kind == "linear_gaussian" else args.n
    result = data_mod.synth_generate(args.kind, dims, args.t, args.seed)
    os.makedirs(args.out, exist_ok=True)
    series_path = os.path.join(args.out, "series.csv")
    data_mod.save_series(series_path, result.series)
    written = [series_path]
    if result.graph is not None:
        graph_path = os.path.join(args.out, "graph.csv")
        data_mod.save_graph(graph_path, result.graph)
        written.append(graph_path)
    oracle_path = os.path.join(args.out, "oracle.npz")
    filters_mod.save_linear_ssm(oracle_path, result.oracle)
    written.append(oracle_path)
    print("wrote " + ", ".join(written))
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    _apply_thread_cap(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    from .errors import DataError, NumericError

    handlers = {
        "train": cmd_train,
        "forecast": cmd_forecast,
        "evaluate": cmd_evaluate,
        "filter-bench": cmd_filter_bench,
        "synth": cmd_synth,
    }
    try:
        return handlers[args.command](args)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
