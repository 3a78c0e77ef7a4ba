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

from . import config as config_mod

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1, and no abbreviated options, which :func:`_apply_thread_cap` would miss."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

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


_SYNTH = config_mod.SCHEMA["data"]["synth"]  # the synth flags' defaults, and the range of a generator seed


def _check_seed(seed: int) -> None:
    """A generator seed flag outside the schema's range is a data error, as a config's seed is."""
    from .errors import DataError

    if not _SYNTH["seed"].check(seed):
        raise DataError(f"--seed {_SYNTH['seed'].check_msg}, got {seed}")


def _positive_int(text) -> int:
    """argparse type of a count: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _int_list(text) -> list:
    """argparse type of a comma-separated list of integers >= 1."""
    try:
        values = [int(x) for x in text.split(",")]
    except ValueError:
        values = [0]
    if min(values) < 1:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers >= 1, got {text!r}")
    return values


def build_parser() -> _Parser:
    from .forecast import POINTS, PredictConfig

    parser = _Parser(prog="flowcast", description="Probabilistic multivariate time-series forecasting")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="fit a model from a JSON config")
    p_train.add_argument("--config", required=True, help="path to the JSON run config")
    p_train.add_argument("--set", action="append", default=[], metavar="KEY=VALUE", help="override a config key (dotted path)")
    p_train.add_argument("--seed", type=int, default=None, help="override train.seed")
    p_train.add_argument("--threads", type=_positive_int, default=None, help="cap numeric library threads")
    p_train.add_argument("--out", default=None, help="override output.dir")

    p_fc = sub.add_parser("forecast", help="sample forecasts for the test split")
    p_fc.add_argument("--checkpoint", required=True)
    p_fc.add_argument("--config", required=True, help="resolved config from the training run")
    p_fc.add_argument("--split", choices=["train", "val", "test"], default="test")
    p_fc.add_argument("--particles", type=_positive_int, default=PredictConfig.n_particles)
    p_fc.add_argument("--seed", type=int, default=PredictConfig.seed)
    p_fc.add_argument("--noiseless", action="store_true", help="emit measurement means instead of draws")
    p_fc.add_argument("--point", choices=POINTS, default=PredictConfig.point)
    p_fc.add_argument("--max-windows", type=_positive_int, default=None, help="limit the number of windows (debugging)")
    p_fc.add_argument("--threads", type=_positive_int, default=None)
    p_fc.add_argument("--out", required=True, help="output directory")

    p_ev = sub.add_parser("evaluate", help="score forecasts against realized values")
    p_ev.add_argument("--samples", required=True)
    p_ev.add_argument("--summary", required=True)
    p_ev.add_argument("--truth", required=True)
    p_ev.add_argument("--horizons", type=_int_list, default=None, help="comma-separated horizons (default: quarters of Q)")
    p_ev.add_argument("--threads", type=_positive_int, default=None)
    p_ev.add_argument("--out", required=True, help="metrics CSV path")

    p_fb = sub.add_parser("filter-bench", help="flow vs BPF vs Kalman on linear-Gaussian systems")
    p_fb.add_argument("--dims", type=_int_list, default="4,16", help="comma-separated state dimensions")
    p_fb.add_argument("--particles", type=_int_list, default="100", help="comma-separated particle counts")
    p_fb.add_argument("--t", type=_positive_int, default=20, help="steps per trajectory")
    p_fb.add_argument("--seeds", type=_positive_int, default=5, help="replicates per cell")
    p_fb.add_argument("--seed", type=int, default=0)
    p_fb.add_argument("--threads", type=_positive_int, default=None)
    p_fb.add_argument("--out", required=True, help="benchmark CSV path")

    p_sy = sub.add_parser("synth", help="generate a synthetic dataset with a known oracle")
    p_sy.add_argument("--kind", choices=["linear_gaussian", "var_graph"], required=True)
    p_sy.add_argument("--n", type=_positive_int, default=_SYNTH["n_series"].default, help="number of series")
    p_sy.add_argument("--state-dim", type=_positive_int, default=None, help="state dimension (linear_gaussian)")
    p_sy.add_argument("--t", type=_positive_int, default=_SYNTH["t_steps"].default)
    p_sy.add_argument("--seed", type=int, default=_SYNTH["seed"].default)
    p_sy.add_argument("--threads", type=_positive_int, default=None)
    p_sy.add_argument("--out", required=True, help="output directory")
    return parser


# ---------------------------------------------------------------------------
# shared pipeline pieces
# ---------------------------------------------------------------------------


def _prepare_dataset(cfg: dict, splits):
    """Config -> (window lists of the named splits, graph, stats, series names)."""
    from . import data as data_mod

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
    windows, offset = {}, 0
    for name, segment in zip(("train", "val", "test"), segments):
        if name in splits:  # windows are cut only where they are used
            scaled, _ = data_mod.standardize(segment, stats=stats)
            windows[name] = data_mod.make_windows(scaled, p_steps, q_steps, period=period, start_offset=offset)
        offset += segment.n_steps
    return windows, graph, stats, series.names


def _model_from_config(cfg: dict, n_series: int):
    from . import ssm as ssm_mod

    d_z = 2 if cfg["data"]["covariates"] else 0
    return ssm_mod.init_model(n_series=n_series, d_z=d_z, **config_mod.python_names(cfg["model"]))


def _flow_config(cfg: dict):
    from . import flow as flow_mod

    return flow_mod.FlowConfig(**config_mod.python_names(cfg["flow"]))


def _train_config(cfg: dict):
    from . import train as train_mod

    return train_mod.TrainConfig(**config_mod.python_names(cfg["train"]), flow=_flow_config(cfg))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_train(args) -> int:
    from . import ssm as ssm_mod
    from . import train as train_mod

    raw = config_mod.apply_overrides(config_mod.read_json(args.config), args.set)
    if args.seed is not None:
        config_mod.set_key(raw, ("train", "seed"), args.seed)
    if args.out is not None:
        config_mod.set_key(raw, ("output", "dir"), args.out)
    cfg = config_mod.validate_config(raw)

    windows, graph, _, names = _prepare_dataset(cfg, ("train", "val"))
    model = _model_from_config(cfg, len(names))
    tcfg = _train_config(cfg)
    dataset = train_mod.TrainData(train_windows=windows["train"], val_windows=windows["val"], graph=graph)
    result = train_mod.fit(dataset, model, tcfg)

    out_dir = cfg["output"]["dir"]
    os.makedirs(out_dir, exist_ok=True)
    config_mod.dump_config(cfg, os.path.join(out_dir, "resolved_config.json"))
    ssm_mod.save_checkpoint(os.path.join(out_dir, "checkpoint.npz"), result.model)
    train_mod.write_training_log(os.path.join(out_dir, "training_log.csv"), result)
    print(f"trained {len(result.log)} epochs; best val loss {result.best_val:.6g} at epoch {result.best_epoch}")
    print(f"artifacts in {out_dir}: checkpoint.npz, training_log.csv, resolved_config.json")
    if result.diverged:
        print(f"training diverged ({result.cause}); checkpoint holds the last good parameters", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_forecast(args) -> int:
    import numpy as np

    from . import data as data_mod
    from . import forecast as forecast_mod
    from . import ssm as ssm_mod
    from .errors import DataError

    cfg = config_mod.validate_config(config_mod.read_json(args.config))
    model = ssm_mod.load_checkpoint(args.checkpoint)
    windows, graph, stats, names = _prepare_dataset(cfg, (args.split,))
    if model.n_series != len(names):
        raise DataError(f"checkpoint expects {model.n_series} series but the data has {len(names)}")
    chosen = windows[args.split][: args.max_windows]  # a split holds at least one window (chronological_split's min_length)
    pcfg = forecast_mod.PredictConfig(
        n_particles=args.particles,
        flow=_flow_config(cfg),
        seed=args.seed,
        noiseless=args.noiseless,
        point=args.point,
    )
    samples, points = forecast_mod.predict_windows(model, graph, chosen, pcfg)
    samples, points = data_mod.destandardize(samples, stats), data_mod.destandardize(points, stats)
    ids = [window.window_id for window in chosen]
    os.makedirs(args.out, exist_ok=True)
    forecast_mod.write_forecast_samples(os.path.join(args.out, "samples.csv"), ids, samples)
    forecast_mod.write_forecast_summary(os.path.join(args.out, "summary.csv"), ids, samples, points)
    targets = data_mod.destandardize(np.stack([w.y_future for w in chosen]), stats)
    forecast_mod.write_truth(os.path.join(args.out, "truth.csv"), ids, targets)
    print(f"wrote forecasts for {len(chosen)} windows ({args.particles} particles) to {args.out}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    from . import forecast as forecast_mod
    from . import metrics as metrics_mod

    samples, points, targets = forecast_mod.read_forecast_files(args.samples, args.summary, args.truth)
    q = targets.shape[1]
    horizons = args.horizons or sorted({max(1, (q * k) // 4) for k in range(1, 5)})
    rows = metrics_mod.evaluate_forecasts(samples, points, targets, horizons)
    metrics_mod.write_metrics_report(args.out, rows)
    for metric, horizon, value in rows:
        print(f"{metric:>10} h={horizon:>3}  {value:.6f}" if value == value else f"{metric:>10} h={horizon:>3}  undefined")
    return EXIT_OK


def cmd_filter_bench(args) -> int:
    import numpy as np

    from . import data as data_mod
    from . import filters as filters_mod

    _check_seed(args.seed)
    rows = []
    for d in args.dims:
        for seed in range(args.seed, args.seed + args.seeds):
            result = data_mod.synth_generate("linear_gaussian", (d, d), args.t, seed=seed)
            ssm, obs = result.oracle, result.series.values
            kf_means, _ = filters_mod.kalman_filter(ssm, obs)
            rows.append([d, "", "kalman", seed, 0.0, ""])
            for n_p in args.particles:
                rng = np.random.default_rng(np.random.SeedSequence((seed, d, n_p, 11)))
                flow_means = filters_mod.flow_filter_linear(ssm, obs, n_p, rng)
                rows.append([d, n_p, "flow", seed, float(np.sqrt(np.mean((flow_means - kf_means) ** 2))), ""])
                rng = np.random.default_rng(np.random.SeedSequence((seed, d, n_p, 13)))
                bpf_means, ess = filters_mod.bpf_filter_linear(ssm, obs, n_p, rng)
                rows.append([d, n_p, "bpf", seed, float(np.sqrt(np.mean((bpf_means - kf_means) ** 2))), float(ess.mean())])
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)  # floats are written as repr, which round-trips
        writer.writerow(["dim", "n_particles", "method", "seed", "rmse_vs_kalman", "ess_mean"])
        writer.writerows(rows)
    print(f"wrote {len(rows)} benchmark rows to {args.out}")
    return EXIT_OK


def cmd_synth(args) -> int:
    from . import data as data_mod
    from . import filters as filters_mod

    _check_seed(args.seed)
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
