"""Command-line interface: exit codes, artifact layout, and the
synth -> train -> forecast -> evaluate pipeline."""

import csv
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from flowcast import cli
from flowcast import config as config_mod


def _base_config(out_dir):
    return {
        "data": {"synth": {"kind": "var_graph", "n_series": 3, "t_steps": 120, "seed": 7}},
        "windows": {"history": 6, "horizon": 4},
        "model": {"kind": "gru", "d_x": 4, "layers": 1, "rho": 0.8, "sigma": 0.05, "init_scale": 0.5},
        "flow": {"n_lambda": 4},
        "train": {
            "loss": "mae",
            "lr": 0.01,
            "batch_size": 32,
            "max_epochs": 2,
            "patience": 5,
            "particles_train": 1,
            "particles_eval": 2,
            "seed": 0,
        },
        "output": {"dir": str(out_dir)},
    }


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """One tiny end-to-end training run shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli_run")
    run_dir = root / "run"
    config_path = root / "config.json"
    config_path.write_text(json.dumps(_base_config(run_dir)))
    code = cli.main(["train", "--config", str(config_path), "--out", str(run_dir)])
    assert code == 0
    fc_dir = root / "fc"
    code = cli.main(
        [
            "forecast",
            "--checkpoint", str(run_dir / "checkpoint.npz"),
            "--config", str(run_dir / "resolved_config.json"),
            "--split", "test",
            "--particles", "3",
            "--seed", "1",
            "--out", str(fc_dir),
        ]
    )
    assert code == 0
    return {"root": root, "config": config_path, "run": run_dir, "fc": fc_dir}


# ---------------------------------------------------------------------------
# usage errors
# ---------------------------------------------------------------------------


def test_no_arguments_is_a_usage_error():
    assert cli.main([]) == 1


def test_unknown_command_is_a_usage_error():
    assert cli.main(["nonsense"]) == 1


def test_missing_required_option_is_a_usage_error():
    assert cli.main(["train"]) == 1


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["--help"])
    assert exc.value.code == 0
    assert cli.main(["--help"]) == 0


def test_thread_cap_sets_environment():
    saved = {
        var: os.environ.get(var)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "NUMBA_NUM_THREADS")
    }
    try:
        cli._apply_thread_cap(["train", "--threads", "2"])
        assert os.environ["OMP_NUM_THREADS"] == "2"
        cli._apply_thread_cap(["train", "--threads=3"])
        assert os.environ["OPENBLAS_NUM_THREADS"] == "3"
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value


@pytest.mark.parametrize(
    "argv",
    [["evaluate", "--samples", "s.csv", "--summary", "m.csv", "--truth", "t.csv", "--out", "x.csv"], ["train", "--config", "c.json"]],
    ids=["evaluate", "train"],
)
def test_abbreviated_options_are_usage_errors(capsys, argv):
    # the thread cap reads the full --threads spelling before argparse runs,
    # so an accepted --thread would leave BLAS uncapped
    assert cli.main(argv + ["--thread", "1"]) == 1
    assert "unrecognized arguments: --thread 1" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def test_synth_var_graph_writes_series_graph_oracle(tmp_path):
    out = tmp_path / "synth"
    assert cli.main(["synth", "--kind", "var_graph", "--n", "3", "--t", "50", "--seed", "1", "--out", str(out)]) == 0
    assert (out / "series.csv").exists()
    assert (out / "graph.csv").exists()
    assert (out / "oracle.npz").exists()


def test_synth_linear_gaussian_has_no_graph(tmp_path):
    out = tmp_path / "synth"
    assert cli.main(["synth", "--kind", "linear_gaussian", "--n", "2", "--state-dim", "2", "--t", "30", "--out", str(out)]) == 0
    assert (out / "series.csv").exists()
    assert not (out / "graph.csv").exists()


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def test_train_writes_artifacts(trained_run):
    run = trained_run["run"]
    for name in ("checkpoint.npz", "training_log.csv", "resolved_config.json"):
        assert (run / name).exists(), name
    assert not (run / "norm_stats.json").exists()  # forecast recomputes the statistics from the config's data
    with open(run / "training_log.csv") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    assert rows[0] == ["epoch", "train_loss", "val_loss", "lr", "seconds"]
    assert len(rows) - 1 == 2  # one line per epoch
    resolved = json.loads((run / "resolved_config.json").read_text())
    assert resolved["train"]["max_epochs"] == 2


def test_train_set_override_controls_epochs(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(_base_config(tmp_path / "run")))
    code = cli.main(
        ["train", "--config", str(config_path), "--set", "train.max_epochs=1", "--out", str(tmp_path / "run")]
    )
    assert code == 0
    with open(tmp_path / "run" / "training_log.csv") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    assert len(rows) - 1 == 1


def test_train_missing_config_file_is_a_data_error(tmp_path):
    assert cli.main(["train", "--config", str(tmp_path / "absent.json")]) == 2


def test_train_missing_series_file_is_a_data_error(tmp_path, capsys):
    config = _base_config(tmp_path / "run")
    config["data"] = {"path": str(tmp_path / "absent.csv")}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert cli.main(["train", "--config", str(config_path)]) == 2
    assert "cannot read series file" in capsys.readouterr().err


@pytest.mark.parametrize("weight", ["inf", "nan"])
def test_train_non_finite_graph_weight_is_a_data_error(tmp_path, capsys, weight):
    # a graph_gru run on CSV files whose first edge weight is not finite
    data_dir = tmp_path / "data"
    assert cli.main(["synth", "--kind", "var_graph", "--n", "3", "--t", "120", "--seed", "7", "--out", str(data_dir)]) == 0
    graph_path = data_dir / "graph.csv"
    rows = graph_path.read_text().splitlines()
    rows[1] = rows[1].rsplit(",", 1)[0] + "," + weight
    graph_path.write_text("\n".join(rows) + "\n")
    config = _base_config(tmp_path / "run")
    config["data"] = {"path": str(data_dir / "series.csv"), "graph": str(graph_path)}
    config["model"]["kind"] = "graph_gru"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    capsys.readouterr()
    assert cli.main(["train", "--config", str(config_path)]) == 2
    assert f"graph row 2: non-finite weight {weight}" in capsys.readouterr().err


def test_train_invalid_config_value_is_a_data_error(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(_base_config(tmp_path / "run")))
    assert cli.main(["train", "--config", str(config_path), "--set", "train.lr=-1"]) == 2


def test_train_unknown_config_key_is_a_data_error(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(_base_config(tmp_path / "run")))
    assert cli.main(["train", "--config", str(config_path), "--set", "train.learning_rate=0.1"]) == 2


@pytest.mark.parametrize(
    "config,flags",
    [
        ([1, 2], ["--seed", "1"]),
        ([1, 2], ["--out", "d"]),
        ([1, 2], ["--set", "train.lr=0.1"]),
        ({"train": 5}, ["--seed", "1"]),
        ({"output": 5}, ["--out", "d"]),
    ],
)
def test_train_config_that_is_not_an_object_is_a_data_error(tmp_path, capsys, config, flags):
    # the command-line overrides write into the config file's objects
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert cli.main(["train", "--config", str(config_path), *flags]) == 2
    assert "data error" in capsys.readouterr().err


def test_train_zero_horizon_is_a_data_error(tmp_path, capsys):
    # a zero horizon leaves the training losses nothing to score
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(_base_config(tmp_path / "run")))
    assert cli.main(["train", "--config", str(config_path), "--set", "windows.horizon=0"]) == 2
    assert "config key 'windows.horizon' must be positive" in capsys.readouterr().err


def test_train_that_stops_early_marks_its_log(tmp_path, capsys):
    # at this rate epoch 2's validation loss is worse than epoch 1's, and patience 1 stops there
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(_base_config(tmp_path / "run")))
    overrides = ["--set", "train.lr=0.05", "--set", "train.patience=1", "--set", "train.max_epochs=5"]
    assert cli.main(["train", "--config", str(config_path), *overrides]) == 0
    assert "trained 2 epochs" in capsys.readouterr().out
    lines = (tmp_path / "run" / "training_log.csv").read_text().splitlines()
    assert len(lines) == 4 and lines[-1] == "# early_stop best_epoch=1"


def test_train_divergence_is_a_numeric_failure(tmp_path, capsys):
    config = _base_config(tmp_path / "run")
    config["train"]["loss"] = "nll"
    config["train"]["lr"] = 1e6
    config["train"]["particles_train"] = 2
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    code = cli.main(["train", "--config", str(config_path), "--out", str(tmp_path / "run")])
    assert code == 3
    assert "diverged" in capsys.readouterr().err
    # the checkpoint still holds the last finite parameters
    assert (tmp_path / "run" / "checkpoint.npz").exists()


def test_train_divergence_names_its_cause(tmp_path, capsys, training_step_fails):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(_base_config(tmp_path / "run")))
    assert cli.main(["train", "--config", str(config_path)]) == 3
    err = capsys.readouterr().err
    assert "training diverged (innovation covariance of window 4" in err and "of encoder step 1: noise variance of series 0 is 0)" in err


def test_train_flow_failure_in_validation_keeps_the_best_checkpoint(tmp_path, capsys, second_validation_diverges):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(_base_config(tmp_path / "run")))
    assert cli.main(["train", "--config", str(config_path), "--set", "train.max_epochs=3"]) == 3
    assert "diverged" in capsys.readouterr().err
    assert (tmp_path / "run" / "checkpoint.npz").exists()
    assert (tmp_path / "run" / "training_log.csv").read_text().endswith("# diverged best_epoch=1\n")


# ---------------------------------------------------------------------------
# forecast
# ---------------------------------------------------------------------------


def test_forecast_writes_sample_summary_truth(trained_run):
    fc = trained_run["fc"]
    for name in ("samples.csv", "summary.csv", "truth.csv"):
        assert (fc / name).exists(), name
    with open(fc / "samples.csv") as fh:
        reader = csv.DictReader(fh)
        assert set(reader.fieldnames) == {"window", "sample", "horizon", "series", "value"}
        rows = list(reader)
    # t=120 splits 84/12/24; history 6 + horizon 4 leaves 15 test windows
    assert len(rows) == 15 * 3 * 4 * 3  # windows x samples x horizons x series
    with open(fc / "summary.csv") as fh:
        header = csv.DictReader(fh).fieldnames
    assert "point" in header and "q50" in header


def test_forecast_missing_checkpoint_is_a_data_error(trained_run, tmp_path):
    code = cli.main(
        [
            "forecast",
            "--checkpoint", str(tmp_path / "absent.npz"),
            "--config", str(trained_run["run"] / "resolved_config.json"),
            "--out", str(tmp_path / "fc"),
        ]
    )
    assert code == 2


@pytest.mark.parametrize("meta", [b"{not json", b'{"format": 1}'])
def test_forecast_checkpoint_with_a_malformed_meta_entry_is_a_data_error(trained_run, tmp_path, capsys, meta):
    data = dict(np.load(trained_run["run"] / "checkpoint.npz"))
    data["meta"] = np.frombuffer(meta, dtype=np.uint8)
    np.savez(tmp_path / "bad.npz", **data)
    code = cli.main(
        [
            "forecast",
            "--checkpoint", str(tmp_path / "bad.npz"),
            "--config", str(trained_run["run"] / "resolved_config.json"),
            "--out", str(tmp_path / "fc"),
        ]
    )
    assert code == 2
    assert "bad.npz has a malformed meta entry" in capsys.readouterr().err


def test_negative_seeds_are_data_errors(trained_run, tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(_base_config(tmp_path / "run")))
    assert cli.main(["train", "--config", str(config_path), "--seed", "-1"]) == 2
    assert "config key 'train.seed' must be non-negative" in capsys.readouterr().err
    run = trained_run["run"]
    argv = ["forecast", "--checkpoint", str(run / "checkpoint.npz"), "--config", str(run / "resolved_config.json"), "--seed", "-1", "--out", str(tmp_path / "fc")]
    assert cli.main(argv) == 2
    assert "seed must be non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["synth", "--kind", "var_graph"], ["filter-bench", "--dims", "2", "--t", "5", "--seeds", "1"]])
def test_negative_generator_seeds_are_data_errors(command, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main([*command, "--seed", "-1", "--out", str(out)]) == 2
    assert "--seed must be non-negative" in capsys.readouterr().err
    assert not out.exists()


def test_synth_flag_defaults_come_from_the_schema(monkeypatch):
    synth = config_mod.SCHEMA["data"]["synth"]
    for key, default in (("n_series", 3), ("t_steps", 123), ("seed", 9)):
        monkeypatch.setitem(synth, key, config_mod.Field(int, default=default, check=synth[key].check, check_msg=synth[key].check_msg))
    args = cli.build_parser().parse_args(["synth", "--kind", "var_graph", "--out", "unused"])
    assert (args.n, args.t, args.seed) == (3, 123, 9)


def test_forecast_bad_split_is_a_usage_error(trained_run, tmp_path):
    code = cli.main(
        [
            "forecast",
            "--checkpoint", str(trained_run["run"] / "checkpoint.npz"),
            "--config", str(trained_run["run"] / "resolved_config.json"),
            "--split", "holdout",
            "--out", str(tmp_path / "fc"),
        ]
    )
    assert code == 1


def test_forecast_zero_horizon_is_a_data_error(trained_run, tmp_path, capsys):
    # a window needs a target row: a zero horizon is refused before anything is written
    cfg = json.loads((trained_run["run"] / "resolved_config.json").read_text())
    cfg["windows"]["horizon"] = 0
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(cfg))
    fc = tmp_path / "fc"
    code = cli.main(
        [
            "forecast",
            "--checkpoint", str(trained_run["run"] / "checkpoint.npz"),
            "--config", str(config_path),
            "--particles", "3",
            "--out", str(fc),
        ]
    )
    assert code == 2
    assert "config key 'windows.horizon' must be positive" in capsys.readouterr().err
    assert not fc.exists()


def _forecast(run, config, out, *extra):
    return cli.main(["forecast", "--checkpoint", str(run / "checkpoint.npz"), "--config", str(config), "--particles", "3", "--out", str(out), *extra])


def test_forecast_numeric_failure_exits_3_naming_the_window_and_encoder_step(trained_run, tmp_path, capsys):
    # a hugely negative emission scale: the softplus noise std underflows to 0
    # (r = 0, no warning) where a window's particle mean leans the wrong way
    from flowcast import ssm as ssm_mod

    model = ssm_mod.load_checkpoint(trained_run["run"] / "checkpoint.npz")
    model.params["C_gamma"] = np.full_like(model.params["C_gamma"], -1e6)
    (tmp_path / "run").mkdir()
    ssm_mod.save_checkpoint(tmp_path / "run" / "checkpoint.npz", model)
    capsys.readouterr()
    assert _forecast(tmp_path / "run", trained_run["run"] / "resolved_config.json", tmp_path / "fc") == 3
    err = capsys.readouterr().err
    assert re.fullmatch(r"numeric failure: innovation covariance of window \d+ is not positive definite at .* of encoder step \d+: noise variance of series \d+ is 0\n", err), err
    assert not (tmp_path / "fc").exists()


def test_forecast_max_windows_writes_exactly_that_many(trained_run, tmp_path):
    assert _forecast(trained_run["run"], trained_run["run"] / "resolved_config.json", tmp_path / "fc", "--max-windows", "4") == 0
    for name in ("samples", "summary", "truth"):
        with open(tmp_path / "fc" / f"{name}.csv") as fh:
            windows = [row["window"] for row in csv.DictReader(fh)]
        with open(trained_run["fc"] / f"{name}.csv") as fh:
            first = [row["window"] for row in csv.DictReader(fh)]
        assert sorted(set(windows), key=int) == sorted(set(first), key=int)[:4]
        assert len(windows) == len(first) * 4 // 15  # the first 4 of the 15 test windows, whole


def _edited_config(trained_run, tmp_path, edits):
    cfg = json.loads((trained_run["run"] / "resolved_config.json").read_text())
    for key, value in edits.items():
        config_mod.set_key(cfg, tuple(key.split(".")), value)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.mark.parametrize(
    "edits, message",
    [
        ({"data.synth.n_series": 4}, "checkpoint expects 3 series but the data has 4"),
        ({"split": {"train": 0.7, "val": 0.26, "test": 0.04}}, "split segment [115, 120) is shorter than the required 10 steps"),
        ({"data.covariates": True}, "config key 'data.period' is required when covariates are enabled"),
        ({"data.covariates": True, "data.period": 24}, "the model takes no covariates (d_z = 0) but z_t is given"),
    ],
    ids=["series_count", "empty_split", "covariates_without_period", "covariates_on_a_model_without_them"],
)
def test_forecast_config_that_does_not_fit_is_a_data_error(trained_run, tmp_path, capsys, edits, message):
    config_path = _edited_config(trained_run, tmp_path, edits)
    capsys.readouterr()
    assert _forecast(trained_run["run"], config_path, tmp_path / "fc") == 2
    assert capsys.readouterr().err == f"data error: {message}\n"
    assert not (tmp_path / "fc").exists()


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def test_evaluate_writes_metric_rows(trained_run, tmp_path, capsys):
    fc = trained_run["fc"]
    out = tmp_path / "metrics.csv"
    code = cli.main(
        [
            "evaluate",
            "--samples", str(fc / "samples.csv"),
            "--summary", str(fc / "summary.csv"),
            "--truth", str(fc / "truth.csv"),
            "--out", str(out),
        ]
    )
    assert code == 0
    with open(out) as fh:
        reader = csv.reader(fh)
        assert next(reader) == ["metric", "horizon", "value"]
        rows = list(reader)
    metrics_seen = {r[0] for r in rows}
    assert {"mae", "rmse", "mape", "crps_avg", "ql50_avg", "ql90_avg", "crps_sum"} <= metrics_seen
    # default horizons are the quarters of the 4-step horizon
    assert {r[1] for r in rows if r[0] == "mae"} == {"1", "2", "3", "4"}
    for r in rows:
        if r[2]:
            float(r[2])  # parses
    printed = capsys.readouterr().out
    assert "crps_sum" in printed


def test_evaluate_horizon_out_of_range_is_a_data_error(trained_run, tmp_path):
    fc = trained_run["fc"]
    code = cli.main(
        [
            "evaluate",
            "--samples", str(fc / "samples.csv"),
            "--summary", str(fc / "summary.csv"),
            "--truth", str(fc / "truth.csv"),
            "--horizons", "9",
            "--out", str(tmp_path / "metrics.csv"),
        ]
    )
    assert code == 2


def test_evaluate_missing_samples_file_is_a_data_error(trained_run, tmp_path, capsys):
    fc = trained_run["fc"]
    code = cli.main(
        [
            "evaluate",
            "--samples", str(tmp_path / "absent.csv"),
            "--summary", str(fc / "summary.csv"),
            "--truth", str(fc / "truth.csv"),
            "--out", str(tmp_path / "metrics.csv"),
        ]
    )
    assert code == 2
    assert "cannot read" in capsys.readouterr().err


def test_evaluate_corrupt_truth_cell_is_a_data_error(trained_run, tmp_path, capsys):
    fc = trained_run["fc"]
    corrupted = tmp_path / "truth.csv"
    lines = (fc / "truth.csv").read_text().splitlines()
    first = lines[1].rsplit(",", 1)[0]
    corrupted.write_text("\n".join([lines[0], first + ",oops"] + lines[2:]) + "\n")
    code = cli.main(
        [
            "evaluate",
            "--samples", str(fc / "samples.csv"),
            "--summary", str(fc / "summary.csv"),
            "--truth", str(corrupted),
            "--out", str(tmp_path / "metrics.csv"),
        ]
    )
    assert code == 2
    assert "bad cell" in capsys.readouterr().err


def test_evaluate_mismatched_coverage_is_a_data_error(trained_run, tmp_path):
    fc = trained_run["fc"]
    truncated = tmp_path / "truth.csv"
    lines = (fc / "truth.csv").read_text().splitlines()
    truncated.write_text("\n".join(lines[:-3]) + "\n")
    code = cli.main(
        [
            "evaluate",
            "--samples", str(fc / "samples.csv"),
            "--summary", str(fc / "summary.csv"),
            "--truth", str(truncated),
            "--out", str(tmp_path / "metrics.csv"),
        ]
    )
    assert code == 2


def _edited_copy(fc, dst, edit, newline="\r\n"):
    """The three forecast files of ``fc`` in ``dst``, each file's rows (after the header) passed through ``edit(name, rows)``."""
    dst.mkdir()
    for name in ("samples", "summary", "truth"):
        header, *rows = (fc / f"{name}.csv").read_text().splitlines()
        (dst / f"{name}.csv").write_bytes(newline.join([header, *edit(name, rows)]).encode() + newline.encode())
    return dst


def _evaluate_dir(files, out, *extra):
    return cli.main(
        [
            "evaluate",
            "--samples", str(files / "samples.csv"),
            "--summary", str(files / "summary.csv"),
            "--truth", str(files / "truth.csv"),
            "--out", str(out),
            *extra,
        ]
    )


def _assert_data_error(code, capsys, match=""):
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("data error:") and match in err
    assert "Traceback" not in err


def test_evaluate_reads_lf_files_like_crlf_files(trained_run, tmp_path):
    fc = trained_run["fc"]
    lf = _edited_copy(fc, tmp_path / "lf", lambda name, rows: rows, newline="\n")
    assert b"\r" not in (lf / "samples.csv").read_bytes()
    assert _evaluate_dir(fc, tmp_path / "crlf.csv") == 0
    assert _evaluate_dir(lf, tmp_path / "lf.csv") == 0
    assert (tmp_path / "lf.csv").read_bytes() == (tmp_path / "crlf.csv").read_bytes()


def test_evaluate_ragged_coverage_is_a_data_error(trained_run, tmp_path, capsys):
    # the last window loses its last horizon in all three files
    last = (trained_run["fc"] / "truth.csv").read_text().splitlines()[-1].split(",")[0]

    def drop_last_horizon(name, rows):
        return [r for r in rows if not (r.split(",")[0] == last and r.split(",")[1] == "4")]

    files = _edited_copy(trained_run["fc"], tmp_path / "ragged", drop_last_horizon)
    _assert_data_error(_evaluate_dir(files, tmp_path / "metrics.csv"), capsys, "lacks rows")


def test_evaluate_header_only_files_are_a_data_error(trained_run, tmp_path, capsys):
    files = _edited_copy(trained_run["fc"], tmp_path / "empty", lambda name, rows: [])
    _assert_data_error(_evaluate_dir(files, tmp_path / "metrics.csv"), capsys, "has no rows")


def test_evaluate_duplicated_truth_row_is_a_data_error(trained_run, tmp_path, capsys):
    def duplicate_first(name, rows):
        if name != "truth":
            return rows
        key = rows[0].rsplit(",", 1)[0]
        return rows + [key + ",12345.0"]

    files = _edited_copy(trained_run["fc"], tmp_path / "dup", duplicate_first)
    _assert_data_error(_evaluate_dir(files, tmp_path / "metrics.csv"), capsys, "duplicated")


def test_evaluate_fractional_horizon_is_a_data_error(trained_run, tmp_path, capsys):
    def fractional_horizon(name, rows):
        if name != "truth":
            return rows
        cells = rows[0].split(",")
        return [",".join([cells[0], "1.5", *cells[2:]])] + rows[1:]

    files = _edited_copy(trained_run["fc"], tmp_path / "frac", fractional_horizon)
    _assert_data_error(_evaluate_dir(files, tmp_path / "metrics.csv"), capsys, "bad cell")


def test_non_integer_list_items_are_usage_errors(trained_run, tmp_path, capsys):
    assert _evaluate_dir(trained_run["fc"], tmp_path / "metrics.csv", "--horizons", "1,x") == 1
    assert "comma-separated integers" in capsys.readouterr().err
    for option in ("--dims", "--particles"):
        assert cli.main(["filter-bench", option, "4,x", "--out", str(tmp_path / "bench.csv")]) == 1
        assert "comma-separated integers" in capsys.readouterr().err
    assert not (tmp_path / "metrics.csv").exists() and not (tmp_path / "bench.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["forecast", "--checkpoint", "c.npz", "--config", "c.json", "--max-windows", "-1"],
        ["forecast", "--checkpoint", "c.npz", "--config", "c.json", "--max-windows", "0"],
        ["forecast", "--checkpoint", "c.npz", "--config", "c.json", "--particles", "0"],
        ["filter-bench", "--dims", "0"],
        ["filter-bench", "--dims", "4,-2"],
        ["filter-bench", "--particles", "0"],
        ["filter-bench", "--t", "0"],
        ["filter-bench", "--seeds", "0"],
        ["filter-bench", "--threads", "0"],
        ["synth", "--kind", "var_graph", "--n", "0"],
        ["synth", "--kind", "linear_gaussian", "--state-dim", "0"],
        ["synth", "--kind", "var_graph", "--t", "0"],
        ["evaluate", "--samples", "s.csv", "--summary", "m.csv", "--truth", "t.csv", "--horizons", "0"],
        ["synth", "--kind", "var_graph", "--threads", "0"],
    ],
)
def test_counts_below_one_are_usage_errors(argv, tmp_path, capsys, monkeypatch):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "NUMBA_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)  # restored after the test, whatever the thread cap sets
    out = tmp_path / "out"
    assert cli.main([*argv, "--out", str(out)]) == 1
    assert ">= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, option, text",
    [
        (["synth", "--kind", "var_graph", "--threads", "abc"], "--threads", "abc"),
        (["forecast", "--checkpoint", "c.npz", "--config", "c.json", "--particles", "x"], "--particles", "x"),
    ],
)
def test_counts_that_are_not_integers_are_usage_errors(argv, option, text, tmp_path, capsys, monkeypatch):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "NUMBA_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    out = tmp_path / "out"
    assert cli.main([*argv, "--out", str(out)]) == 1
    assert f"argument {option}: expected an integer >= 1, got {text!r}" in capsys.readouterr().err
    assert "OMP_NUM_THREADS" not in os.environ  # the thread cap leaves a count it cannot read to argparse
    assert not out.exists()


# ---------------------------------------------------------------------------
# filter-bench
# ---------------------------------------------------------------------------


def test_filter_bench_writes_rows(tmp_path):
    out = tmp_path / "bench.csv"
    code = cli.main(
        ["filter-bench", "--dims", "2", "--particles", "50", "--t", "5", "--seeds", "1", "--out", str(out)]
    )
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    methods = [r["method"] for r in rows]
    assert methods == ["kalman", "flow", "bpf"]
    assert float(rows[0]["rmse_vs_kalman"]) == 0.0
    assert float(rows[1]["rmse_vs_kalman"]) < 1.0
    assert float(rows[2]["ess_mean"]) > 1.0


# ---------------------------------------------------------------------------
# process-level entry point
# ---------------------------------------------------------------------------


def test_module_entry_point_subprocess(tmp_path):
    out = tmp_path / "synth"
    proc = subprocess.run(
        [sys.executable, "-m", "flowcast", "synth", "--kind", "var_graph", "--n", "2", "--t", "30", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "series.csv").exists()


def test_module_entry_point_usage_error_subprocess():
    proc = subprocess.run([sys.executable, "-m", "flowcast", "nonsense"], capture_output=True, text=True)
    assert proc.returncode == 1
    assert "invalid choice" in proc.stderr


def test_importing_the_cli_leaves_numpy_unloaded():
    # `--threads` sets the BLAS thread variables in `cli.main`, which only
    # takes effect if numpy has not started yet
    code = "\n".join([
        "import sys, flowcast.cli",
        "assert 'numpy' not in sys.modules, 'numpy loaded by import flowcast.cli'",
    ])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
