"""Command-line interface: exit codes, artifact layout, and the
synth -> train -> forecast -> evaluate pipeline."""

import csv
import json
import os
import subprocess
import sys

import pytest

from flowcast import cli


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


def test_train_zero_horizon_is_a_data_error(tmp_path, capsys):
    # a zero horizon leaves the training losses nothing to score
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(_base_config(tmp_path / "run")))
    assert cli.main(["train", "--config", str(config_path), "--set", "windows.horizon=0"]) == 2
    assert "target rows" in capsys.readouterr().err


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


def test_forecast_zero_horizon_writes_header_only_files(trained_run, tmp_path):
    # the config allows windows.horizon = 0: the forecast files then hold no
    # rows, and with no realized values there is no truth.csv
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
    assert code == 0
    assert (fc / "samples.csv").read_text().splitlines() == ["window,horizon,series,sample,value"]
    assert (fc / "summary.csv").read_text().splitlines() == ["window,horizon,series,point,q10,q50,q90"]
    assert not (fc / "truth.csv").exists()


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
        ["filter-bench", "--n-lambda", "0"],
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


# ---------------------------------------------------------------------------
# filter-bench
# ---------------------------------------------------------------------------


def test_filter_bench_writes_rows(tmp_path):
    out = tmp_path / "bench.csv"
    code = cli.main(
        ["filter-bench", "--dims", "2", "--particles", "50", "--t", "5", "--seeds", "1", "--n-lambda", "8", "--out", str(out)]
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
