"""Smoke test of the benchmark itself, at toy size.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload untraced and traced, and checks the printed result
against BENCHMARK.json: its fixed form, that each workload prints every
metric named there with the same unit, and that traced self times add up
to the span totals.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# every workload prints every one of these
END_TO_END = {"setup_s", "peak_rss_mb", "primary_per_s", "secondary_per_s", "quality_error"}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_bench(workload, trace, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    cmd = [sys.executable, script, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "toy"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def test_benchmark_json_has_its_fixed_form():
    spec = load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == ["train", "forecast", "filter"]
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and "\n" not in w["why"] and len(w["why"]) <= 200
    names = [m["name"] for m in spec["workloads"] + spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher") and 0 < m["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert {m["name"] for m in spec["end_to_end"]} == END_TO_END
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    assert len(json.dumps(spec)) <= 64 * 1024


def result_of(done):
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, done.stderr
    return result


@pytest.mark.parametrize("workload", ["train", "forecast", "filter"])
def test_untraced_run_prints_every_end_to_end_metric(workload):
    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    result = result_of(run_bench(workload, 0))
    assert set(result["metrics"]) == END_TO_END
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], float) and metric["value"] > 0


@pytest.mark.parametrize("workload", ["train", "forecast", "filter"])
def test_traced_run_prints_per_layer_metrics_that_add_up(workload):
    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    result = result_of(run_bench(workload, 1))
    assert {n: m["unit"] for n, m in result["metrics"].items()} == units

    with open(os.path.join(OUT, f"result-{workload}-seed3-trace1-toy.json")) as fh:
        details = json.load(fh)
    layers = details["layers"]
    roots = layers["bench.setup"]["total_s"] + layers["bench.round"]["total_s"]
    assert details["self_sum_s"] == pytest.approx(roots, rel=1e-9)
    assert details["self_sum_s"] == pytest.approx(details["traced_wall_s"], rel=0.10)
    for name, metric in result["metrics"].items():
        func, field = name.rsplit(".", 1)
        if field in ("calls", "self_s") and func in layers:
            assert metric["value"] == pytest.approx(layers[func][field], rel=1e-12)

    # self times recomputed from the stored spans match those kept while tracing
    with open(os.path.join(OUT, f"spans-{workload}-seed3-trace1-toy.json")) as fh:
        spans = json.load(fh)
    child = [0] * len(spans["name"])
    for sid, parent in enumerate(spans["parent"]):
        if parent >= 0:
            child[parent] += spans["end_ns"][sid] - spans["start_ns"][sid]
    self_ns = {}
    for sid, idx in enumerate(spans["name"]):
        dur = spans["end_ns"][sid] - spans["start_ns"][sid]
        self_ns[spans["names"][idx]] = self_ns.get(spans["names"][idx], 0) + dur - child[sid]
    for name, ns in self_ns.items():
        assert ns / 1e9 == pytest.approx(layers[name]["self_s"], rel=1e-9, abs=1e-9)


def test_tracer_self_time_is_span_minus_children():
    sys.path.insert(0, HERE)
    from tracer import Tracer

    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))

    def outer():
        for _ in range(3):
            inner()

    with tracer.span("root"):
        tracer.wrap("outer", outer)()
    s = tracer.summary()
    assert s["inner"]["calls"] == 3 and s["outer"]["calls"] == 1
    assert s["outer"]["self_s"] == pytest.approx(s["outer"]["total_s"] - s["inner"]["total_s"], abs=1e-9)
    assert sum(v["self_s"] for v in s.values()) == pytest.approx(s["root"]["total_s"], abs=1e-9)


def test_fails_without_the_program():
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
        done = run_bench("filter", 0, cwd=bare, script=os.path.join(bare, "perfbench", "run.py"))
    assert done.returncode != 0
    assert not done.stdout.strip()
