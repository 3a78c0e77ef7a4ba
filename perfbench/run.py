"""Benchmark of flowcast's train, forecast and filter paths.

    python3 perfbench/run.py --workload {train,forecast,filter} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src/``.
Every BLAS/OpenMP pool is pinned to one thread before numpy loads.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
Details of each run (unit timings, check results, the spans of a traced
run) go to ``.perfbench_out/`` in the checkout.
"""

import time

STARTED = time.time()  # the first phase of a set-up sample ends here

import os  # noqa: E402
import sys  # noqa: E402

if "importtime" in sys._xoptions:
    # a set-up sample: the imports reported after this line are its own
    print("perfbench: started", file=sys.stderr, flush=True)

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "NUMBA_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_SAMPLES = 12  # fresh set-up processes per untraced run


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["train", "forecast", "filter"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "toy"], default="full", help="toy: a few seconds, for the smoke test")
    parser.add_argument("--setup-only", action="store_true", help="set up once, print the times of its phases, exit")
    return parser.parse_args(argv)


def import_program():
    """Import flowcast from this checkout's ``src/``, and nothing else."""
    if not os.path.isfile(os.path.join(SRC, "flowcast", "__init__.py")):
        raise SystemExit(f"perfbench: no flowcast package under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import flowcast

    if os.path.dirname(os.path.dirname(os.path.abspath(flowcast.__file__))) != SRC:
        raise SystemExit(f"perfbench: imported flowcast from {flowcast.__file__}, not from {SRC}")
    import workloads

    return workloads


class SetupSampler:
    """Set-up times of fresh processes, spread through the timed rounds.

    Each sample is a new interpreter running this file with ``-X
    importtime --setup-only``: process start, ``import flowcast``, and the
    workload's set-up of inputs, windows and model or checkpoint.  It is
    cut into phases: start-up to the first line of this file, each module
    imported after it (its self time), the rest of the import part, and the
    set-up cut at the phase marks of ``tracer.PhaseClock``.  ``setup_s`` is
    the same statistic as the rates': every phase at its fastest over the
    samples (``workloads.FastestUnit``).  Samples are taken between units,
    whenever the rounds have run past the next sample's share of the run,
    so that no single slow spell of the host holds them all.
    """

    def __init__(self, args, seconds, fastest):
        self.args, self.seconds, self.fastest = args, seconds, fastest
        self.samples = []  # wall time of each sample
        self.spent = 0.0  # seconds spent sampling, which do not count as the rounds' time
        self.start = perf_counter()

    def rounds_time(self):
        return perf_counter() - self.start - self.spent

    def pause(self):
        if len(self.samples) < min(SETUP_SAMPLES, SETUP_SAMPLES * self.rounds_time() / self.seconds):
            self.take()

    def finish(self):
        while len(self.samples) < SETUP_SAMPLES:
            self.take()

    def take(self):
        t_in = perf_counter()
        cmd = [sys.executable, "-X", "importtime", os.path.abspath(__file__), "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--seconds", "0", "--size", self.args.size, "--setup-only"]
        # a fixed hash seed keeps the order of the imports, which set
        # iteration inside numpy and scipy decides, the same in every sample
        env = dict(os.environ, PYTHONHASHSEED="0")
        t0 = time.time()
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up process failed: {done.stderr.strip()[-500:]}")
        out = json.loads(done.stdout.strip().splitlines()[-1])
        imports = imports_between(done.stderr, "perfbench: started", "perfbench: loaded")
        import_s = sum(s for _, s in imports)
        phases = ([out["started"] - t0] + [s for _, s in imports]
                  + [out["loaded"] - out["started"] - import_s, out["setup_start"] - out["loaded"]] + out["setup_phases"])
        calls = "\n".join(name for name, _ in imports).encode() + bytes.fromhex(out["calls"])
        self.fastest.add(1, calls, np.array(phases))
        self.samples.append(out["setup_start"] + sum(out["setup_phases"]) - t0)
        self.spent += perf_counter() - t_in


def imports_between(stderr, first, last):
    """(module, self seconds) of the ``-X importtime`` lines between two marker lines."""
    lines = stderr.splitlines()
    lines = lines[lines.index(first) + 1 : lines.index(last)]
    out = []
    for line in lines:
        if line.startswith("import time:") and "|" in line and "self [us]" not in line:
            self_us, _, name = line[len("import time:"):].split("|")
            out.append((name.strip(), int(self_us) / 1e6))
    return out


def setup_only(workload, loaded):
    """Set up once under phase marks and print what ``SetupSampler`` needs."""
    from tracer import PhaseClock

    clock = PhaseClock()
    clock.install()
    setup_start, start = time.time(), perf_counter()
    workload.setup()
    end = perf_counter()
    clock.uninstall()
    calls, phases = clock.phases(start, end)
    print(json.dumps({"started": STARTED, "loaded": loaded, "setup_start": setup_start, "calls": calls.hex(), "setup_phases": phases.tolist()}))
    return 0


def run_rounds(workload, seconds, sampler=None, tracer=None, rounds=None, after_round=None):
    """Repeat whole rounds until ``seconds`` of rounds would be overrun by more than half a round."""
    durations = []
    while True:
        if tracer is not None:
            t0 = perf_counter()
            with tracer.span("bench.round"):
                workload.round()
            durations.append(perf_counter() - t0)
        else:
            t0 = sampler.rounds_time()
            workload.round(sampler.pause)
            durations.append(sampler.rounds_time() - t0)
            after_round()
        if rounds is not None:
            if len(durations) >= rounds:
                break
        elif sampler.rounds_time() + durations[-1] / 2 >= seconds:
            break
    return durations


def traced_extras(workload, args):
    """Per-layer figures measured outside the spans."""
    extras = {}
    if args.workload == "train":
        import tracemalloc

        import flowcast.train as train_mod

        batch = workload.probe_batch()
        tracemalloc.start()
        base = tracemalloc.get_traced_memory()[0]
        train_mod.gradients(workload.model, batch, workload.fit_cfg, graph=workload.graph)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        extras["train.gradients.peak_alloc_mb"] = ((peak - base) / 2**20, "MB")
    return extras


def per_layer_metrics(spec, summary, extras):
    """Every per-layer metric of BENCHMARK.json, zero where the workload does not reach it."""
    out = {}
    for m in spec["per_layer"]:
        name, unit = m["name"], m["unit"]
        if name in extras:
            out[name] = {"value": extras[name][0], "unit": unit}
            continue
        func, field = name.rsplit(".", 1)
        stats = summary.get(func, {"calls": 0, "self_s": 0.0})
        out[name] = {"value": stats["calls"] if field == "calls" else stats["self_s"], "unit": unit}
    return out


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    workloads = import_program()
    loaded = time.time()
    if args.setup_only:
        print("perfbench: loaded", file=sys.stderr, flush=True)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-toy" if args.size == "toy" else "")
    workdir = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir, args.size)
        if args.setup_only:
            return setup_only(workload, loaded)
        return measure(args, spec, workloads, workload, tag)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, spec, workloads, workload, tag):
    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace, "size": args.size}
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        t0 = perf_counter()
        with tracer.span("bench.setup"):
            workload.setup()
        # one round: the per-layer counts of a traced run repeat exactly
        rounds = run_rounds(workload, args.seconds, tracer=tracer, rounds=1)
        traced_wall = perf_counter() - t0
        tracer.uninstall()
        summary = tracer.summary()
        details.update(
            traced_wall_s=traced_wall,
            self_sum_s=sum(v["self_s"] for v in summary.values()),
            span_count=len(tracer.span_name),
            layers=summary,
        )
        extras = traced_extras(workload, args)
        tracer.write(os.path.join(OUT, f"spans-{tag}.json"))
    else:
        from tracer import PhaseClock

        workload.setup()
        clock = PhaseClock()
        rates = workloads.Rates(workload, clock)
        clock.install()
        sampler = SetupSampler(args, args.seconds, workloads.FastestUnit())
        rounds = run_rounds(workload, args.seconds, sampler=sampler, after_round=rates.fold)
        clock.uninstall()
        sampler.finish()
        _, setup_s, used = sampler.fastest.result()
        details["setup_samples_s"] = sampler.samples
        details["setup_samples_used"] = used
    details["round_s"] = rounds
    attempted = workload.ops_per_round() * len(rounds)
    failures = workload.check()
    details["failures"] = failures
    details["quality"] = getattr(workload, "quality", {})
    if args.trace:
        metrics = per_layer_metrics(spec, summary, extras)
    else:
        metrics = {"setup_s": {"value": setup_s, "unit": "s"},
                   "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"}}
        details["rate_views"] = rates.details()
        for name in workload.rate_units():
            metrics[name] = {"value": rates.value(name), "unit": "1/s"}
        for name, (value, unit) in workload.quality_metrics().items():
            metrics[name] = {"value": value, "unit": unit}
        details["names"] = workload.NAMES
        missing = {m["name"] for m in spec["end_to_end"]} ^ set(metrics)
        if missing:
            raise RuntimeError(f"printed metrics and the end-to-end metrics of BENCHMARK.json differ in {sorted(missing)}")
    result = {"correct": not failures, "attempted": attempted, "failed": attempted if failures else 0, "metrics": metrics}
    details["result"] = result
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump(details, fh, indent=1, default=lambda o: o.tolist())
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
