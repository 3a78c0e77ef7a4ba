"""Time a training step and a forecast stack as the number of series N grows.

Usage, from anywhere::

    python tools/scale.py [--sizes 5 20 80 160] [--repeats 3]

For each N it builds a graph_gru model (adaptive mixing, d_x = 8, so
D = 8 N) and a ``var_graph`` series of N series, cut into windows of P = 12
history and Q = 4 target steps, then prints one row of a markdown table:

- train step: one ``train.gradients`` call on 64 windows at one particle
  (NLL, the default flow);
- forecast stack: one ``forecast.predict_windows`` call on 6 windows x 100
  particles (the default flow).

Each is the best wall time of ``--repeats`` calls and the tracemalloc peak
of one more call.  BLAS and OpenMP run one thread: the variables are set
before numpy loads.  N = 160 takes about a minute and 350 MB.
"""

import argparse
import os
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402
import tracemalloc  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from flowcast import data as data_mod  # noqa: E402
from flowcast import forecast as forecast_mod  # noqa: E402
from flowcast import ssm as ssm_mod  # noqa: E402
from flowcast import train as train_mod  # noqa: E402

HISTORY, HORIZON, TRAIN_WINDOWS, FORECAST_WINDOWS, PARTICLES = 12, 4, 64, 6, 100


def measure(call, repeats):
    """The best wall time of ``repeats`` calls, in ms, and the tracemalloc peak of one more, in MB."""
    best = min(_timed(call) for _ in range(repeats))
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return best * 1e3, peak / 1e6


def _timed(call):
    t0 = time.perf_counter()
    call()
    return time.perf_counter() - t0


def row(n, repeats):
    """The table row of N series: train-step ms and MB, forecast-stack ms and MB."""
    synth = data_mod.synth_generate("var_graph", n, TRAIN_WINDOWS + HISTORY + HORIZON, 0)
    windows = data_mod.make_windows(synth.series, HISTORY, HORIZON)
    model = ssm_mod.init_model(kind="graph_gru", n_series=n, d_x=8, adjacency_mode="adaptive", rho=0.8, sigma=0.05, init_scale=0.5, seed=0)
    cfg = train_mod.TrainConfig(loss="nll", n_particles_train=1)
    batch = train_mod.stack_batch(windows[:TRAIN_WINDOWS], model, 1, 0)
    pcfg = forecast_mod.PredictConfig(n_particles=PARTICLES)
    train = measure(lambda: train_mod.gradients(model, batch, cfg, graph=synth.graph), repeats)
    stack = measure(lambda: forecast_mod.predict_windows(model, synth.graph, windows[:FORECAST_WINDOWS], pcfg), repeats)
    return train + stack


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[5, 20, 80, 160], help="numbers of series N")
    parser.add_argument("--repeats", type=int, default=3, help="timed calls per measurement (best of)")
    args = parser.parse_args(argv)
    print("| N | train step | its peak | forecast stack | its peak |")
    print("|---|---|---|---|---|")
    for n in args.sizes:
        train_ms, train_mb, stack_ms, stack_mb = row(n, max(1, args.repeats))
        print(f"| {n} | {train_ms:.1f} ms | {train_mb:.1f} MB | {stack_ms:.1f} ms | {stack_mb:.1f} MB |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
