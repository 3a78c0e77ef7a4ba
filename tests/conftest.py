import os

import numpy as np
import pytest

from flowcast import flow as flow_mod
from flowcast import ssm as ssm_mod
from flowcast import train as train_mod
from flowcast.errors import FlowDivergedError, FlowSolveError

# pytest puts src/ on its own sys.path (pyproject's `pythonpath`); the tests
# that run `python -m flowcast` in a subprocess need it on the child's path too
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


def pytest_runtest_logreport(report):
    # the acceptance tests each print one PASS/FAIL line with the measured
    # value next to its bound; echo those even when capture is on so a plain
    # `pytest -v` log still records the numbers
    if report.when == "call" and "test_acceptance" in report.nodeid:
        for line in report.capstdout.splitlines():
            if line.startswith(("PASS ", "FAIL ")):
                print(f"\n{line}", end="")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_gru_model():
    """1-series, 2-dim GRU model with mild weights and noise."""
    model = ssm_mod.init_model(
        kind="gru", n_series=1, d_x=2, layers=1, d_z=0, rho=0.8, sigma=0.05, init_scale=0.5, seed=3
    )
    return model


@pytest.fixture
def small_graph_model():
    model = ssm_mod.init_model(
        kind="graph_gru", n_series=3, d_x=2, layers=1, d_z=0, rho=0.8, sigma=0.05, init_scale=0.5, seed=4
    )
    graph = ssm_mod.Graph.from_weights(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 2.0], [1.0, 0.0, 0.0]]))
    return model, graph


@pytest.fixture
def fast_flow():
    return flow_mod.FlowConfig(n_lambda=8)


@pytest.fixture
def second_validation_diverges(monkeypatch):
    """Make the second ``train.evaluate_loss`` call (epoch 2's validation pass) raise a flow failure."""
    evaluate_loss, calls = train_mod.evaluate_loss, []

    def failing_on_second_call(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise FlowDivergedError("particles became non-finite", window_id=0)
        return evaluate_loss(*args, **kwargs)

    # fit calls evaluate_loss through the module global
    monkeypatch.setattr(train_mod, "evaluate_loss", failing_on_second_call)


@pytest.fixture
def training_step_fails(monkeypatch):
    """Make every ``train.gradients`` call raise the error a singular first flow solve in window 4 raises."""

    def failing(*args, **kwargs):
        message = "innovation covariance of window 4 is not positive definite at the closed-form flow (lambda=0) of encoder step 1: noise variance of series 0 is 0"
        raise FlowSolveError(message, 4, 1, 1, 0.0)

    # fit calls gradients through the module global
    monkeypatch.setattr(train_mod, "gradients", failing)
