"""Probabilistic multivariate time-series forecasting with particle-flow state inference.

The exports below load on first use (PEP 562), so ``import flowcast.cli``
does not load numpy: the CLI's ``--threads`` cap must be set before the
numeric libraries start.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("DataError", "DegenerateWeightsError", "FlowDivergedError", "FlowSolveError", "FlowcastError", "NumericError"),
    "flow": ("FlowConfig", "edh_flow", "step_schedule"),
    "forecast": ("ForecastDistribution", "PredictConfig", "predict"),
    "metrics": ("crps_empirical", "evaluate_forecasts", "point_metrics", "quantile_loss"),
    "ssm": ("Graph", "ModelTheta", "init_model", "load_checkpoint", "save_checkpoint"),
    "train": ("TrainConfig", "TrainData", "TrainResult", "fit"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value
