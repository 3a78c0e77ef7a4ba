"""Probabilistic multivariate time-series forecasting with particle-flow state inference."""

from .errors import (
    DataError,
    DegenerateWeightsError,
    FlowDivergedError,
    FlowSolveError,
    FlowcastError,
    NumericError,
)
from .flow import FlowConfig, GaussianBelief, edh_flow, step_schedule
from .forecast import ForecastDistribution, PredictConfig, empirical_quantile, predict
from .metrics import crps_empirical, evaluate_forecasts, point_metrics, quantile_loss
from .ssm import Graph, ModelTheta, init_model, load_checkpoint, save_checkpoint
from .train import TrainConfig, TrainData, TrainResult, fit

__version__ = "0.1.0"

__all__ = [
    "DataError",
    "DegenerateWeightsError",
    "FlowDivergedError",
    "FlowSolveError",
    "FlowcastError",
    "NumericError",
    "FlowConfig",
    "GaussianBelief",
    "edh_flow",
    "step_schedule",
    "ForecastDistribution",
    "PredictConfig",
    "empirical_quantile",
    "predict",
    "crps_empirical",
    "evaluate_forecasts",
    "point_metrics",
    "quantile_loss",
    "Graph",
    "ModelTheta",
    "init_model",
    "load_checkpoint",
    "save_checkpoint",
    "TrainConfig",
    "TrainData",
    "TrainResult",
    "fit",
    "__version__",
]
