"""Probabilistic multivariate time-series forecasting with particle-flow state inference.

Each name lives in its own module (``flowcast.train.fit``,
``flowcast.forecast.predict_windows``, ...).  Importing the package loads
no numpy, so the CLI's ``--threads`` cap is set before the numeric
libraries start.
"""

__version__ = "0.1.0"
