"""Exception taxonomy.

``DataError`` covers malformed inputs (CSV problems, shape mismatches,
bad configs); ``NumericError`` covers runtime numerical failures
(singular solves, diverged particles, degenerate weights).  The CLI maps
them to distinct exit codes.
"""

from __future__ import annotations


class FlowcastError(Exception):
    """Base class for all library errors."""


class DataError(FlowcastError, ValueError):
    """Malformed input data or configuration."""


class NumericError(FlowcastError, RuntimeError):
    """A numerical operation failed or produced non-finite values."""


class FlowError(NumericError):
    """A flow failure, located by ``window_id``, ``encoder_step``, the 1-based
    pseudo-time ``step`` and the ``lam`` it starts at; each is None where it
    does not apply (no window ids, no encoder, the stepless frozen replay)."""

    def __init__(self, message, window_id=None, encoder_step=None, step=None, lam=None):
        super().__init__(message)
        self.window_id, self.encoder_step, self.step, self.lam = window_id, encoder_step, step, lam


class FlowSolveError(FlowError):
    """The SPD solve inside a flow step failed."""


class FlowDivergedError(FlowError):
    """Particles, or the flow map that moves them, became non-finite."""


class DegenerateWeightsError(NumericError):
    """All particle weights vanished (every log-weight is -inf)."""
