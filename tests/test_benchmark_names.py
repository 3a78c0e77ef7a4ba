"""The per-layer metrics of ``BENCHMARK.json`` name functions that exist.

A metric ``<module>.<function>.<stat>`` reads the traced function
``flowcast.<module>.<function>``; one whose function was renamed or deleted
reads 0 in every run and measures nothing.
"""

import importlib
import json
from pathlib import Path

# named by the benchmark but deleted from the code; a later benchmark refresh renames them
STALE = {
    "autodiff.backward",
    "autodiff.flow_step",
    "ssm.make_window_noise",
    "flow.edh_coefficients",
    "flow.flow_apply",
    "flow.flow_update_measurement",
    "forecast.filter_window",
    "forecast.rollout",
}


def _traced_names():
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    return sorted({metric["name"].rsplit(".", 1)[0] for metric in spec["per_layer"]})


def _resolves(name):
    module, function = name.split(".")
    return callable(getattr(importlib.import_module(f"flowcast.{module}"), function, None))


def test_per_layer_metrics_name_existing_functions():
    missing = [name for name in _traced_names() if name not in STALE and not _resolves(name)]
    assert not missing, f"per-layer metrics name functions that do not exist: {missing}"


def test_stale_names_are_still_stale():
    # an exempt name that resolves again, or that the benchmark dropped, leaves the list
    revived = [name for name in sorted(STALE) if _resolves(name)]
    assert not revived, f"drop these from STALE, they exist again: {revived}"
    assert STALE <= set(_traced_names()), f"drop these from STALE, no metric names them: {sorted(STALE - set(_traced_names()))}"
