"""Run configuration: JSON schema, validation, dotted-path overrides.

The schema is declared as a nested dict of ``Field`` specs.  Validation
reports precise key paths ("train.lr must be a positive number"); unknown
keys are rejected so typos fail loudly.  ``--set a.b=value`` overrides
parse the value as a JSON literal, falling back to a raw string.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Optional

from .errors import DataError


@dataclass(frozen=True)
class Field:
    kind: type | tuple
    default: Any = None
    required: bool = False
    check: Optional[Callable[[Any], bool]] = None
    check_msg: str = ""


def _positive(x):
    return x > 0


def _non_negative(x):
    return x >= 0


def _fraction(x):
    return 0.0 < x < 1.0


def _epoch_list(x):
    return all(isinstance(m, int) and not isinstance(m, bool) and m >= 1 for m in x)


SCHEMA: dict = {
    "data": {
        "path": Field(str, default=None),
        "graph": Field(str, default=None),
        "synth": {
            "kind": Field(str, default=None, check=lambda v: v in (None, "linear_gaussian", "var_graph"), check_msg="must be 'linear_gaussian' or 'var_graph'"),
            "n_series": Field(int, default=5, check=_positive, check_msg="must be positive"),
            "state_dim": Field(int, default=None, check=_positive, check_msg="must be positive"),
            "t_steps": Field(int, default=2000, check=_positive, check_msg="must be positive"),
            "seed": Field(int, default=0),
        },
        "period": Field(int, default=None, check=_positive, check_msg="must be positive"),
        "covariates": Field(bool, default=False),
        "per_series_norm": Field(bool, default=False),
    },
    "windows": {
        "history": Field(int, default=12, check=_positive, check_msg="must be positive"),
        "horizon": Field(int, default=12, check=_non_negative, check_msg="must be non-negative"),
    },
    "split": {
        "train": Field((int, float), default=0.7, check=_fraction, check_msg="must be a fraction in (0, 1)"),
        "val": Field((int, float), default=0.1, check=_fraction, check_msg="must be a fraction in (0, 1)"),
        "test": Field((int, float), default=0.2, check=_fraction, check_msg="must be a fraction in (0, 1)"),
    },
    "model": {
        "kind": Field(str, default="gru", check=lambda v: v in ("gru", "graph_gru"), check_msg="must be 'gru' or 'graph_gru'"),
        "d_x": Field(int, default=64, check=_positive, check_msg="must be positive"),
        "layers": Field(int, default=2, check=_positive, check_msg="must be positive"),
        "d_e": Field(int, default=10, check=_positive, check_msg="must be positive"),
        "adjacency_mode": Field(str, default="mixed", check=lambda v: v in ("mixed", "fixed", "adaptive"), check_msg="must be 'mixed', 'fixed' or 'adaptive'"),
        "rho": Field((int, float), default=1.0, check=_non_negative, check_msg="must be non-negative"),
        "sigma": Field((int, float), default=0.0, check=_non_negative, check_msg="must be non-negative"),
        "init_scale": Field((int, float), default=1.0, check=_positive, check_msg="must be positive"),
        "init_seed": Field(int, default=0),
    },
    "flow": {
        "n_lambda": Field(int, default=29, check=_positive, check_msg="must be positive"),
        "ratio": Field((int, float), default=1.2, check=_positive, check_msg="must be positive"),
        "jitter": Field((int, float), default=1e-2, check=_non_negative, check_msg="must be non-negative"),
        "single_particle_prior_scale": Field((int, float), default=1.0, check=_positive, check_msg="must be positive"),
        "relinearize_every_step": Field(bool, default=False),
    },
    "train": {
        "loss": Field(str, default="mae", check=lambda v: v in ("mae", "nll"), check_msg="must be 'mae' or 'nll'"),
        "lr": Field((int, float), default=0.01, check=_positive, check_msg="must be positive"),
        "milestones": Field(list, default=[20, 30, 40, 50], check=_epoch_list, check_msg="must be a list of epochs (integers >= 1)"),
        "lr_factor": Field((int, float), default=0.1, check=_positive, check_msg="must be positive"),
        "clip_norm": Field((int, float), default=5.0, check=_non_negative, check_msg="must be non-negative"),
        "batch_size": Field(int, default=64, check=_positive, check_msg="must be positive"),
        "max_epochs": Field(int, default=100, check=_positive, check_msg="must be positive"),
        "patience": Field(int, default=10, check=_positive, check_msg="must be positive"),
        "particles_train": Field(int, default=1, check=_positive, check_msg="must be positive"),
        "particles_eval": Field(int, default=10, check=_positive, check_msg="must be positive"),
        "scheduled_sampling_tau": Field((int, float), default=2000.0, check=_non_negative, check_msg="must be non-negative"),
        "learn_rho_sigma": Field(bool, default=False),
        "seed": Field(int, default=0),
    },
    "output": {
        "dir": Field(str, default="run"),
    },
}


def _validate_level(schema: dict, values: dict, path: str) -> dict:
    out = {}
    for key, spec in schema.items():
        here = f"{path}.{key}" if path else key
        if isinstance(spec, dict):
            sub = values.get(key, {})
            if not isinstance(sub, dict):
                raise DataError(f"config key '{here}' must be an object")
            out[key] = _validate_level(spec, sub, here)
            continue
        if key not in values or values[key] is None:
            if spec.required:
                raise DataError(f"missing required config key '{here}'")
            out[key] = spec.default
            continue
        value = values[key]
        kinds = spec.kind if isinstance(spec.kind, tuple) else (spec.kind,)
        if bool not in kinds and isinstance(value, bool):
            raise DataError(f"config key '{here}' must not be a boolean")
        if not isinstance(value, kinds):
            names = "/".join(k.__name__ for k in kinds)
            raise DataError(f"config key '{here}' must be of type {names}, got {type(value).__name__}")
        if spec.check is not None and not spec.check(value):
            raise DataError(f"config key '{here}' {spec.check_msg}")
        out[key] = value
    unknown = set(values) - set(schema)
    if unknown:
        where = path or "top level"
        raise DataError(f"unknown config key '{sorted(unknown)[0]}' at {where}")
    return out


def validate_config(raw: dict) -> dict:
    """Defaults applied, types/ranges checked; raises DataError with key paths."""
    if not isinstance(raw, dict):
        raise DataError("config must be a JSON object")
    cfg = _validate_level(SCHEMA, raw, "")
    fr = cfg["split"]
    if abs(fr["train"] + fr["val"] + fr["test"] - 1.0) > 1e-9:
        raise DataError("config keys 'split.*' must sum to one")
    has_path = cfg["data"]["path"] is not None
    has_synth = cfg["data"]["synth"]["kind"] is not None
    if has_path == has_synth:
        raise DataError("exactly one of 'data.path' and 'data.synth.kind' must be set")
    return cfg


def read_json(path) -> dict:
    """A config file's raw JSON object, before overrides and validation."""
    try:
        with open(path, "r") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataError(f"config file {path} is not valid JSON: {exc}")
    except OSError as exc:
        raise DataError(f"cannot read config file {path}: {exc}")
    if not isinstance(raw, dict):
        raise DataError(f"config file {path} must hold a JSON object, not {type(raw).__name__}")
    return raw


def apply_overrides(raw: dict, overrides) -> dict:
    """Apply ``key.path=value`` strings; values parse as JSON, else raw strings."""
    for item in overrides or []:
        if "=" not in item:
            raise DataError(f"override '{item}' must look like key.path=value")
        dotted, text = item.split("=", 1)
        keys = dotted.strip().split(".")
        if not all(keys):
            raise DataError(f"override '{item}' has an empty key segment")
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        set_key(raw, keys, value)
    return raw


def set_key(raw: dict, keys, value) -> None:
    """Write ``value`` at the key path ``keys``, creating the objects on the way."""
    node = raw
    for k in keys[:-1]:
        node = node.setdefault(k, {})
        if not isinstance(node, dict):
            raise DataError(f"override '{'.'.join(keys)}' descends through a non-object")
    node[keys[-1]] = value


def dump_config(cfg: dict, path) -> None:
    """Stable, re-loadable JSON snapshot of a resolved configuration (or any JSON object)."""
    with open(path, "w") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)
        fh.write("\n")
