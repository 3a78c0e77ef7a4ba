"""Run configuration: JSON schema, validation, dotted-path overrides.

The schema is declared as a nested dict of ``Field`` specs.  Validation
reports precise key paths ("train.lr must be a positive number"); unknown
keys are rejected so typos fail loudly.  ``--set a.b=value`` overrides
parse the value as a JSON literal, falling back to a raw string.

The ``flow``, ``train`` and ``model`` sections also declare the settings of
``FlowConfig``, ``TrainConfig`` and ``init_model``: their defaults and ranges.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from typing import Any, Callable, Optional

from .errors import DataError


@dataclass(frozen=True)
class Field:
    kind: type | tuple
    default: Any = None
    check: Optional[Callable[[Any], bool]] = None
    check_msg: str = ""


def _real(check):  # a range over real numbers, which anything else fails: a string, an array, None
    return lambda x: isinstance(x, numbers.Real) and check(x)


def _epoch_list(x):
    return isinstance(x, (list, tuple)) and all(isinstance(m, numbers.Integral) and not isinstance(m, bool) and m >= 1 for m in x)


_POSITIVE = {"check": _real(lambda x: x > 0), "check_msg": "must be positive"}
_NON_NEGATIVE = {"check": _real(lambda x: x >= 0), "check_msg": "must be non-negative"}
_FRACTION = {"check": _real(lambda x: 0.0 < x < 1.0), "check_msg": "must be a fraction in (0, 1)"}


def _one_of(*choices) -> dict:
    quoted = [f"'{c}'" for c in choices]
    return {"check": lambda v: v in choices, "check_msg": f"must be {', '.join(quoted[:-1])} or {quoted[-1]}"}


SCHEMA: dict = {
    "data": {
        "path": Field(str, default=None),
        "graph": Field(str, default=None),
        "synth": {
            "kind": Field(str, default=None, **_one_of("linear_gaussian", "var_graph")),
            "n_series": Field(int, default=5, **_POSITIVE),
            "state_dim": Field(int, default=None, **_POSITIVE),
            "t_steps": Field(int, default=2000, **_POSITIVE),
            "seed": Field(int, default=0, **_NON_NEGATIVE),
        },
        "period": Field(int, default=None, **_POSITIVE),
        "covariates": Field(bool, default=False),
        "per_series_norm": Field(bool, default=False),
    },
    "windows": {
        "history": Field(int, default=12, **_POSITIVE),
        "horizon": Field(int, default=12, **_POSITIVE),
    },
    "split": {
        "train": Field((int, float), default=0.7, **_FRACTION),
        "val": Field((int, float), default=0.1, **_FRACTION),
        "test": Field((int, float), default=0.2, **_FRACTION),
    },
    "model": {
        "kind": Field(str, default="gru", **_one_of("gru", "graph_gru")),
        "d_x": Field(int, default=64, **_POSITIVE),
        "layers": Field(int, default=2, **_POSITIVE),
        "d_e": Field(int, default=10, **_POSITIVE),
        "adjacency_mode": Field(str, default="mixed", **_one_of("mixed", "fixed", "adaptive")),
        "rho": Field((int, float), default=1.0, **_NON_NEGATIVE),
        "sigma": Field((int, float), default=0.0, **_NON_NEGATIVE),
        "init_scale": Field((int, float), default=1.0, **_POSITIVE),
        "init_seed": Field(int, default=0, **_NON_NEGATIVE),
    },
    "flow": {
        "n_lambda": Field(int, default=29, **_POSITIVE),
        "ratio": Field((int, float), default=1.2, **_POSITIVE),
        "jitter": Field((int, float), default=1e-2, **_NON_NEGATIVE),
        "single_particle_prior_scale": Field((int, float), default=1.0, **_POSITIVE),
        "relinearize_every_step": Field(bool, default=False),
    },
    "train": {
        "loss": Field(str, default="nll", **_one_of("mae", "nll")),
        "lr": Field((int, float), default=0.01, **_POSITIVE),
        "milestones": Field(list, default=[20, 30, 40, 50], check=_epoch_list, check_msg="must be a list of epochs (integers >= 1)"),
        "lr_factor": Field((int, float), default=0.1, **_POSITIVE),
        "clip_norm": Field((int, float), default=5.0, **_NON_NEGATIVE),
        "batch_size": Field(int, default=64, **_POSITIVE),
        "max_epochs": Field(int, default=100, **_POSITIVE),
        "patience": Field(int, default=10, **_POSITIVE),
        "particles_train": Field(int, default=1, **_POSITIVE),
        "particles_eval": Field(int, default=10, **_POSITIVE),
        "scheduled_sampling_tau": Field((int, float), default=2000.0, **_NON_NEGATIVE),
        "learn_rho_sigma": Field(bool, default=False),
        "seed": Field(int, default=0, **_NON_NEGATIVE),
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
    if cfg["data"]["covariates"] and cfg["data"]["period"] is None:
        raise DataError("config key 'data.period' is required when covariates are enabled")
    return cfg


# the flow, train and model keys whose Python name differs: TrainConfig's particle counts and init_model's seed
PYTHON_NAMES = {"particles_train": "n_particles_train", "particles_eval": "n_particles_eval", "init_seed": "seed"}


def python_names(section: dict) -> dict:
    """A section's entries (its ``Field`` specs, or its validated values) by Python name."""
    return {PYTHON_NAMES.get(key, key): value for key, value in section.items()}


def _python_default(spec: Field):
    return tuple(spec.default) if isinstance(spec.default, list) else spec.default


def schema_defaults(section: str):
    """Class decorator, applied under ``@dataclass``: the fields named in ``SCHEMA[section]`` take their defaults from it."""

    def apply(cls):
        for name, spec in python_names(SCHEMA[section]).items():
            setattr(cls, name, _python_default(spec))
        return cls

    return apply


def check_settings(section: str, values: dict) -> None:
    """Raise a DataError naming the first of ``values`` (by Python name) outside its schema range.

    Only ranges, not JSON types: numpy numbers and tuples pass where their values do.
    """
    for name, spec in python_names(SCHEMA[section]).items():
        if name in values and spec.check is not None and not spec.check(values[name]):
            raise DataError(f"{name} {spec.check_msg}")


def resolve_settings(section: str, values: dict) -> dict:
    """``values`` by Python name over the section's defaults, checked by :func:`check_settings`."""
    fields = python_names(SCHEMA[section])
    if not values.keys() <= fields.keys():
        raise TypeError(f"unexpected {section} settings {sorted(values.keys() - fields.keys())}")
    out = {name: values.get(name, _python_default(spec)) for name, spec in fields.items()}
    check_settings(section, out)
    return out


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
