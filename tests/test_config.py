"""Run-configuration schema: defaults, validation messages with key paths,
dotted-path overrides, and snapshot round trips."""

import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from flowcast import cli, ssm
from flowcast import config as config_mod
from flowcast import train as train_mod
from flowcast.errors import DataError
from flowcast.flow import FlowConfig
from flowcast.train import TrainConfig

BENCH_MODEL = Path(__file__).resolve().parents[1] / "perfbench" / "model"


def _minimal(**extra):
    raw = {"data": {"synth": {"kind": "var_graph"}}}
    for dotted, value in extra.items():
        node = raw
        keys = dotted.split("__")
        for k in keys[:-1]:
            node = node.setdefault(k, {})
        node[keys[-1]] = value
    return raw


# ---------------------------------------------------------------------------
# defaults and validation
# ---------------------------------------------------------------------------


def test_defaults_fill_in():
    cfg = config_mod.validate_config(_minimal())
    assert cfg["flow"]["n_lambda"] == 29
    assert cfg["flow"]["ratio"] == 1.2
    assert cfg["train"]["lr"] == 0.01
    assert cfg["train"]["loss"] == "nll"
    assert cfg["train"]["milestones"] == [20, 30, 40, 50]
    assert cfg["model"]["d_x"] == 64
    assert cfg["windows"]["history"] == 12
    assert cfg["windows"]["horizon"] == 12
    assert cfg["split"] == {"train": 0.7, "val": 0.1, "test": 0.2}
    assert cfg["output"]["dir"] == "run"


def test_flow_section_is_the_flow_config():
    # the CLI builds FlowConfig(**cfg["flow"]), so the two must name the same keys
    assert set(config_mod.SCHEMA["flow"]) == {f.name for f in dataclasses.fields(FlowConfig)}
    assert FlowConfig(**config_mod.validate_config(_minimal())["flow"]) == FlowConfig()


def test_validation_is_idempotent():
    once = config_mod.validate_config(_minimal())
    twice = config_mod.validate_config(json.loads(json.dumps(once)))
    assert once == twice


def test_unknown_key_is_rejected_with_path():
    raw = _minimal()
    raw["train"] = {"learning_rate": 0.1}
    with pytest.raises(DataError, match="learning_rate"):
        config_mod.validate_config(raw)


def test_unknown_top_level_key():
    raw = _minimal()
    raw["trian"] = {}
    with pytest.raises(DataError, match="trian"):
        config_mod.validate_config(raw)


def test_type_error_names_key_path():
    raw = _minimal()
    raw["train"] = {"lr": "fast"}
    with pytest.raises(DataError, match=r"train\.lr"):
        config_mod.validate_config(raw)


def test_boolean_is_not_a_number():
    # bool is a subclass of int, so numeric fields must reject it explicitly
    raw = _minimal()
    raw["train"] = {"lr": True}
    with pytest.raises(DataError, match="boolean"):
        config_mod.validate_config(raw)


def test_range_check_message():
    raw = _minimal()
    raw["train"] = {"lr": -1.0}
    with pytest.raises(DataError, match=r"'train\.lr' must be positive"):
        config_mod.validate_config(raw)


def test_section_must_be_object():
    raw = _minimal()
    raw["model"] = 5
    with pytest.raises(DataError, match="must be an object"):
        config_mod.validate_config(raw)


def test_config_must_be_object():
    with pytest.raises(DataError, match="JSON object"):
        config_mod.validate_config([1, 2, 3])


def test_split_fractions_must_sum_to_one():
    raw = _minimal()
    raw["split"] = {"train": 0.5, "val": 0.1, "test": 0.2}
    with pytest.raises(DataError, match="sum to one"):
        config_mod.validate_config(raw)


def test_exactly_one_data_source_required():
    with pytest.raises(DataError, match="exactly one"):
        config_mod.validate_config({})  # neither path nor synth kind
    raw = {"data": {"path": "series.csv", "synth": {"kind": "var_graph"}}}
    with pytest.raises(DataError, match="exactly one"):
        config_mod.validate_config(raw)


def test_enum_fields_reject_unknown_values():
    raw = _minimal()
    raw["model"] = {"kind": "transformer"}
    with pytest.raises(DataError, match=r"model\.kind"):
        config_mod.validate_config(raw)
    raw = _minimal()
    raw["train"] = {"loss": "mse"}
    with pytest.raises(DataError, match=r"train\.loss"):
        config_mod.validate_config(raw)


@pytest.mark.parametrize("milestones", [["a"], [1.5], [0], [True], [2, -1]])
def test_milestones_must_be_whole_epochs(milestones):
    with pytest.raises(DataError, match=r"^config key 'train\.milestones' must be a list of epochs"):
        config_mod.validate_config(_minimal(train__milestones=milestones))
    assert config_mod.validate_config(_minimal(train__milestones=[1, 3]))["train"]["milestones"] == [1, 3]


@pytest.mark.parametrize("period", [0, -2])
def test_period_must_be_positive(period):
    with pytest.raises(DataError, match=r"^config key 'data\.period' must be positive$"):
        config_mod.validate_config(_minimal(data__period=period, data__covariates=True))
    assert config_mod.validate_config(_minimal(data__period=1))["data"]["period"] == 1


def test_covariates_need_a_period():
    with pytest.raises(DataError, match=r"^config key 'data\.period' is required when covariates are enabled$"):
        config_mod.validate_config(_minimal(data__covariates=True))
    assert config_mod.validate_config(_minimal(data__covariates=True, data__period=24))["data"]["period"] == 24


@pytest.mark.parametrize("state_dim", [0, -3])
def test_state_dim_must_be_null_or_positive(state_dim):
    with pytest.raises(DataError, match=r"^config key 'data\.synth\.state_dim' must be positive$"):
        config_mod.validate_config(_minimal(data__synth__state_dim=state_dim))
    assert config_mod.validate_config(_minimal(data__synth__state_dim=None))["data"]["synth"]["state_dim"] is None
    assert config_mod.validate_config(_minimal(data__synth__state_dim=2))["data"]["synth"]["state_dim"] == 2


def test_explicit_null_falls_back_to_default():
    raw = _minimal()
    raw["flow"] = {"jitter": None}
    cfg = config_mod.validate_config(raw)
    assert cfg["flow"]["jitter"] == 1e-2


# ---------------------------------------------------------------------------
# overrides
# ---------------------------------------------------------------------------


def test_override_sets_nested_value():
    raw = _minimal()
    config_mod.apply_overrides(raw, ["train.lr=0.5", "model.kind=graph_gru"])
    cfg = config_mod.validate_config(raw)
    assert cfg["train"]["lr"] == 0.5
    assert cfg["model"]["kind"] == "graph_gru"


def test_override_parses_json_literals():
    raw = {}
    config_mod.apply_overrides(
        raw,
        ["a.b=0.5", "a.c=true", "a.d=[1, 2]", "a.e=null", "a.f=hello", 'a.g="7"'],
    )
    assert raw["a"] == {"b": 0.5, "c": True, "d": [1, 2], "e": None, "f": "hello", "g": "7"}


def test_override_creates_missing_sections():
    raw = {}
    config_mod.apply_overrides(raw, ["data.synth.kind=var_graph"])
    assert raw == {"data": {"synth": {"kind": "var_graph"}}}


def test_override_without_equals_fails():
    with pytest.raises(DataError, match="key.path=value"):
        config_mod.apply_overrides({}, ["train.lr"])


def test_override_empty_segment_fails():
    with pytest.raises(DataError, match="empty key segment"):
        config_mod.apply_overrides({}, ["train..lr=1"])


def test_override_through_scalar_fails():
    raw = {"train": 3}
    with pytest.raises(DataError, match="non-object"):
        config_mod.apply_overrides(raw, ["train.lr=1"])


# ---------------------------------------------------------------------------
# file round trips
# ---------------------------------------------------------------------------


def test_dump_and_load_round_trip(tmp_path):
    cfg = config_mod.validate_config(_minimal())
    path = tmp_path / "config.json"
    config_mod.dump_config(cfg, path)
    again = config_mod.validate_config(config_mod.read_json(path))
    assert again == cfg


def test_dump_is_deterministic(tmp_path):
    cfg = config_mod.validate_config(_minimal())
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    config_mod.dump_config(cfg, p1)
    config_mod.dump_config(cfg, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(DataError, match="not valid JSON"):
        config_mod.read_json(path)


def test_load_rejects_missing_file(tmp_path):
    with pytest.raises(DataError, match="cannot read"):
        config_mod.read_json(tmp_path / "absent.json")


# ---------------------------------------------------------------------------
# the Python API reads the flow, train and model sections
# ---------------------------------------------------------------------------

# values of each JSON type a setting can have; the schema and the Python API must agree on every one
_PROBES = {
    int: [-1, 0, 1, 3],
    (int, float): [-1.5, -1, 0, 0.0, 1e-3, 0.5, 1, 2.5],
    str: ["gru", "graph_gru", "mixed", "fixed", "adaptive", "mae", "nll", "", "other"],
    bool: [True, False],
    list: [[], [0], [1], [3, 5], [2, -1], [1.5], [True]],
}
_SETTINGS = [(section, key) for section in ("flow", "train", "model") for key in config_mod.SCHEMA[section]]


def _python_name(key):
    return config_mod.PYTHON_NAMES.get(key, key)


def _build(section, **settings):
    """The Python object a section's settings make: a FlowConfig, a TrainConfig or an initialized model."""
    if section == "model":
        return ssm.init_model(n_series=2, **settings)
    return {"flow": FlowConfig, "train": TrainConfig}[section](**settings)


def _schema_accepts(section, key, value):
    try:
        config_mod.validate_config(_minimal(**{f"{section}__{key}": value}))
    except DataError:
        return False
    return True


@pytest.mark.parametrize("section,key", _SETTINGS)
def test_python_api_takes_the_schema_default(section, key):
    spec, name = config_mod.SCHEMA[section][key], _python_name(key)
    if section == "model":  # init_model keeps no attribute per setting: naming the default must change nothing
        default, named = _build("model"), _build("model", **{name: spec.default})
        assert default.hyper == named.hyper
        assert all(np.array_equal(default.params[k], named.params[k]) for k in named.params)
    else:
        got = getattr(_build(section), name)
        assert (list(got) if isinstance(spec.default, list) else got) == spec.default


@pytest.mark.parametrize("section,key", _SETTINGS)
def test_python_api_refuses_what_the_schema_refuses(section, key):
    spec, name = config_mod.SCHEMA[section][key], _python_name(key)
    for value in _PROBES[spec.kind]:
        if _schema_accepts(section, key, value):
            _build(section, **{name: value})
        else:
            with pytest.raises(DataError, match=re.escape(f"{name} {spec.check_msg}")):
                _build(section, **{name: value})


def test_python_api_takes_numpy_numbers_and_tuples():
    cfg = TrainConfig(batch_size=np.int64(8), lr=np.float32(0.5), milestones=(np.int32(2), 3))
    assert cfg.milestones == (2, 3) and cfg.batch_size == 8
    assert FlowConfig(n_lambda=np.int64(4)).n_lambda == 4
    assert ssm.init_model(n_series=np.int64(2), d_x=np.int64(3), seed=np.uint8(1)).state_dim == 6


def test_init_model_rejects_an_unknown_setting():
    with pytest.raises(TypeError, match=re.escape("unexpected model settings ['init_seed']")):
        ssm.init_model(n_series=1, init_seed=3)  # the file key; the keyword is seed


# ---------------------------------------------------------------------------
# the committed benchmark configs (read, never written)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["train.json", "resolved_config.json"])
def test_committed_benchmark_configs_validate(name):
    config_mod.validate_config(config_mod.read_json(BENCH_MODEL / name))


def test_committed_resolved_config_dumps_byte_for_byte(tmp_path):
    committed = BENCH_MODEL / "resolved_config.json"
    config_mod.dump_config(config_mod.validate_config(config_mod.read_json(committed)), tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == committed.read_bytes()


class _Built(Exception):
    """Raised in place of training, with the objects the train command built."""


@pytest.mark.parametrize("section,key", _SETTINGS)
def test_a_set_override_reaches_what_the_train_command_builds(section, key, tmp_path, monkeypatch):
    base = config_mod.validate_config(config_mod.read_json(BENCH_MODEL / "train.json"))[section][key]
    spec, name = config_mod.SCHEMA[section][key], _python_name(key)
    value = next(v for v in _PROBES[spec.kind] if v != base and _schema_accepts(section, key, v))
    calls = []
    init_model = ssm.init_model
    monkeypatch.setattr(ssm, "init_model", lambda **kw: calls.append(kw) or init_model(**kw))

    def fit(dataset, model, config):
        raise _Built(config)

    monkeypatch.setattr(train_mod, "fit", fit)
    argv = ["train", "--config", str(BENCH_MODEL / "train.json"), "--set", f"{section}.{key}={json.dumps(value)}", "--out", str(tmp_path)]
    with pytest.raises(_Built) as built:
        cli.main(argv)
    config = built.value.args[0]
    got = calls[0][name] if section == "model" else getattr(config.flow if section == "flow" else config, name)
    assert (list(got) if isinstance(value, list) else got) == value
