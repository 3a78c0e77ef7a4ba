"""Run-configuration schema: defaults, validation messages with key paths,
dotted-path overrides, and snapshot round trips."""

import json

import pytest

from flowcast import config as config_mod
from flowcast.errors import DataError


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
    assert cfg["train"]["loss"] == "mae"
    assert cfg["train"]["milestones"] == [20, 30, 40, 50]
    assert cfg["model"]["d_x"] == 64
    assert cfg["windows"]["history"] == 12
    assert cfg["windows"]["horizon"] == 12
    assert cfg["split"] == {"train": 0.7, "val": 0.1, "test": 0.2}
    assert cfg["output"]["dir"] == "run"


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
