import json

import pytest

from vceval.config import (
    CONFIG_ENV_VAR,
    MAX_INPUT_SIZE,
    HarnessConfig,
    config_from_dict,
    load_config,
)
from vceval.errors import ConfigError
from vceval.netops import DEFAULT_ANCHORS


class TestDefaults:
    def test_default_values(self):
        cfg = HarnessConfig()
        assert cfg.input_size == 416
        assert cfg.score_threshold == 0.30
        assert cfg.objectness_threshold == 0.30
        assert cfg.nms_iou_threshold == 0.45
        assert cfg.eval_iou_threshold == 0.30
        assert cfg.anchors == DEFAULT_ANCHORS
        assert cfg.min_visibility == 0.3
        assert cfg.alpha == 0.05
        assert cfg.normality_scope == "pooled"
        assert cfg.posthoc == "always"
        assert len(cfg.class_names) == 2


class TestValidation:
    def test_input_size_multiple_of_32(self):
        with pytest.raises(ConfigError):
            HarnessConfig(input_size=300)
        with pytest.raises(ConfigError):
            HarnessConfig(input_size=0)

    def test_input_size_upper_bound(self):
        assert HarnessConfig(input_size=MAX_INPUT_SIZE).input_size == MAX_INPUT_SIZE
        # a 401-digit size would overflow float conversions when labels are scaled
        for size in (MAX_INPUT_SIZE + 32, 32 * 10**400):
            with pytest.raises(ConfigError, match=f"input_size {size} is above the limit"):
                HarnessConfig(input_size=size)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("score_threshold", 1.5),
            ("objectness_threshold", -0.1),
            ("nms_iou_threshold", 2.0),
            ("eval_iou_threshold", -1.0),
        ],
    )
    def test_threshold_ranges(self, field, value):
        with pytest.raises(ConfigError):
            HarnessConfig(**{field: value})

    def test_class_names(self):
        with pytest.raises(ConfigError):
            HarnessConfig(class_names=())
        with pytest.raises(ConfigError):
            HarnessConfig(class_names=("ok", ""))

    @pytest.mark.parametrize("name", ["ap/30", "/", "a\0b"])
    def test_class_name_that_cannot_name_a_file_is_refused(self, name):
        # eval writes ap30_<name> rows, and compare names its files after the metric
        with pytest.raises(ConfigError, match=r"^class_names must be .* without / or NUL, got"):
            HarnessConfig(class_names=("weed", name))

    def test_anchors(self):
        with pytest.raises(ConfigError):
            HarnessConfig(anchors=DEFAULT_ANCHORS[:5])
        bad = ((0.0, 13.0),) + DEFAULT_ANCHORS[1:]
        with pytest.raises(ConfigError):
            HarnessConfig(anchors=bad)

    def test_eval_iou_threshold_excludes_zero(self):
        # matching needs an IoU above zero; 0 once ended eval in a traceback
        with pytest.raises(ConfigError, match=r"eval_iou_threshold must be a number in \(0, 1\]"):
            HarnessConfig(eval_iou_threshold=0.0)
        assert HarnessConfig(eval_iou_threshold=1.0).eval_iou_threshold == 1.0

    @pytest.mark.parametrize("field, value", [
        ("input_size", 416.0), ("input_size", True), ("seed", [1]), ("seed", "7"),
        ("score_threshold", True), ("alpha", float("nan")), ("min_visibility", "0.5"),
        ("class_names", "weed"), ("class_names", ("weed", 1)), ("class_names", ("a\nb",)),
        ("anchors", ((float("inf"), 13.0),) + DEFAULT_ANCHORS[1:]),
        ("anchors", ((float("nan"), 13.0),) + DEFAULT_ANCHORS[1:]),
        ("anchors", ((True, 13.0),) + DEFAULT_ANCHORS[1:]), ("anchors", None),
        ("normality_scope", ["pooled"]), ("posthoc", None),
    ])
    def test_wrong_type_is_refused_naming_the_field(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must be "):
            HarnessConfig(**{field: value})

    def test_min_visibility_and_alpha(self):
        with pytest.raises(ConfigError):
            HarnessConfig(min_visibility=0.0)
        with pytest.raises(ConfigError):
            HarnessConfig(alpha=1.0)

    def test_enums(self):
        with pytest.raises(ConfigError):
            HarnessConfig(normality_scope="blended")
        with pytest.raises(ConfigError):
            HarnessConfig(posthoc="never")


class TestSerialization:
    def test_dict_round_trip(self):
        cfg = HarnessConfig(input_size=512, alpha=0.01)
        back = config_from_dict(cfg.to_dict())
        assert back == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"input_size": 416, "speed": "fast"})

    def test_anchor_coercion(self):
        data = {"anchors": [[10, 13]] * 9}
        cfg = config_from_dict(data)
        assert cfg.anchors[0] == (10.0, 13.0)

    def test_bad_anchor_shape(self):
        with pytest.raises(ConfigError):
            config_from_dict({"anchors": [[10]] * 9})

    def test_non_dict_root(self):
        with pytest.raises(ConfigError):
            config_from_dict([1, 2, 3])


class TestLoadConfig:
    def test_defaults_when_nothing_given(self, monkeypatch):
        monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
        assert load_config() == HarnessConfig()

    def test_file_overrides_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"input_size": 320, "alpha": 0.01}))
        cfg = load_config(str(path))
        assert cfg.input_size == 320
        assert cfg.alpha == 0.01
        assert cfg.score_threshold == 0.30  # untouched default

    def test_overrides_beat_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"input_size": 320}))
        cfg = load_config(str(path), overrides={"input_size": 512})
        assert cfg.input_size == 512

    def test_none_overrides_are_skipped(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"alpha": 0.10}))
        cfg = load_config(str(path), overrides={"alpha": None})
        assert cfg.alpha == 0.10

    def test_env_var_supplies_path(self, tmp_path, monkeypatch):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"input_size": 512}))
        monkeypatch.setenv(CONFIG_ENV_VAR, str(path))
        assert load_config().input_size == 512

    def test_explicit_path_beats_env(self, tmp_path, monkeypatch):
        env_cfg = tmp_path / "env.json"
        env_cfg.write_text(json.dumps({"input_size": 512}))
        arg_cfg = tmp_path / "arg.json"
        arg_cfg.write_text(json.dumps({"input_size": 320}))
        monkeypatch.setenv(CONFIG_ENV_VAR, str(env_cfg))
        assert load_config(str(arg_cfg)).input_size == 320

    def test_empty_path_is_refused_even_with_env(self, tmp_path, monkeypatch):
        env_cfg = tmp_path / "env.json"
        env_cfg.write_text(json.dumps({"seed": 5}))
        monkeypatch.setenv(CONFIG_ENV_VAR, str(env_cfg))
        with pytest.raises(ConfigError, match="config path is empty"):
            load_config("")

    def test_empty_env_var_counts_as_unset(self, monkeypatch):
        monkeypatch.setenv(CONFIG_ENV_VAR, "")
        assert load_config() == HarnessConfig()

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "absent.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_json_nested_too_deep(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[" * 100_000)
        with pytest.raises(ConfigError, match="is not valid JSON"):
            load_config(str(path))

    def test_config_path_that_is_a_directory(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config file"):
            load_config(str(tmp_path))

    def test_non_object_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            load_config(str(path))
