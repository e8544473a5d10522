"""Harness configuration: a JSON file, overridable per-flag on the CLI.

The effective configuration is echoed into every report artifact so a run
can be reproduced from its outputs alone.
"""

from __future__ import annotations

import dataclasses
import json
import numbers
import os
import sys
from dataclasses import dataclass
from typing import Optional

from .errors import ConfigError
from .netops import DEFAULT_ANCHORS
from .stats import NORMALITY_SCOPES, POSTHOC_MODES

CONFIG_ENV_VAR = "VC_EVAL_CONFIG"

# Upper bound on input_size and on tile --tile-size, in pixels: far above any
# detector input, and small enough that pixel arithmetic stays in float range.
MAX_INPUT_SIZE = 2**16


@dataclass(frozen=True)
class HarnessConfig:
    input_size: int = 416
    score_threshold: float = 0.30
    objectness_threshold: float = 0.30
    nms_iou_threshold: float = 0.45
    eval_iou_threshold: float = 0.30
    class_names: tuple[str, ...] = ("volunteer-cotton", "background-plant")
    anchors: tuple[tuple[float, float], ...] = DEFAULT_ANCHORS
    min_visibility: float = 0.3
    alpha: float = 0.05
    seed: int = 0
    normality_scope: str = "pooled"
    posthoc: str = "always"

    def __post_init__(self):
        for name, (what, ok) in _RULES.items():
            value = getattr(self, name)
            if not ok(value):
                raise ConfigError(f"{name} must be {what}, got {value!r}")
        if self.input_size <= 0 or self.input_size % 32 != 0:
            raise ConfigError(f"input_size {self.input_size} is not a positive multiple of 32")
        if self.input_size > MAX_INPUT_SIZE:
            raise ConfigError(f"input_size {self.input_size} is above the limit of {MAX_INPUT_SIZE}")
        object.__setattr__(self, "class_names", tuple(self.class_names))
        object.__setattr__(self, "anchors", tuple((float(w), float(h)) for w, h in self.anchors))

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _in(interval: str) -> tuple:
    """The rule of a real number in ``interval``: "[0, 1]", "(0, 1]" or "(0, 1)"."""
    return f"a number in {interval}", lambda v: (
        _is_real(v) and (0 <= v if interval[0] == "[" else 0 < v)
        and (v <= 1 if interval[-1] == "]" else v < 1))


def _is_names(value) -> bool:
    # a name is a row of the observation file and part of a comparison file's
    # name, so two equal names would give a run two ap30_<name> rows
    return isinstance(value, (list, tuple)) and len(value) > 0 and all(
        isinstance(n, str) and n and not any(c in n for c in "\n\r/\0") for n in value
    ) and len(set(value)) == len(value)


def _is_anchors(value) -> bool:
    try:
        sides = [side for w, h in value for side in (w, h)]
    except (TypeError, ValueError):
        return False
    return len(sides) == 18 and all(_is_real(s) and 0 < s <= sys.float_info.max for s in sides)


# The one type-and-range rule of each field, whether its value comes from a
# config file or a flag: what the value must be, and the test of it.
_RULES = {
    "input_size": ("an integer", _is_int),
    "score_threshold": _in("[0, 1]"),
    "objectness_threshold": _in("[0, 1]"),
    "nms_iou_threshold": _in("[0, 1]"),
    "eval_iou_threshold": _in("(0, 1]"),
    "class_names": ("a non-empty list of distinct non-empty one-line strings without / or NUL",
                    _is_names),
    "anchors": ("9 [w, h] pairs of finite positive numbers", _is_anchors),
    "min_visibility": _in("(0, 1]"),
    "alpha": _in("(0, 1)"),
    "seed": ("an integer", _is_int),
    "normality_scope": (f"one of {', '.join(NORMALITY_SCOPES)}", NORMALITY_SCOPES.__contains__),
    "posthoc": (f"one of {', '.join(POSTHOC_MODES)}", POSTHOC_MODES.__contains__),
}


def config_from_dict(data: dict) -> HarnessConfig:
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be a JSON object")
    unknown = set(data) - set(_RULES)
    if unknown:
        raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
    return HarnessConfig(**data)


def load_config(
    path: Optional[str] = None, overrides: Optional[dict] = None
) -> HarnessConfig:
    """Resolve the effective configuration.

    Precedence: built-in defaults < JSON file (explicit path or the
    VC_EVAL_CONFIG environment variable) < per-flag overrides. An explicit
    empty path is refused; an empty VC_EVAL_CONFIG counts as unset.
    """
    if path == "":
        raise ConfigError("config path is empty")
    data: dict = {}
    resolved = path if path is not None else os.environ.get(CONFIG_ENV_VAR)
    if resolved:
        try:
            with open(resolved, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {resolved}: {exc.strerror}") from None
        except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
            raise ConfigError(f"config file {resolved} is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError("configuration root must be a JSON object")
    overrides = {k: v for k, v in (overrides or {}).items() if v is not None}
    return config_from_dict({**data, **overrides})
