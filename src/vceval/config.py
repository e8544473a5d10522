"""Harness configuration: a JSON file, overridable per-flag on the CLI.

The effective configuration is echoed into every report artifact so a run
can be reproduced from its outputs alone.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import ConfigError
from .netops import DEFAULT_ANCHORS

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
        if self.input_size <= 0 or self.input_size % 32 != 0:
            raise ConfigError(f"input_size {self.input_size} is not a positive multiple of 32")
        if self.input_size > MAX_INPUT_SIZE:
            raise ConfigError(f"input_size {self.input_size} is above the limit of {MAX_INPUT_SIZE}")
        for name in ("score_threshold", "objectness_threshold",
                     "nms_iou_threshold", "eval_iou_threshold"):
            v = getattr(self, name)
            if not isinstance(v, (int, float)) or not 0.0 <= float(v) <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {v!r}")
        if not self.class_names:
            raise ConfigError("class_names must be non-empty")
        if any(not n for n in self.class_names):
            raise ConfigError("class names must be non-empty strings")
        if len(self.anchors) != 9:
            raise ConfigError(f"expected 9 anchor pairs, got {len(self.anchors)}")
        anchors = tuple((float(w), float(h)) for w, h in self.anchors)
        if any(w <= 0 or h <= 0 for w, h in anchors):
            raise ConfigError("anchor sides must be positive")
        if not 0.0 < self.min_visibility <= 1.0:
            raise ConfigError(f"min_visibility must be in (0, 1], got {self.min_visibility}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.normality_scope not in ("pooled", "per-group"):
            raise ConfigError(f"normality_scope must be pooled or per-group, got {self.normality_scope!r}")
        if self.posthoc not in ("always", "on-significant"):
            raise ConfigError(f"posthoc must be always or on-significant, got {self.posthoc!r}")
        object.__setattr__(self, "class_names", tuple(self.class_names))
        object.__setattr__(self, "anchors", anchors)

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["class_names"] = list(self.class_names)
        d["anchors"] = [list(a) for a in self.anchors]
        return d


_FIELD_NAMES = {f.name for f in dataclasses.fields(HarnessConfig)}


def config_from_dict(data: dict) -> HarnessConfig:
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be a JSON object")
    unknown = set(data) - _FIELD_NAMES
    if unknown:
        raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
    kwargs = dict(data)
    if "class_names" in kwargs:
        if not isinstance(kwargs["class_names"], (list, tuple)):
            raise ConfigError("class_names must be a list")
        kwargs["class_names"] = tuple(str(n) for n in kwargs["class_names"])
    if "anchors" in kwargs:
        try:
            kwargs["anchors"] = tuple(
                (float(pair[0]), float(pair[1])) for pair in kwargs["anchors"]
            )
        except (TypeError, ValueError, IndexError):
            raise ConfigError("anchors must be a list of [w, h] pairs") from None
    try:
        return HarnessConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None


def load_config(
    path: Optional[str] = None, overrides: Optional[dict] = None
) -> HarnessConfig:
    """Resolve the effective configuration.

    Precedence: built-in defaults < JSON file (explicit path or the
    VC_EVAL_CONFIG environment variable) < per-flag overrides.
    """
    data: dict = {}
    resolved = path or os.environ.get(CONFIG_ENV_VAR)
    if resolved:
        try:
            with open(resolved, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {resolved}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {resolved} is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError("configuration root must be a JSON object")
    merged = dict(data)
    for key, value in (overrides or {}).items():
        if value is not None:
            merged[key] = value
    return config_from_dict(merged)
