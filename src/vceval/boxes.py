"""Axis-aligned box geometry: IoU, clipping, non-maximum suppression.

Boxes are corner + size in continuous pixel coordinates everywhere inside
the library; center-format boxes (annotation files, head decode output)
are converted at module boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import _kernels


@dataclass(frozen=True)
class BoundingBox:
    """Corner + size box. Width and height are strictly positive."""

    x_min: float
    y_min: float
    width: float
    height: float

    def __post_init__(self):
        for name in ("x_min", "y_min", "width", "height"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("width and height must be > 0")

    @property
    def x_max(self) -> float:
        return self.x_min + self.width

    @property
    def y_max(self) -> float:
        return self.y_min + self.height

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return (self.x_min + self.width / 2.0, self.y_min + self.height / 2.0)

    def translated(self, dx: float, dy: float) -> "BoundingBox":
        return BoundingBox(self.x_min + dx, self.y_min + dy, self.width, self.height)


@dataclass(frozen=True)
class Detection:
    box: BoundingBox
    class_id: int
    score: float

    def __post_init__(self):
        if self.class_id < 0:
            raise ValueError("class_id must be >= 0")
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score {self.score!r} outside [0, 1]")


@dataclass(frozen=True)
class GroundTruthBox:
    box: BoundingBox
    class_id: int

    def __post_init__(self):
        if self.class_id < 0:
            raise ValueError("class_id must be >= 0")


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection area over union area. 0 for disjoint or merely touching
    boxes (the open-intersection convention)."""
    iw = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    ih = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    return inter / (a.area + b.area - inter)


def clip_to(box: BoundingBox, extent_w: float, extent_h: float) -> Optional[BoundingBox]:
    """Intersect with [0, extent_w] x [0, extent_h].

    Returns None when the intersection is empty or degenerate.
    """
    if extent_w <= 0 or extent_h <= 0:
        raise ValueError("extents must be positive")
    x1 = max(box.x_min, 0.0)
    y1 = max(box.y_min, 0.0)
    x2 = min(box.x_max, extent_w)
    y2 = min(box.y_max, extent_h)
    if x2 - x1 <= 0.0 or y2 - y1 <= 0.0:
        return None
    return BoundingBox(x1, y1, x2 - x1, y2 - y1)


def boxes_to_xyxy(boxes: Sequence[BoundingBox]) -> np.ndarray:
    """(N, 4) float64 corner array for the kernels."""
    out = np.empty((len(boxes), 4), dtype=np.float64)
    for i, b in enumerate(boxes):
        out[i, 0] = b.x_min
        out[i, 1] = b.y_min
        out[i, 2] = b.x_max
        out[i, 3] = b.y_max
    return out


def iou_matrix(a: Sequence[BoundingBox], b: Sequence[BoundingBox]) -> np.ndarray:
    """Pairwise IoU of two box sequences, shape (len(a), len(b))."""
    return _kernels.iou_matrix(boxes_to_xyxy(a), boxes_to_xyxy(b))


def nms(dets: Sequence[Detection], iou_threshold: float) -> list[Detection]:
    """Greedy per-class non-maximum suppression.

    Repeatedly keeps the highest-scoring remaining detection and discards
    remaining same-class detections with IoU >= iou_threshold against it.
    Ties on score are broken toward the lower original index, so the result
    is deterministic under any permutation of equal-score inputs. Output is
    ordered by descending score. Cross-class suppression never occurs.
    """
    if not 0.0 <= iou_threshold <= 1.0:
        raise ValueError("iou_threshold must be in [0, 1]")
    if not dets:
        return []
    xyxy = boxes_to_xyxy([d.box for d in dets])
    scores = np.array([d.score for d in dets], dtype=np.float64)
    classes = np.array([d.class_id for d in dets], dtype=np.int64)
    # primary key: descending score; secondary: original index
    order = np.lexsort((np.arange(len(dets)), -scores)).astype(np.int64)
    keep = _kernels.nms_keep(xyxy, classes, order, float(iou_threshold))
    return [dets[i] for i in keep]
