"""Axis-aligned box geometry: IoU, clipping, non-maximum suppression.

Boxes are corner + size in continuous pixel coordinates everywhere inside
the library; center-format boxes (annotation files, head decode output)
are converted at module boundaries.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass
from math import isfinite
from typing import Optional

import numpy as np

from . import _kernels


@dataclass(frozen=True)
class BoundingBox:
    """Corner + size box. Width and height are strictly positive, and
    every field, the area and the far corner (x_min + width, y_min +
    height) are finite: box_rules holds, and its first broken rule is the
    ValueError's reason."""

    x_min: float
    y_min: float
    width: float
    height: float

    def __post_init__(self):
        w, h = self.width, self.height
        # box_rules in short: with sides > 0, a finite area implies finite
        # sides, and with a finite side a finite corner a finite x_min or y_min
        if not (w > 0 and h > 0 and isfinite(w * h)
                and isfinite(self.x_min + w) and isfinite(self.y_min + h)):
            xywh = np.array([[self.x_min, self.y_min, w, h]], dtype=np.float64)
            raise ValueError(first_fault(box_rules(*xywh.T))[2])

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


class RecordArrays(Sequence):
    """A read-only sequence of records kept as parallel numpy columns.

    Code that wants arrays reads the columns; code that wants objects
    indexes or iterates, and each record is built on access by
    ``_record(i)``. ``==`` compares record by record with any sequence, as
    a list or tuple of the same records would. The first name in a
    subclass's ``__slots__`` is a column as long as the sequence.
    """

    __slots__ = ()

    def _record(self, i: int):
        raise NotImplementedError

    def __len__(self) -> int:
        return len(getattr(self, self.__slots__[0]))

    def __getitem__(self, i):
        n = len(self)
        if isinstance(i, slice):
            return [self._record(k) for k in range(*i.indices(n))]
        k = operator.index(i)
        if not -n <= k < n:
            raise IndexError(f"index {i} out of range for {n} records")
        return self._record(k % n)

    def __iter__(self):
        return map(self._record, range(len(self)))

    def __eq__(self, other):
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self)!r})"


def _corners(xywh: np.ndarray) -> np.ndarray:
    """(x_min, y_min, x_min + width, y_min + height) rows of (N, 4) xywh
    rows. BoundingBox and box_rules refuse a corner past the float range,
    so an infinite corner comes only from arrays built directly."""
    with np.errstate(over="ignore"):
        return np.concatenate((xywh[:, :2], xywh[:, :2] + xywh[:, 2:]), axis=1)


class DetectionArrays(RecordArrays):
    """Detections as columns: ``score`` (N,) float64, ``class_id`` (N,)
    int64, ``xywh`` (N, 4) float64 rows (x_min, y_min, width, height) and
    the corners ``xyxy`` (N, 4) derived from them, (x_min, y_min,
    x_min + width, y_min + height) as in BoundingBox. Reads as a sequence
    of Detection."""

    __slots__ = ("score", "class_id", "xywh", "xyxy")

    def __init__(self, score: np.ndarray, class_id: np.ndarray, xywh: np.ndarray):
        self.score = score
        self.class_id = class_id
        self.xywh = xywh
        self.xyxy = _corners(xywh)

    @classmethod
    def of(cls, dets: Sequence[Detection]) -> "DetectionArrays":
        """``dets`` itself when it is a DetectionArrays, else its columns."""
        if isinstance(dets, DetectionArrays):
            return dets
        return cls(
            np.array([d.score for d in dets], dtype=np.float64),
            np.array([d.class_id for d in dets], dtype=np.int64),
            np.array(
                [(d.box.x_min, d.box.y_min, d.box.width, d.box.height) for d in dets],
                dtype=np.float64,
            ).reshape(-1, 4),
        )

    def take(self, idx: np.ndarray) -> "DetectionArrays":
        """The rows at the integer positions ``idx``, in that order."""
        return DetectionArrays(self.score[idx], self.class_id[idx], self.xywh[idx])

    def _record(self, i: int) -> Detection:
        return Detection(
            box=BoundingBox(*self.xywh[i].tolist()),
            class_id=int(self.class_id[i]),
            score=float(self.score[i]),
        )


class LabelArrays(RecordArrays):
    """Ground truths as columns: ``class_id`` (N,) int64, ``xywh`` (N, 4)
    float64 rows (x_min, y_min, width, height) and the corners ``xyxy``
    derived from them as in DetectionArrays. Reads as a sequence of
    GroundTruthBox."""

    __slots__ = ("class_id", "xywh", "xyxy")

    def __init__(self, class_id: np.ndarray, xywh: np.ndarray):
        self.class_id = class_id
        self.xywh = xywh
        self.xyxy = _corners(xywh)

    @classmethod
    def of(cls, gts: Sequence[GroundTruthBox]) -> "LabelArrays":
        """``gts`` itself when it is a LabelArrays, else its columns."""
        if isinstance(gts, LabelArrays):
            return gts
        return cls(
            np.array([g.class_id for g in gts], dtype=np.int64),
            np.array(
                [(g.box.x_min, g.box.y_min, g.box.width, g.box.height) for g in gts],
                dtype=np.float64,
            ).reshape(-1, 4),
        )

    def _record(self, i: int) -> GroundTruthBox:
        return GroundTruthBox(
            box=BoundingBox(*self.xywh[i].tolist()), class_id=int(self.class_id[i])
        )


def box_rules(x_min, y_min, width, height, error=ValueError) -> list:
    """BoundingBox's checks over columns, as rules in BoundingBox's order:
    each field finite, then sides > 0, then the area finite, then the far
    corners x_min + width and y_min + height finite. A rule is a (bad-row
    mask, error class, reason) triple, as first_fault reads it."""
    with np.errstate(over="ignore", invalid="ignore"):
        area, x_max, y_max = width * height, x_min + width, y_min + height
    return [
        (~np.isfinite(x_min), error, "x_min must be finite"),
        (~np.isfinite(y_min), error, "y_min must be finite"),
        (~np.isfinite(width), error, "width must be finite"),
        (~np.isfinite(height), error, "height must be finite"),
        ((width <= 0.0) | (height <= 0.0), error, "width and height must be > 0"),
        (~np.isfinite(area), error, "box area must be finite"),
        (~np.isfinite(x_max), error, "x_min + width must be finite"),
        (~np.isfinite(y_max), error, "y_min + height must be finite"),
    ]


def detection_rules(score: np.ndarray, class_id: np.ndarray, xywh: np.ndarray) -> list:
    """Detection's checks over columns, as rules in Detection's order: the
    box's, then class >= 0, then score in [0, 1]."""
    return [
        *box_rules(*xywh.T),
        (class_id < 0, ValueError, "class_id must be >= 0"),
        (~((score >= 0.0) & (score <= 1.0)), ValueError,
         lambda i: f"score {float(score[i])!r} outside [0, 1]"),
    ]


def first_fault(rules) -> Optional[tuple[int, type, object]]:
    """The first row that breaks a rule, the error class of the first rule
    it breaks and that rule's reason, or None when no row breaks any.

    ``rules`` are (bad-row mask, error class, reason) triples in checking
    order; a reason is a string or a function of the row. Accepting takes
    one OR over the masks; the rule is looked for only on failure.
    """
    bad = np.logical_or.reduce([mask for mask, _, _ in rules])
    if not bad.any():
        return None
    row = int(bad.argmax())
    _, error, reason = next(rule for rule in rules if rule[0][row])
    return row, error, reason(row) if callable(reason) else reason


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection area over union area. 0 for disjoint or merely touching
    boxes (the open-intersection convention)."""
    iw = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    ih = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    return float(_kernels.iou_of(iw * ih, a.area, b.area))


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


def nms(dets: Sequence[Detection], iou_threshold: float) -> Sequence[Detection]:
    """Greedy per-class non-maximum suppression.

    Repeatedly keeps the highest-scoring remaining detection and discards
    remaining same-class detections with IoU >= iou_threshold against it.
    Ties on score are broken toward the lower original index, so the result
    is deterministic under any permutation of equal-score inputs. Output is
    ordered by descending score. Cross-class suppression never occurs.

    A DetectionArrays input gives a DetectionArrays of the kept rows; any
    other sequence gives a list of the caller's own kept objects.
    """
    if not 0.0 <= iou_threshold <= 1.0:
        raise ValueError("iou_threshold must be in [0, 1]")
    cols = DetectionArrays.of(dets)
    # primary key: descending score; secondary: original index
    order = np.lexsort((np.arange(len(cols)), -cols.score))
    keep = _kernels.nms_keep(cols.xyxy, cols.class_id, order, float(iou_threshold))
    if isinstance(dets, DetectionArrays):
        return dets.take(keep)
    return [dets[i] for i in keep]
