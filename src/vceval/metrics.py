"""Detection scoring: matching, precision/recall/F1, PR curves, AP and mAP.

Matching is greedy one-to-one per class in descending score order; the PR
curve is anchored at (recall 0, precision 1) and integrated with all-point
interpolation. The evaluation IoU threshold is a parameter everywhere and
defaults to 0.30 at the configuration layer, not here.

Detections, match flags and curve points travel as columns
(DetectionArrays, FlagArrays, PointArrays), which also read as sequences
of Detection, DetectionFlag and PRPoint; the functions accept either form
and build an object only when one is indexed or iterated.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .boxes import Detection, DetectionArrays, GroundTruthBox, RecordArrays, boxes_to_xyxy
from . import _kernels
from .errors import EmptyClassSet, NoGroundTruth


@dataclass(frozen=True)
class MatchCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn) < 0:
            raise ValueError("counts must be >= 0")


@dataclass(frozen=True)
class DetectionFlag:
    """Outcome of matching one detection: true positive or false positive."""

    image_id: str
    index: int
    class_id: int
    score: float
    is_tp: bool


@dataclass(frozen=True)
class PRPoint:
    recall: float
    precision: float
    score_threshold: float


class FlagArrays(RecordArrays):
    """Match outcomes as columns, one entry per detection: ``image`` (an
    index into ``image_ids``, which is sorted), ``index`` (the detection's
    position in its image), ``class_id``, ``score`` and ``is_tp``. Reads as
    a sequence of DetectionFlag."""

    __slots__ = ("image", "index", "class_id", "score", "is_tp", "image_ids")

    def __init__(self, image_ids, image, index, class_id, score, is_tp):
        self.image_ids = image_ids
        self.image = image
        self.index = index
        self.class_id = class_id
        self.score = score
        self.is_tp = is_tp

    @classmethod
    def of(cls, flags: Sequence[DetectionFlag]) -> "FlagArrays":
        """``flags`` itself when it is a FlagArrays, else its columns."""
        if isinstance(flags, FlagArrays):
            return flags
        image_ids = sorted({f.image_id for f in flags})
        rank = {image_id: k for k, image_id in enumerate(image_ids)}
        return cls(
            image_ids,
            np.array([rank[f.image_id] for f in flags], dtype=np.int64),
            np.array([f.index for f in flags], dtype=np.int64),
            np.array([f.class_id for f in flags], dtype=np.int64),
            np.array([f.score for f in flags], dtype=np.float64),
            np.array([f.is_tp for f in flags], dtype=bool),
        )

    def rank_order(self) -> np.ndarray:
        """Positions in rank order: descending score, then image id, then index."""
        return np.lexsort((self.index, self.image, -self.score))

    def _record(self, i: int) -> DetectionFlag:
        return DetectionFlag(
            image_id=self.image_ids[self.image[i]],
            index=int(self.index[i]),
            class_id=int(self.class_id[i]),
            score=float(self.score[i]),
            is_tp=bool(self.is_tp[i]),
        )


class PointArrays(RecordArrays):
    """PR points as columns ``recall``, ``precision`` and
    ``score_threshold``. Reads as a sequence of PRPoint."""

    __slots__ = ("recall", "precision", "score_threshold")

    def __init__(self, recall, precision, score_threshold):
        self.recall = recall
        self.precision = precision
        self.score_threshold = score_threshold

    @classmethod
    def of(cls, points: Sequence[PRPoint]) -> "PointArrays":
        """``points`` itself when it is a PointArrays, else its columns."""
        if isinstance(points, PointArrays):
            return points
        return cls(*(
            np.array([getattr(p, name) for p in points], dtype=np.float64)
            for name in cls.__slots__
        ))

    def _record(self, i: int) -> PRPoint:
        return PRPoint(
            recall=float(self.recall[i]),
            precision=float(self.precision[i]),
            score_threshold=float(self.score_threshold[i]),
        )


@dataclass(frozen=True)
class PRCurve:
    class_id: int
    points: Sequence[PRPoint]

    def __post_init__(self):
        pts = PointArrays.of(self.points)
        thresholds = np.concatenate(([np.inf], pts.score_threshold))
        recalls = np.concatenate(([-1.0], pts.recall))
        if (thresholds[1:] > thresholds[:-1]).any() or (recalls[1:] < recalls[:-1]).any():
            raise ValueError("curve must have descending thresholds, non-decreasing recall")


def match_detections(
    dets_by_image: Mapping[str, Sequence[Detection]],
    gts_by_image: Mapping[str, Sequence[GroundTruthBox]],
    iou_threshold: float,
) -> tuple[FlagArrays, dict[int, MatchCounts]]:
    """Greedily match detections to ground truths of the same class and image.

    Detections are processed in descending score (ties by image id, then
    input index). Each one claims its best-IoU not-yet-matched ground truth
    when that IoU clears the threshold, becoming a true positive; otherwise
    it is a false positive. Ground truths left unclaimed count as false
    negatives. The per-image greedy runs are order-independent, so results
    do not depend on dictionary ordering.

    The flags come image by image (sorted ids), within an image class by
    class in order of first appearance, each class in descending score
    (ties by index). A DetectionArrays value is matched as it stands; any
    other sequence of detections is converted to one first.
    """
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError("iou_threshold must be in (0, 1]")
    image_ids = sorted(set(dets_by_image) | set(gts_by_image))
    empty = np.zeros(0, dtype=np.int64)
    # image, index, class_id, score, is_tp of the flags, image by image
    columns = [(empty, empty, empty, np.zeros(0), np.zeros(0, dtype=bool))]
    gt_classes = [empty]
    for image, image_id in enumerate(image_ids):
        gts = gts_by_image.get(image_id, ())
        gt_class = np.array([g.class_id for g in gts], dtype=np.int64)
        gt_classes.append(gt_class)
        dets = DetectionArrays.of(dets_by_image.get(image_id, ()))
        if not len(dets):
            continue
        gt_xyxy = boxes_to_xyxy([g.box for g in gts])
        is_tp = np.zeros(len(dets), dtype=bool)
        order = []
        classes, first = np.unique(dets.class_id, return_index=True)
        for class_id in classes[np.argsort(first)]:
            rows = np.flatnonzero(dets.class_id == class_id)
            rows = rows[np.argsort(-dets.score[rows], kind="stable")]
            cols = np.flatnonzero(gt_class == class_id)
            if cols.size:
                ious = _kernels.iou_matrix(dets.xyxy[rows], gt_xyxy[cols])
                is_tp[rows] = _greedy(ious, iou_threshold)
            order.append(rows)
        order = np.concatenate(order)
        columns.append((
            np.full(len(order), image, dtype=np.int64),
            order,
            dets.class_id[order],
            dets.score[order],
            is_tp[order],
        ))
    flags = FlagArrays(image_ids, *(np.concatenate(c) for c in zip(*columns)))
    gt_class = np.concatenate(gt_classes)
    classes = _distinct(np.concatenate((flags.class_id, gt_class)))
    det_pos = np.searchsorted(classes, flags.class_id)
    tp = np.bincount(det_pos[flags.is_tp], minlength=len(classes))
    dets_n = np.bincount(det_pos, minlength=len(classes))
    gts_n = np.bincount(np.searchsorted(classes, gt_class), minlength=len(classes))
    counts = {
        c: MatchCounts(tp=t, fp=n - t, fn=g - t)
        for c, t, n, g in zip(classes.tolist(), tp.tolist(), dets_n.tolist(), gts_n.tolist())
    }
    return flags, counts


def _distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values. (np.unique without index outputs imports
    numpy.ma on its first call, about 20 ms of each eval process.)"""
    values = np.sort(values)
    first = np.ones(len(values), dtype=bool)
    first[1:] = values[1:] != values[:-1]
    return values[first]


def _greedy(ious: np.ndarray, iou_threshold: float) -> np.ndarray:
    """True-positive flags of the rows of a (detections, ground truths) IoU
    matrix, rows in claiming order: each row claims the first unclaimed
    column of highest IoU when that IoU clears the threshold."""
    is_tp = np.zeros(len(ious), dtype=bool)
    # a row whose best IoU is below the threshold can claim nothing,
    # whatever earlier rows claimed; only the others are scanned in turn
    rows = np.flatnonzero(ious.max(axis=1) >= iou_threshold)
    left = ious[rows]
    for k, row in enumerate(rows.tolist()):
        col = int(left[k].argmax())
        if left[k, col] >= iou_threshold:
            is_tp[row] = True
            left[k + 1:, col] = 0.0
    return is_tp


def precision(c: MatchCounts) -> float:
    """tp/(tp+fp); an empty detection set raises no false alarms, so the
    degenerate case reports 1.0."""
    return c.tp / (c.tp + c.fp) if c.tp + c.fp else 1.0


def recall(c: MatchCounts) -> float:
    """tp/(tp+fn); with no ground truth nothing can be missed, so the
    degenerate case reports 1.0."""
    return c.tp / (c.tp + c.fn) if c.tp + c.fn else 1.0


def f1(p: float, r: float) -> float:
    return 2.0 * p * r / (p + r) if p + r else 0.0


def pr_curve(flags: Sequence[DetectionFlag], total_gt: int) -> PRCurve:
    """Cumulative precision/recall over flags of a single class.

    Flags are ordered by descending score with (image_id, index) breaking
    ties, each rank contributing one point; the boundary point
    (recall 0, precision 1, threshold 1) anchors the start.
    """
    if total_gt <= 0:
        raise NoGroundTruth("a PR curve needs at least one ground truth")
    flags = FlagArrays.of(flags)
    class_ids = _distinct(flags.class_id).tolist()
    if len(class_ids) > 1:
        raise ValueError(f"flags mix classes {class_ids}")
    class_id = class_ids[0] if class_ids else -1
    order = flags.rank_order()
    return PRCurve(class_id=class_id, points=_sweep(flags.score[order], flags.is_tp[order], total_gt))


def _sweep(score: np.ndarray, is_tp: np.ndarray, total_gt: int) -> PointArrays:
    """The anchor point, then one cumulative point per flag; the flags'
    scores and outcomes come in rank order."""
    cum_tp = np.cumsum(is_tp, dtype=np.int64)
    cum_fp = np.cumsum(~is_tp, dtype=np.int64)
    return PointArrays(
        recall=np.concatenate(([0.0], cum_tp / total_gt)),
        precision=np.concatenate(([1.0], cum_tp / (cum_tp + cum_fp))),
        score_threshold=np.concatenate(([1.0], score)),
    )


def average_precision(curve: PRCurve) -> float:
    """Area under the PR curve by all-point interpolation.

    Each recall step contributes its width times the precision envelope —
    the best precision attained at that recall or beyond — which realizes
    the sum-of-recall-steps reading of AP. The steps are summed in order.
    """
    pts = PointArrays.of(curve.points)
    if len(pts) <= 1:
        return 0.0
    envelope = np.fmax.accumulate(np.fmax(pts.precision[:0:-1], 0.0))[::-1]
    steps = np.diff(pts.recall) * envelope
    return float(np.cumsum(np.concatenate(([0.0], steps)))[-1])


def mean_average_precision(per_class: Mapping[int, float]) -> float:
    """Unweighted mean of per-class AP values."""
    if not per_class:
        raise EmptyClassSet("mAP needs at least one class")
    return sum(per_class.values()) / len(per_class)


def f1_max(curve: PRCurve) -> tuple[float, float]:
    """Best F1 over the curve's ranks and the score threshold reaching it.

    Ties go to the higher threshold, so a curve with no useful rank (or no
    ranks at all) reports (0.0, 1.0) via the anchor point.
    """
    pts = PointArrays.of(curve.points)
    p, r = pts.precision, pts.recall
    denom = p + r
    value = np.zeros_like(denom)
    np.divide(2.0 * p * r, denom, out=value, where=denom != 0.0)
    # the largest (F1, threshold) pair, starting from (0.0, 1.0)
    best = float(np.fmax.reduce(value, initial=0.0))
    floor = 1.0 if best == 0.0 else -np.inf
    return best, float(np.fmax.reduce(pts.score_threshold[value == best], initial=floor))


@dataclass(frozen=True)
class MetricReport:
    """Aggregate scoring of one run: per-class AP, their mean, the pooled
    F1-max with its threshold, and raw match counts."""

    per_class_ap: dict[int, float]
    mean_ap: float
    f1_max: float
    f1_max_threshold: float
    per_class_f1: dict[int, float]
    counts: dict[int, MatchCounts]
    curves: dict[int, PRCurve] = field(repr=False, default_factory=dict)
    iou_threshold: float = 0.30


def evaluate(
    dets_by_image: Mapping[str, Sequence[Detection]],
    gts_by_image: Mapping[str, Sequence[GroundTruthBox]],
    iou_threshold: float,
) -> MetricReport:
    """Match, build per-class PR curves, and reduce to report metrics.

    AP and mAP cover exactly the classes with at least one ground truth
    (classes that only ever appear as false positives have no defined
    recall axis). The report-level F1-max pools every class's flags into a
    single ranked sweep against the total ground-truth count.
    """
    flags, counts = match_detections(dets_by_image, gts_by_image, iou_threshold)
    order = flags.rank_order()
    score, is_tp, class_of = flags.score[order], flags.is_tp[order], flags.class_id[order]
    per_class_ap: dict[int, float] = {}
    per_class_f1: dict[int, float] = {}
    curves: dict[int, PRCurve] = {}
    total_gt = 0
    for class_id in sorted(counts):
        c = counts[class_id]
        per_class_f1[class_id] = f1(precision(c), recall(c))
        class_gt = c.tp + c.fn
        total_gt += class_gt
        if class_gt == 0:
            continue
        mine = class_of == class_id
        curve = PRCurve(class_id=class_id, points=_sweep(score[mine], is_tp[mine], class_gt))
        curves[class_id] = curve
        per_class_ap[class_id] = average_precision(curve)
    mean_ap = mean_average_precision(per_class_ap) if per_class_ap else 0.0
    if total_gt > 0:
        best_f1, best_t = f1_max(PRCurve(class_id=-1, points=_sweep(score, is_tp, total_gt)))
    else:
        best_f1, best_t = 0.0, 1.0
    return MetricReport(
        per_class_ap=per_class_ap,
        mean_ap=mean_ap,
        f1_max=best_f1,
        f1_max_threshold=best_t,
        per_class_f1=per_class_f1,
        counts=counts,
        curves=curves,
        iou_threshold=iou_threshold,
    )


def write_pr_curve_csv(curves: Mapping[int, PRCurve]) -> str:
    lines = ["class_id,score_threshold,recall,precision\n"]
    for class_id in sorted(curves):
        pts = PointArrays.of(curves[class_id].points)
        row = f"{class_id},%.6f,%.6f,%.6f\n"
        columns = (pts.score_threshold, pts.recall, pts.precision)
        lines.extend(map(row.__mod__, zip(*(c.tolist() for c in columns))))
    return "".join(lines)


def write_metric_csv(report: MetricReport, run_id: str, scale: int) -> str:
    """One CSV row per class: run_id,scale,class,ap30,map30,f1max,tp,fp,fn.

    map30 and f1max are report-level values repeated on every row; ap30 is
    blank for classes that have no ground truth.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["run_id", "scale", "class", "ap30", "map30", "f1max", "tp", "fp", "fn"]
    )
    for class_id in sorted(report.counts):
        c = report.counts[class_id]
        ap = report.per_class_ap.get(class_id)
        writer.writerow(
            [
                run_id,
                scale,
                class_id,
                "" if ap is None else f"{ap:.6f}",
                f"{report.mean_ap:.6f}",
                f"{report.f1_max:.6f}",
                c.tp,
                c.fp,
                c.fn,
            ]
        )
    return buf.getvalue()
