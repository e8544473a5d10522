"""Detection scoring: matching, precision/recall/F1, PR curves, AP and mAP.

Matching is greedy one-to-one per class in descending score order; the PR
curve is anchored at (recall 0, precision 1) and integrated with all-point
interpolation. The evaluation IoU threshold is a parameter everywhere and
defaults to 0.30 at the configuration layer, not here.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .boxes import Detection, GroundTruthBox, boxes_to_xyxy
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


@dataclass(frozen=True)
class PRCurve:
    class_id: int
    points: tuple[PRPoint, ...]

    def __post_init__(self):
        last_t, last_r = float("inf"), -1.0
        for p in self.points:
            if p.score_threshold > last_t or p.recall < last_r:
                raise ValueError("curve must have descending thresholds, non-decreasing recall")
            last_t, last_r = p.score_threshold, p.recall


def match_detections(
    dets_by_image: Mapping[str, Sequence[Detection]],
    gts_by_image: Mapping[str, Sequence[GroundTruthBox]],
    iou_threshold: float,
) -> tuple[list[DetectionFlag], dict[int, MatchCounts]]:
    """Greedily match detections to ground truths of the same class and image.

    Detections are processed in descending score (ties by image id, then
    input index). Each one claims its best-IoU not-yet-matched ground truth
    when that IoU clears the threshold, becoming a true positive; otherwise
    it is a false positive. Ground truths left unclaimed count as false
    negatives. The per-image greedy runs are order-independent, so results
    do not depend on dictionary ordering.
    """
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError("iou_threshold must be in (0, 1]")
    flags: list[DetectionFlag] = []
    tp: dict[int, int] = {}
    fp: dict[int, int] = {}
    gt_total: dict[int, int] = {}
    for image_id in sorted(set(dets_by_image) | set(gts_by_image)):
        dets = list(dets_by_image.get(image_id, ()))
        gts = list(gts_by_image.get(image_id, ()))
        for g in gts:
            gt_total[g.class_id] = gt_total.get(g.class_id, 0) + 1
        by_class: dict[int, list[int]] = {}
        for i, d in enumerate(dets):
            by_class.setdefault(d.class_id, []).append(i)
        for class_id, det_idx in by_class.items():
            gt_idx = [j for j, g in enumerate(gts) if g.class_id == class_id]
            det_idx.sort(key=lambda i: (-dets[i].score, i))
            if gt_idx:
                ious = _kernels.iou_matrix(
                    boxes_to_xyxy([dets[i].box for i in det_idx]),
                    boxes_to_xyxy([gts[j].box for j in gt_idx]),
                )
            else:
                ious = np.zeros((len(det_idx), 0))
            claimed = np.zeros(len(gt_idx), dtype=bool)
            for row, i in enumerate(det_idx):
                best, best_iou = -1, 0.0
                for col in range(len(gt_idx)):
                    if not claimed[col] and ious[row, col] > best_iou:
                        best, best_iou = col, float(ious[row, col])
                is_tp = best >= 0 and best_iou >= iou_threshold
                if is_tp:
                    claimed[best] = True
                    tp[class_id] = tp.get(class_id, 0) + 1
                else:
                    fp[class_id] = fp.get(class_id, 0) + 1
                flags.append(
                    DetectionFlag(
                        image_id=image_id,
                        index=i,
                        class_id=class_id,
                        score=dets[i].score,
                        is_tp=is_tp,
                    )
                )
    counts = {}
    for class_id in set(tp) | set(fp) | set(gt_total):
        t = tp.get(class_id, 0)
        counts[class_id] = MatchCounts(
            tp=t, fp=fp.get(class_id, 0), fn=gt_total.get(class_id, 0) - t
        )
    return flags, counts


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
    class_ids = {f.class_id for f in flags}
    if len(class_ids) > 1:
        raise ValueError(f"flags mix classes {sorted(class_ids)}")
    class_id = class_ids.pop() if class_ids else -1
    return PRCurve(class_id=class_id, points=_sweep(flags, total_gt))


def _sweep(flags: Sequence[DetectionFlag], total_gt: int) -> tuple[PRPoint, ...]:
    """The anchor point, then one cumulative point per flag in rank order
    (descending score, then image id, then index)."""
    ordered = sorted(flags, key=lambda f: (-f.score, f.image_id, f.index))
    points = [PRPoint(recall=0.0, precision=1.0, score_threshold=1.0)]
    cum_tp = cum_fp = 0
    for flag in ordered:
        cum_tp += flag.is_tp
        cum_fp += not flag.is_tp
        points.append(
            PRPoint(
                recall=cum_tp / total_gt,
                precision=cum_tp / (cum_tp + cum_fp),
                score_threshold=flag.score,
            )
        )
    return tuple(points)


def average_precision(curve: PRCurve) -> float:
    """Area under the PR curve by all-point interpolation.

    Each recall step contributes its width times the precision envelope —
    the best precision attained at that recall or beyond — which realizes
    the sum-of-recall-steps reading of AP.
    """
    pts = curve.points
    n = len(pts)
    if n <= 1:
        return 0.0
    env = [0.0] * n
    running = 0.0
    for i in range(n - 1, 0, -1):
        running = max(running, pts[i].precision)
        env[i] = running
    ap = 0.0
    for i in range(1, n):
        ap += (pts[i].recall - pts[i - 1].recall) * env[i]
    return ap


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
    best_f1, best_t = 0.0, 1.0
    for p in curve.points:
        value = f1(p.precision, p.recall)
        if value > best_f1 or (value == best_f1 and p.score_threshold > best_t):
            best_f1, best_t = value, p.score_threshold
    return best_f1, best_t


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
        class_flags = [f for f in flags if f.class_id == class_id]
        curve = pr_curve(class_flags, class_gt)
        curves[class_id] = curve
        per_class_ap[class_id] = average_precision(curve)
    mean_ap = mean_average_precision(per_class_ap) if per_class_ap else 0.0
    if total_gt > 0:
        best_f1, best_t = f1_max(PRCurve(class_id=-1, points=_sweep(flags, total_gt)))
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
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["class_id", "score_threshold", "recall", "precision"])
    for class_id in sorted(curves):
        for p in curves[class_id].points:
            writer.writerow(
                [class_id, f"{p.score_threshold:.6f}", f"{p.recall:.6f}", f"{p.precision:.6f}"]
            )
    return buf.getvalue()


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
