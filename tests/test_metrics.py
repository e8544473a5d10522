import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vceval import _kernels
from vceval.boxes import BoundingBox, Detection, DetectionArrays, GroundTruthBox, LabelArrays
from vceval.errors import EmptyClassSet, NoGroundTruth
from vceval.metrics import (
    DetectionFlag,
    MatchCounts,
    PRCurve,
    PRPoint,
    average_precision,
    evaluate,
    f1,
    f1_max,
    match_detections,
    mean_average_precision,
    pr_curve,
    precision,
    recall,
    write_metric_csv,
    write_pr_curve_csv,
)

from vceval.dataio import parse_detection_file, parse_label_file, write_detection_file

from oracles import _corner_iou, ap_step_ref, f1_max_ref, match_ref


def det(x, y, w, h, cid=0, score=0.9):
    return Detection(BoundingBox(x, y, w, h), cid, score)


def gt(x, y, w, h, cid=0):
    return GroundTruthBox(BoundingBox(x, y, w, h), cid)


class TestMatching:
    def test_perfect_match(self):
        flags, counts = match_detections(
            {"img": [det(0, 0, 10, 10)]}, {"img": [gt(0, 0, 10, 10)]}, 0.30
        )
        assert counts[0] == MatchCounts(tp=1, fp=0, fn=0)
        assert flags[0].is_tp

    def test_low_iou_is_fp_and_fn(self):
        flags, counts = match_detections(
            {"img": [det(0, 0, 10, 10)]}, {"img": [gt(50, 50, 10, 10)]}, 0.30
        )
        assert counts[0] == MatchCounts(tp=0, fp=1, fn=1)

    def test_class_must_agree(self):
        _, counts = match_detections(
            {"img": [det(0, 0, 10, 10, cid=1)]}, {"img": [gt(0, 0, 10, 10, cid=0)]}, 0.30
        )
        assert counts[0] == MatchCounts(tp=0, fp=0, fn=1)
        assert counts[1] == MatchCounts(tp=0, fp=1, fn=0)

    def test_image_must_agree(self):
        _, counts = match_detections(
            {"a": [det(0, 0, 10, 10)]}, {"b": [gt(0, 0, 10, 10)]}, 0.30
        )
        assert counts[0] == MatchCounts(tp=0, fp=1, fn=1)

    def test_one_to_one_claiming(self):
        # two detections over one ground truth: only the higher-scored wins
        flags, counts = match_detections(
            {"img": [det(0, 0, 10, 10, score=0.7), det(1, 1, 10, 10, score=0.9)]},
            {"img": [gt(0, 0, 10, 10)]},
            0.30,
        )
        assert counts[0] == MatchCounts(tp=1, fp=1, fn=0)
        winner = {f.index: f.is_tp for f in flags}
        assert winner[1] and not winner[0]

    def test_detection_claims_best_iou_ground_truth(self):
        # both GTs clear the threshold; the detection must take the closer one
        flags, counts = match_detections(
            {"img": [det(0, 0, 10, 10)]},
            {"img": [gt(2, 2, 10, 10), gt(1, 1, 10, 10)]},
            0.30,
        )
        assert counts[0] == MatchCounts(tp=1, fp=0, fn=1)

    def test_unclaimed_gts_are_fn(self):
        _, counts = match_detections(
            {}, {"img": [gt(0, 0, 5, 5), gt(10, 10, 5, 5)]}, 0.30
        )
        assert counts[0] == MatchCounts(tp=0, fp=0, fn=2)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            match_detections({}, {}, 0.0)
        with pytest.raises(ValueError):
            match_detections({}, {}, 1.5)

    def test_insertion_order_of_images_is_irrelevant(self):
        d = {"b": [det(0, 0, 10, 10)], "a": [det(100, 100, 4, 4)]}
        g = {"a": [gt(100, 100, 4, 4)], "b": [gt(0, 0, 10, 10)]}
        flags_fwd, _ = match_detections(d, g, 0.30)
        flags_rev, _ = match_detections(dict(reversed(d.items())), g, 0.30)
        assert flags_fwd == flags_rev

    def test_infinite_right_corner(self):
        # the first row passes BoundingBox's checks, but x_min + width, its
        # right corner, is inf; a search key built as class + 1j * x would
        # be NaN + inf j there, and the multiply would warn (the detection
        # parser refuses such a row; built columns are matched as they stand)
        dets = DetectionArrays(np.array([0.9, 0.8]), np.array([0, 0]),
                               np.array([[1e308, 0.0, 1e308, 1.0], [0.0, 0.0, 10.0, 10.0]]))
        assert dets.xyxy[0, 2] == np.inf
        flags, counts = match_detections({"img": dets}, {"img": [gt(0, 0, 10, 10)]}, 0.30)
        assert [(f.index, f.is_tp) for f in flags] == [(0, False), (1, True)]
        assert counts[0] == MatchCounts(tp=1, fp=1, fn=0)


class TestPointMetrics:
    def test_precision_recall_basic(self):
        c = MatchCounts(tp=3, fp=1, fn=2)
        assert precision(c) == 0.75
        assert recall(c) == 0.6

    def test_degenerate_cases_report_one(self):
        empty = MatchCounts()
        assert precision(empty) == 1.0
        assert recall(empty) == 1.0

    def test_f1_hand_value(self):
        assert f1(0.8, 0.6) == pytest.approx(0.685714, abs=1e-6)
        assert f1(0.0, 0.0) == 0.0


class TestPRCurve:
    def test_anchor_point_present(self):
        curve = pr_curve([], total_gt=3)
        assert curve.points == (PRPoint(0.0, 1.0, 1.0),)

    def test_cumulative_points(self):
        flags = [
            DetectionFlag("i", 0, 0, 0.9, True),
            DetectionFlag("i", 1, 0, 0.8, False),
            DetectionFlag("i", 2, 0, 0.7, True),
        ]
        curve = pr_curve(flags, total_gt=2)
        assert curve.points[1] == PRPoint(0.5, 1.0, 0.9)
        assert curve.points[2] == PRPoint(0.5, 0.5, 0.8)
        assert curve.points[3] == PRPoint(1.0, 2 / 3, 0.7)

    def test_needs_ground_truth(self):
        with pytest.raises(NoGroundTruth):
            pr_curve([], total_gt=0)

    def test_rejects_mixed_classes(self):
        flags = [
            DetectionFlag("i", 0, 0, 0.9, True),
            DetectionFlag("i", 1, 1, 0.8, False),
        ]
        with pytest.raises(ValueError):
            pr_curve(flags, total_gt=2)

    def test_curve_shape_validation(self):
        with pytest.raises(ValueError):
            PRCurve(0, (PRPoint(0.0, 1.0, 0.5), PRPoint(0.5, 1.0, 0.9)))


class TestAveragePrecision:
    def test_perfect_detector(self):
        flags = [DetectionFlag("i", k, 0, 0.9 - k * 0.1, True) for k in range(4)]
        assert average_precision(pr_curve(flags, 4)) == pytest.approx(1.0)

    def test_all_false_positives(self):
        flags = [DetectionFlag("i", k, 0, 0.9 - k * 0.1, False) for k in range(4)]
        assert average_precision(pr_curve(flags, 4)) == 0.0

    def test_worked_two_point_curve(self):
        # ranks at (R,P)=(0.5,1.0) then (1.0,0.6): area 0.5*1.0 + 0.5*0.6
        curve = PRCurve(
            0,
            (
                PRPoint(0.0, 1.0, 1.0),
                PRPoint(0.5, 1.0, 0.9),
                PRPoint(1.0, 0.6, 0.3),
            ),
        )
        assert average_precision(curve) == pytest.approx(0.8)

    def test_envelope_uses_later_better_precision(self):
        # dip then recovery: the step at the first rank must use the
        # envelope, not the local precision
        flags = [
            DetectionFlag("i", 0, 0, 0.9, True),
            DetectionFlag("i", 1, 0, 0.8, False),
            DetectionFlag("i", 2, 0, 0.7, True),
            DetectionFlag("i", 3, 0, 0.6, True),
        ]
        curve = pr_curve(flags, 3)
        # envelope at recall steps: 1.0, then 0.75 for both later steps
        assert average_precision(curve) == pytest.approx(
            (1 / 3) * 1.0 + (1 / 3) * 0.75 + (1 / 3) * 0.75
        )

    def test_matches_step_oracle_on_random_instances(self):
        rng = random.Random(2024)
        for _ in range(300):
            total_gt = rng.randint(1, 10)
            n_det = rng.randint(0, 20)
            n_tp = min(rng.randint(0, n_det), total_gt) if n_det else 0
            kinds = [True] * n_tp + [False] * (n_det - n_tp)
            rng.shuffle(kinds)
            flags = [
                DetectionFlag("i", k, 0, round(rng.random(), 2), kinds[k])
                for k in range(n_det)
            ]
            got = average_precision(pr_curve(flags, total_gt))
            want = ap_step_ref([(f.score, f.image_id, f.index, f.is_tp) for f in flags], total_gt)
            assert got == pytest.approx(want, abs=1e-9)


    def test_long_curves_sum_steps_in_order(self):
        # thousands of steps: a pairwise sum would differ in the last bits
        rng = random.Random(31)
        for _ in range(20):
            n_det = rng.randint(500, 3000)
            total_gt = rng.randint(50, 400)
            kinds = [rng.random() < 0.3 for _ in range(n_det)]
            flags = [DetectionFlag("i", k, 0, 1.0 - k / n_det, kinds[k]) for k in range(n_det)]
            got = average_precision(pr_curve(flags, total_gt))
            assert got == ap_step_ref([(f.score, f.image_id, f.index, f.is_tp) for f in flags], total_gt)

    def test_envelope_never_below_zero(self):
        # the running best precision starts at 0 and skips NaN
        curve = PRCurve(0, (PRPoint(0.0, 1.0, 1.0), PRPoint(0.5, 0.5, 0.9),
                            PRPoint(1.0, float("nan"), 0.8)))
        assert average_precision(curve) == 0.25


class TestF1Max:
    def test_worked_example(self):
        curve = PRCurve(
            0,
            (
                PRPoint(0.0, 1.0, 1.0),
                PRPoint(0.5, 1.0, 0.9),
                PRPoint(1.0, 0.6, 0.3),
            ),
        )
        best, threshold = f1_max(curve)
        assert best == pytest.approx(0.75)
        assert threshold == 0.3

    def test_tie_takes_higher_threshold(self):
        curve = PRCurve(
            0,
            (
                PRPoint(0.0, 1.0, 1.0),
                PRPoint(0.5, 0.6, 0.8),
                PRPoint(0.6, 0.5, 0.4),  # same F1 = 6/11
            ),
        )
        f_hi, t_hi = f1_max(curve)
        assert f_hi == pytest.approx(6 / 11)
        assert t_hi == 0.8

    def test_no_useful_rank_reports_threshold_one_without_anchor(self):
        curve = PRCurve(0, (PRPoint(0.0, 0.0, 0.5), PRPoint(0.0, 0.0, 0.4)))
        assert f1_max(curve) == (0.0, 1.0)

    def test_empty_curve_reports_anchor(self):
        assert f1_max(pr_curve([], total_gt=5)) == (0.0, 1.0)


class TestMeanAP:
    def test_mean(self):
        assert mean_average_precision({0: 0.5, 1: 1.0}) == 0.75

    def test_empty_rejected(self):
        with pytest.raises(EmptyClassSet):
            mean_average_precision({})


class TestEvaluate:
    def build_scene(self):
        dets = {
            "a": [det(0, 0, 10, 10, 0, 0.9), det(30, 30, 10, 10, 0, 0.8)],
            "b": [det(0, 0, 10, 10, 1, 0.7), det(50, 50, 5, 5, 1, 0.6)],
        }
        gts = {
            "a": [gt(0, 0, 10, 10, 0), gt(30, 30, 10, 10, 0)],
            "b": [gt(0, 0, 10, 10, 1), gt(80, 80, 5, 5, 1)],
        }
        return dets, gts

    def test_report_values(self):
        dets, gts = self.build_scene()
        report = evaluate(dets, gts, 0.30)
        assert report.per_class_ap[0] == pytest.approx(1.0)
        assert report.per_class_ap[1] == pytest.approx(0.5)
        assert report.mean_ap == pytest.approx(0.75)
        assert report.counts[1] == MatchCounts(tp=1, fp=1, fn=1)
        # pooled sweep: ranks TP,TP,TP,FP over 4 GT -> best F1 at rank 3
        assert report.f1_max == pytest.approx(2 * (3 / 4) * 1.0 / (3 / 4 + 1.0))
        assert report.iou_threshold == 0.30

    def test_fp_only_class_excluded_from_map(self):
        dets = {"a": [det(0, 0, 10, 10, 5, 0.9), det(0, 0, 10, 10, 0, 0.9)]}
        gts = {"a": [gt(0, 0, 10, 10, 0)]}
        report = evaluate(dets, gts, 0.30)
        assert 5 not in report.per_class_ap
        assert report.mean_ap == pytest.approx(1.0)
        assert report.per_class_f1[5] == 0.0
        assert report.counts[5] == MatchCounts(tp=0, fp=1, fn=0)

    def test_no_detections_at_all(self):
        report = evaluate({}, {"a": [gt(0, 0, 10, 10, 0)]}, 0.30)
        assert report.per_class_ap[0] == 0.0
        assert report.f1_max == 0.0
        assert report.f1_max_threshold == 1.0


class TestCsvWriters:
    def test_pr_curve_csv(self):
        curves = {0: pr_curve([DetectionFlag("i", 0, 0, 0.9, True)], 1)}
        text = write_pr_curve_csv(curves)
        lines = text.strip().split("\n")
        assert lines[0] == "class_id,score_threshold,recall,precision"
        assert lines[1] == "0,1.000000,0.000000,1.000000"
        assert lines[2] == "0,0.900000,1.000000,1.000000"

    def test_metric_csv(self):
        dets = {"a": [det(0, 0, 10, 10, 0, 0.9), det(0, 0, 10, 10, 3, 0.9)]}
        gts = {"a": [gt(0, 0, 10, 10, 0)]}
        report = evaluate(dets, gts, 0.30)
        text = write_metric_csv(report, run_id="run7", scale=416)
        lines = text.strip().split("\n")
        assert lines[0] == "run_id,scale,class,ap30,map30,f1max,tp,fp,fn"
        row0 = lines[1].split(",")
        assert row0[:4] == ["run7", "416", "0", "1.000000"]
        row3 = lines[2].split(",")
        assert row3[2] == "3" and row3[3] == ""  # FP-only class: blank AP


class TestMatchAgainstOracle:
    """The array matcher and sweep against the plain greedy loop, on scenes
    built from a small grid so that scores tie, ground truths tie on IoU,
    IoUs land exactly on the threshold and many rows overlap nothing."""

    THRESHOLDS = (0.5, 1 / 3, 0.3, 0.25, 1.0)

    @staticmethod
    def scene(rng):
        dets, gts = {}, {}
        for _ in range(rng.randint(1, 4)):
            image_id = f"img{rng.randint(0, 9)}"
            boxes = [
                (rng.randint(0, 1), rng.randint(0, 6), rng.randint(0, 6),
                 rng.choice((1, 2, 2, 4)), rng.choice((1, 2, 2, 4)))
                for _ in range(rng.randint(0, 5))
            ]
            if rng.random() < 0.8:
                gts[image_id] = boxes
            if rng.random() < 0.15:
                continue  # an image without detections
            dets[image_id] = []
            for _ in range(rng.randint(0, 8)):
                cls, score = rng.randint(0, 2), rng.choice((0.1, 0.5, 0.5, 0.9, 1.0))
                if boxes and rng.random() < 0.5:
                    # a ground-truth box shifted by a cell: IoUs of 1/3, 1/2, 3/5...
                    _, x, y, w, h = rng.choice(boxes)
                    x, y = x + rng.choice((-1, 0, 1)), y + rng.choice((-1, 0, 1))
                else:
                    x, y = rng.randint(0, 6) + rng.choice((0.0, 0.5)), rng.randint(0, 6)
                    w, h = rng.choice((1, 2, 2, 4)), rng.choice((1, 2, 2, 4))
                dets[image_id].append((cls, score, x, y, w, h))
        return dets, gts

    @staticmethod
    def objects(dets, gts):
        return (
            {i: [Detection(BoundingBox(*d[2:]), d[0], d[1]) for d in ds] for i, ds in dets.items()},
            {i: [GroundTruthBox(BoundingBox(*g[1:]), g[0]) for g in gs] for i, gs in gts.items()},
        )

    def test_flags_counts_ap_and_f1_are_identical(self):
        rng = random.Random(4242)
        at_threshold = 0
        for trial in range(800):
            dets, gts = self.scene(rng)
            thr = self.THRESHOLDS[trial % len(self.THRESHOLDS)]
            det_objs, gt_objs = self.objects(dets, gts)
            want_flags, want_counts = match_ref(dets, gts, thr)
            flags, counts = match_detections(det_objs, gt_objs, thr)
            assert [(f.image_id, f.index, f.class_id, f.score, f.is_tp) for f in flags] == want_flags
            assert {c: (m.tp, m.fp, m.fn) for c, m in counts.items()} == want_counts

            report = evaluate(det_objs, gt_objs, thr)
            total_gt = 0
            for c, (tp, fp, fn) in want_counts.items():
                total_gt += tp + fn
                if tp + fn:
                    mine = [(s, i, k, t) for i, k, cls, s, t in want_flags if cls == c]
                    assert report.per_class_ap[c] == ap_step_ref(mine, tp + fn)
                else:
                    assert c not in report.per_class_ap
            pooled = [(s, i, k, t) for i, k, _, s, t in want_flags]
            want_f1 = f1_max_ref(pooled, total_gt) if total_gt else (0.0, 1.0)
            assert (report.f1_max, report.f1_max_threshold) == want_f1
            at_threshold += any(
                _iou_is(thr, d, g) for i in dets for d in dets[i] for g in gts.get(i, ())
                if d[0] == g[0]
            )
        assert at_threshold > 50

    def test_columns_in_give_the_same_report(self):
        rng = random.Random(99)
        for _ in range(100):
            dets, gts = self.scene(rng)
            det_objs, gt_objs = self.objects(dets, gts)
            columns = {i: parse_detection_file(write_detection_file(ds))
                       for i, ds in det_objs.items()}
            # the written file rounds to 6 decimals, which the grid survives
            assert evaluate(columns, gt_objs, 0.5) == evaluate(det_objs, gt_objs, 0.5)
            labels = {i: LabelArrays.of(g) for i, g in gt_objs.items()}
            assert evaluate(det_objs, labels, 0.5) == evaluate(det_objs, gt_objs, 0.5)
            assert evaluate(columns, labels, 0.5) == evaluate(det_objs, gt_objs, 0.5)


def _iou_is(value, det, gt):
    return _corner_iou(det[2:], gt[1:]) == value


# class ids of the batched-matching scenes: small ones, and ones that no
# packed image * classes + class key could hold
_CLASSES = (0, 1, 7, 2**62 + 3, 2**63 - 1)


def multi_tile_scene(rng):
    """({tile: [(class, score, x, y, w, h)]}, {tile: [(class, x, y, w, h)]})
    of up to six tiles on a small grid, so that scores tie within and
    across tiles and IoUs tie and land on thresholds. Tiles may have no
    detections or no labels, and a class may appear only in detections or
    only in labels."""
    det_classes = rng.sample(_CLASSES, rng.randint(1, 4))
    gt_classes = rng.sample(_CLASSES, rng.randint(1, 4))
    dets, gts = {}, {}
    for t in range(rng.randint(1, 6)):
        tile = f"t{t}"
        boxes = [(rng.choice(gt_classes), rng.randint(0, 6), rng.randint(0, 6),
                  rng.choice((1, 2, 4)), rng.choice((1, 2, 4)))
                 for _ in range(rng.choice((0, 0, 1, 3, 5)))]
        gts[tile] = boxes
        dets[tile] = []
        for _ in range(rng.choice((0, 0, 2, 5, 9))):
            cls, score = rng.choice(det_classes), rng.choice((0.1, 0.5, 0.5, 0.9, 1.0))
            if boxes and rng.random() < 0.6:
                cls, x, y, w, h = rng.choice(boxes) if rng.random() < 0.7 else (cls, *rng.choice(boxes)[1:])
                x, y = x + rng.choice((-1, 0, 1)), y + rng.choice((-1, 0, 0, 1))
            else:
                x, y = rng.randint(0, 6) + rng.choice((0.0, 0.5)), rng.randint(0, 6)
                w, h = rng.choice((1, 2, 4)), rng.choice((1, 2, 4))
            dets[tile].append((cls, score, x, y, w, h))
    return dets, gts


class TestBatchedMatching:
    """match_detections matches consecutive images in batches of at most
    _kernels.BATCH_ROWS detections; the flags and counts are the per-image
    greedy loop's whatever the cap, in the order its docstring gives."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from((0.5, 1 / 3, 0.3, 1.0)))
    def test_any_cap_gives_the_per_image_reference(self, seed, thr):
        dets, gts = multi_tile_scene(random.Random(seed))
        det_objs, gt_objs = TestMatchAgainstOracle.objects(dets, gts)
        want_flags, want_counts = match_ref(dets, gts, thr)
        total = sum(map(len, dets.values()))
        for cap in (1, max(1, total // 2), _kernels.BATCH_ROWS):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(_kernels, "BATCH_ROWS", cap)
                flags, counts = match_detections(det_objs, gt_objs, thr)
            assert [(f.image_id, f.index, f.class_id, f.score, f.is_tp) for f in flags] == want_flags
            assert {c: (m.tp, m.fp, m.fn) for c, m in counts.items()} == want_counts

    def test_flag_order_is_the_documented_one(self):
        # image by image, classes by first appearance, descending score, ties by index
        dets = {"b": [det(0, 0, 2, 2, 5, 0.5), det(0, 0, 2, 2, 2**63 - 1, 0.9),
                      det(0, 0, 2, 2, 5, 0.9), det(0, 0, 2, 2, 5, 0.9)],
                "a": [det(0, 0, 2, 2, 1, 0.2)]}
        gts = {"b": [gt(0, 0, 2, 2, 2**63 - 1)], "c": [gt(0, 0, 2, 2, 3)]}
        flags, counts = match_detections(dets, gts, 0.5)
        assert [(f.image_id, f.index, f.class_id, f.is_tp) for f in flags] == [
            ("a", 0, 1, False), ("b", 2, 5, False), ("b", 3, 5, False), ("b", 0, 5, False),
            ("b", 1, 2**63 - 1, True)]
        assert counts[3] == MatchCounts(tp=0, fp=0, fn=1)
        assert counts[2**63 - 1] == MatchCounts(tp=1, fp=0, fn=0)

    def test_an_iou_tie_goes_to_the_earlier_ground_truth(self):
        # the first detection meets both ground truths at IoU 1/2; the second
        # meets only the first: it is a true positive when the tie went to
        # the second ground truth, which the greedy loop does not do
        gts = {"a": [gt(0, 0, 2, 2), gt(1, 1, 2, 2)]}
        dets = {"a": [det(0.5, 0.5, 2, 2, score=0.9), det(0, 0, 2, 2, score=0.8)]}
        assert [_corner_iou((0.5, 0.5, 2, 2), (x, y, 2, 2)) for x, y in ((0, 0), (1, 1))] == [0.5625 / 1.4375] * 2
        flags, _ = match_detections(dets, gts, 0.3)
        assert [f.is_tp for f in flags] == [True, False]
        flags, _ = match_detections({"a": dets["a"]}, {"a": gts["a"][::-1]}, 0.3)
        assert [f.is_tp for f in flags] == [True, True]

    def test_pairs_stay_within_a_batch(self, monkeypatch):
        # dense tiles: every detection meets every label of its tile
        rng = np.random.default_rng(5)
        tiles, per_tile, labels = 6, 900, 12
        dets, gts = {}, {}
        for t in range(tiles):
            xywh = np.column_stack((rng.uniform(0, 10, (per_tile, 2)), np.full((per_tile, 2), 300.0)))
            dets[f"t{t}"] = parse_detection_file("".join(
                f"0 {s:.6f} {x:.6f} {y:.6f} {w:.6f} {h:.6f}\n"
                for s, (x, y, w, h) in zip(rng.uniform(0, 1, per_tile), xywh)))
            gts[f"t{t}"] = parse_label_file("0 0.4 0.4 0.5 0.5\n" * labels, 416, 416)
        pairs = []
        real = _kernels.iou_pairs
        monkeypatch.setattr(_kernels, "iou_pairs", lambda a, b: pairs.append(len(a)) or real(a, b))
        flags, counts = match_detections(dets, gts, 0.3)
        # 2,048 rows hold two tiles of 900 detections, never the whole run
        assert sum(pairs) == tiles * per_tile * labels
        assert max(pairs) == 2 * per_tile * labels
        assert counts[0].tp == tiles * labels
