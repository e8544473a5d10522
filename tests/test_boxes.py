import random
import re

import numpy as np
import pytest

from vceval import _kernels
from vceval.boxes import (
    BoundingBox,
    Detection,
    DetectionArrays,
    GroundTruthBox,
    LabelArrays,
    box_rules,
    clip_to,
    detection_rules,
    first_fault,
    iou,
    nms,
)

from oracles import iou_ref, nms_ref


def random_box(rng, extent=200.0):
    x = rng.uniform(-20.0, extent)
    y = rng.uniform(-20.0, extent)
    w = rng.uniform(0.5, 80.0)
    h = rng.uniform(0.5, 80.0)
    return BoundingBox(x, y, w, h)


class TestBoundingBox:
    def test_derived_properties(self):
        box = BoundingBox(10.0, 20.0, 30.0, 40.0)
        assert box.x_max == 40.0
        assert box.y_max == 60.0
        assert box.area == 1200.0
        assert box.center == (25.0, 40.0)

    def test_translated(self):
        box = BoundingBox(10.0, 20.0, 30.0, 40.0).translated(-4.0, 6.0)
        assert (box.x_min, box.y_min) == (6.0, 26.0)
        assert (box.width, box.height) == (30.0, 40.0)

    @pytest.mark.parametrize("w,h", [(0.0, 5.0), (5.0, 0.0), (-1.0, 5.0)])
    def test_rejects_nonpositive_sides(self, w, h):
        with pytest.raises(ValueError):
            BoundingBox(0.0, 0.0, w, h)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            BoundingBox(float("nan"), 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            BoundingBox(0.0, 0.0, float("inf"), 1.0)

    def test_rejects_an_area_past_the_float_range(self):
        with pytest.raises(ValueError, match="box area must be finite"):
            BoundingBox(0.0, 0.0, 1e306, 1e306)
        assert BoundingBox(0.0, 0.0, 1e306, 100.0).area == 1e308


# rows (class_id, score, x_min, y_min, width, height) at the edges of each rule
_EDGE_ROWS = [
    (0, 0.5, 1.0, 2.0, 3.0, 4.0), (-1, 0.5, 1.0, 2.0, 3.0, 4.0), (2, 0.0, 0.0, 0.0, 1.0, 1.0),
    (2, 1.0, -5.0, -5.0, 1e-320, 5e-324), (0, -0.0, 1.0, 1.0, 1.0, 1.0),
    (0, 1.0000001, 1.0, 1.0, 1.0, 1.0), (0, float("nan"), 1.0, 1.0, 1.0, 1.0),
    (0, 0.5, float("nan"), 1.0, 1.0, 1.0), (0, 0.5, 1.0, float("-inf"), 1.0, 1.0),
    (0, 0.5, 1.0, 1.0, 0.0, 1.0), (0, 0.5, 1.0, 1.0, 1.0, -0.0), (0, 0.5, 1.0, 1.0, -2.0, -2.0),
    (0, 0.5, 1.0, 1.0, float("inf"), 0.0), (0, 0.5, 1.0, 1.0, float("nan"), 1.0),
    (0, 0.5, 1e308, 1e308, 1e308, 1e-300), (0, 0.5, 0.0, 0.0, 1e306, 100.0),
    (0, 0.5, 0.0, 0.0, 1e306, 1e306), (0, 0.5, 0.0, 0.0, 1.7e308, 1.1),
]


def _detection_error(row):
    class_id, score, *xywh = row
    try:
        Detection(BoundingBox(*xywh), class_id, score)
    except ValueError as exc:
        return str(exc)
    return None


def _first_fault(rows):
    rows = np.array(rows).reshape(-1, 6)
    # a numpy warning would fail the test (pytest's filterwarnings)
    return first_fault(detection_rules(rows[:, 1], rows[:, 0].astype(np.int64), rows[:, 2:]))


class TestDetectionRules:
    def test_first_fault_is_the_detection_error(self):
        for row in _EDGE_ROWS:
            want = _detection_error(row)
            assert _first_fault([row]) == (None if want is None else (0, ValueError, want))
        assert sum(_first_fault([row]) is None for row in _EDGE_ROWS) == 5

    def test_first_bad_row_of_many(self):
        assert _first_fault([]) is None
        assert _first_fault(_EDGE_ROWS)[:2] == (1, ValueError)
        assert _first_fault([_EDGE_ROWS[0]] * 3 + _EDGE_ROWS[-3:]) == \
            (4, ValueError, "box area must be finite")


class TestDetectionAndGroundTruth:
    def test_detection_validation(self):
        box = BoundingBox(0.0, 0.0, 1.0, 1.0)
        det = Detection(box=box, class_id=1, score=0.5)
        assert det.score == 0.5
        with pytest.raises(ValueError):
            Detection(box=box, class_id=-1, score=0.5)
        with pytest.raises(ValueError):
            Detection(box=box, class_id=0, score=1.5)
        with pytest.raises(ValueError):
            Detection(box=box, class_id=0, score=-0.1)

    def test_ground_truth_validation(self):
        box = BoundingBox(0.0, 0.0, 1.0, 1.0)
        assert GroundTruthBox(box=box, class_id=3).class_id == 3
        with pytest.raises(ValueError):
            GroundTruthBox(box=box, class_id=-2)


# boxes of finite fields near the float range, each with the first rule of
# box_rules it breaks (None: none); the second and fifth break a corner too
_FAR_BOXES = [
    ((1e308, 0.0, 1e308, 1.0), "x_min + width must be finite"),
    ((0.0, -1e308, 1.0, -1e308), "width and height must be > 0"),
    ((0.0, 1e308, 1.0, 1e308), "y_min + height must be finite"),
    ((1e308, 1e308, 1e308, 1e-300), "x_min + width must be finite"),
    ((1e308, 0.0, 1e308, 1e308), "box area must be finite"),
    ((-1e308, 0.0, 1.7e308, 1.0), None),
]


class TestNearTheFloatRange:
    @pytest.mark.parametrize("xywh, reason", _FAR_BOXES)
    def test_objects_refuse_an_overflowing_corner_in_box_rules_order(self, xywh, reason):
        fault = first_fault(box_rules(*np.array([xywh]).T))
        assert fault == (None if reason is None else (0, ValueError, reason))
        labels = LabelArrays(np.array([0]), np.array([xywh]))
        dets = DetectionArrays(np.array([0.5]), np.array([0]), np.array([xywh]))
        builds = [lambda: BoundingBox(*xywh), lambda: labels[0], lambda: dets[0]]
        if reason is None:
            for build in builds:
                build()
            return
        for build in builds:
            with pytest.raises(ValueError, match=f"^{re.escape(reason)}$"):
                build()

    def test_the_farthest_boxes_give_exact_answers(self):
        # sides and corners are sums of powers of two, so every step is exact
        b = BoundingBox(2.0**1023, 0.0, 2.0**1022, 1.0)
        c = BoundingBox(-(2.0**1023), 0.0, 1.5 * 2.0**1023, 1.0)
        assert (b.x_max, c.x_max) == (1.5 * 2.0**1023, 2.0**1022)
        assert iou(b, b) == 1.0 and iou(b, c) == 0.0
        assert clip_to(b, 1.75 * 2.0**1023, 1.0) == b
        assert clip_to(b, 2.0**1023, 1.0) is None
        assert clip_to(c, 4.0, 1.0) == BoundingBox(0.0, 0.0, 4.0, 1.0)
        dets = [Detection(b, 0, 0.9), Detection(b, 0, 0.8), Detection(c, 0, 0.7)]
        assert nms(dets, 0.45) == [dets[0], dets[2]]
        assert nms(DetectionArrays.of(dets), 0.45) == [dets[0], dets[2]]


class TestIoU:
    def test_identical_boxes(self):
        box = BoundingBox(5.0, 5.0, 10.0, 10.0)
        assert iou(box, box) == 1.0

    def test_disjoint_boxes(self):
        a = BoundingBox(0.0, 0.0, 10.0, 10.0)
        b = BoundingBox(20.0, 20.0, 5.0, 5.0)
        assert iou(a, b) == 0.0

    def test_touching_edges_count_as_disjoint(self):
        a = BoundingBox(0.0, 0.0, 10.0, 10.0)
        b = BoundingBox(10.0, 0.0, 10.0, 10.0)
        assert iou(a, b) == 0.0

    def test_half_overlap(self):
        a = BoundingBox(0.0, 0.0, 10.0, 10.0)
        b = BoundingBox(5.0, 0.0, 10.0, 10.0)
        assert iou(a, b) == pytest.approx(50.0 / 150.0)

    def test_matches_reference_on_random_pairs(self):
        rng = random.Random(101)
        for _ in range(500):
            a = random_box(rng)
            b = random_box(rng)
            want = iou_ref(
                (a.x_min, a.y_min, a.width, a.height),
                (b.x_min, b.y_min, b.width, b.height),
            )
            assert iou(a, b) == pytest.approx(want, abs=1e-12)

    def test_union_past_the_float_range(self):
        # the area is finite, the sum of two is not
        box = BoundingBox(0.0, 0.0, 1e154, 1.5e154)
        assert iou(box, box) == 1.0

    def test_symmetry(self):
        rng = random.Random(7)
        for _ in range(100):
            a = random_box(rng)
            b = random_box(rng)
            assert iou(a, b) == iou(b, a)


class TestClipTo:
    def test_inside_box_unchanged(self):
        box = BoundingBox(10.0, 10.0, 20.0, 20.0)
        clipped = clip_to(box, 100.0, 100.0)
        assert clipped == box

    def test_partial_overlap_clipped(self):
        box = BoundingBox(-5.0, 90.0, 20.0, 20.0)
        clipped = clip_to(box, 100.0, 100.0)
        assert clipped.x_min == 0.0
        assert clipped.y_min == 90.0
        assert clipped.width == 15.0
        assert clipped.height == 10.0

    def test_fully_outside_returns_none(self):
        assert clip_to(BoundingBox(200.0, 0.0, 10.0, 10.0), 100.0, 100.0) is None
        assert clip_to(BoundingBox(-50.0, -50.0, 10.0, 10.0), 100.0, 100.0) is None

    def test_touching_boundary_returns_none(self):
        # zero-width intersection is not a box
        assert clip_to(BoundingBox(100.0, 0.0, 10.0, 10.0), 100.0, 100.0) is None


class TestArrayHelpers:
    def test_iou_matrix_matches_scalar(self):
        rng = random.Random(31)
        rows = [random_box(rng) for _ in range(13)]
        cols = [random_box(rng) for _ in range(9)]
        corners = [np.array([(b.x_min, b.y_min, b.x_max, b.y_max) for b in boxes])
                   for boxes in (rows, cols)]
        mat = _kernels.iou_pairs(corners[0][:, None], corners[1][None, :])
        assert mat.shape == (13, 9)
        for i, a in enumerate(rows):
            for j, b in enumerate(cols):
                assert mat[i, j] == pytest.approx(iou(a, b), abs=1e-12)

    def test_iou_matrix_empty_sides(self):
        box = np.array([[0.0, 0.0, 1.0, 1.0]])
        none = np.zeros((0, 4))
        assert _kernels.iou_pairs(none[:, None], box[None, :]).shape == (0, 1)
        assert _kernels.iou_pairs(box[:, None], none[None, :]).shape == (1, 0)

    def test_label_arrays_read_as_ground_truths(self):
        gts = [GroundTruthBox(BoundingBox(0.0, 1.0, 2.0, 3.0), 1),
               GroundTruthBox(BoundingBox(-1.5, 0.25, 1.0, 0.5), 2**63 - 1)]
        cols = LabelArrays.of(gts)
        assert LabelArrays.of(cols) is cols
        assert cols == gts and list(cols) == gts and cols[-1] == gts[1]
        assert cols.class_id.dtype == np.int64 and cols.xywh.dtype == np.float64
        assert cols.xyxy.tolist() == [[0.0, 1.0, 2.0, 4.0], [-1.5, 0.25, -0.5, 0.75]]
        empty = LabelArrays.of([])
        assert len(empty) == 0 and empty.xyxy.shape == (0, 4)
        with pytest.raises(IndexError):
            cols[2]

    def test_detection_arrays_take(self):
        dets = DetectionArrays.of([
            Detection(BoundingBox(0.0, 1.0, 2.0, 3.0), 1, 0.5),
            Detection(BoundingBox(-1.5, 0.25, 1.0, 0.5), 0, 1.0),
            Detection(BoundingBox(4.0, 4.0, 8.0, 8.0), 2, 0.125),
        ])
        assert dets.class_id.dtype == np.int64 and dets.score.dtype == np.float64
        assert dets.xyxy.tolist() == [[0.0, 1.0, 2.0, 4.0], [-1.5, 0.25, -0.5, 0.75],
                                      [4.0, 4.0, 12.0, 12.0]]
        picked = dets.take(np.array([2, 0]))
        assert picked == [dets[2], dets[0]]
        assert picked.xyxy.tolist() == [dets.xyxy[2].tolist(), dets.xyxy[0].tolist()]
        assert len(dets.take(np.zeros(0, dtype=np.int64))) == 0


class TestNMS:
    def test_suppresses_same_class_overlap(self):
        dets = [
            Detection(BoundingBox(0.0, 0.0, 10.0, 10.0), 0, 0.9),
            Detection(BoundingBox(1.0, 1.0, 10.0, 10.0), 0, 0.8),
            Detection(BoundingBox(50.0, 50.0, 10.0, 10.0), 0, 0.7),
        ]
        kept = nms(dets, 0.45)
        assert [d.score for d in kept] == [0.9, 0.7]

    def test_classes_do_not_interact(self):
        dets = [
            Detection(BoundingBox(0.0, 0.0, 10.0, 10.0), 0, 0.9),
            Detection(BoundingBox(0.0, 0.0, 10.0, 10.0), 1, 0.8),
        ]
        assert len(nms(dets, 0.45)) == 2

    def test_union_past_the_float_range(self):
        # each area is finite, the sum of two is not; the first two boxes are
        # the same box, so one suppresses the other
        huge = [BoundingBox(-5e153, -5e153, 1e154, 1.5e154),
                BoundingBox(-5e153, -5e153, 1e154, 1.5e154),
                BoundingBox(-5e153, 1e154, 1e154, 1.5e154)]
        dets = [Detection(b, 0, s) for b, s in zip(huge, (0.9, 0.8, 0.7))]
        kept = nms(dets, 0.45)
        assert [d.score for d in kept] == [0.9, 0.7]

    def test_threshold_boundary_is_inclusive(self):
        # IoU exactly at the threshold suppresses
        a = BoundingBox(0.0, 0.0, 10.0, 10.0)
        b = BoundingBox(5.0, 0.0, 10.0, 10.0)
        thr = iou(a, b)
        dets = [Detection(a, 0, 0.9), Detection(b, 0, 0.8)]
        assert len(nms(dets, thr)) == 1
        assert len(nms(dets, thr + 1e-9)) == 2

    def test_empty_input(self):
        assert nms([], 0.5) == []
        assert nms(DetectionArrays.of([]), 0.5) == []

    def test_score_tie_keeps_earlier_detection(self):
        a = Detection(BoundingBox(0.0, 0.0, 10.0, 10.0), 0, 0.8)
        b = Detection(BoundingBox(1.0, 1.0, 10.0, 10.0), 0, 0.8)
        kept = nms([a, b], 0.3)
        assert kept == [a]

    def test_matches_quadratic_reference(self):
        rng = random.Random(71)
        for _ in range(200):
            n = rng.randint(0, 12)
            dets = []
            entries = []
            for _ in range(n):
                box = BoundingBox(
                    rng.uniform(0.0, 40.0),
                    rng.uniform(0.0, 40.0),
                    rng.uniform(2.0, 25.0),
                    rng.uniform(2.0, 25.0),
                )
                cid = rng.randint(0, 2)
                score = round(rng.uniform(0.05, 1.0), 3)
                dets.append(Detection(box, cid, score))
                entries.append((box.x_min, box.y_min, box.width, box.height, cid, score))
            thr = rng.choice([0.3, 0.45, 0.6])
            kept = nms(dets, thr)
            want = [dets[i] for i in nms_ref(entries, thr)]
            assert kept == want
            # a list keeps the caller's own objects
            assert all(k is w for k, w in zip(kept, want))
            cols = DetectionArrays.of(dets)
            kept_cols = nms(cols, thr)
            assert isinstance(kept_cols, DetectionArrays)
            assert kept_cols == want
            np.testing.assert_array_equal(
                kept_cols.xyxy, cols.xyxy[nms_ref(entries, thr)].reshape(-1, 4)
            )
