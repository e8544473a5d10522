"""The numpy kernels against the brute-force oracles in tests/oracles.py.

Box coordinates are small integers, so every IoU is computed from exact
areas and intersections and the kernel must agree with the oracle bit for
bit: same IoU values, same keep lists in the same order.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from oracles import decode_ref, iou_ref, nms_ref
from vceval import _kernels
from vceval.errors import DegenerateBox
from vceval.netops import DEFAULT_ANCHORS, AnchorBox, RawHeadTensor, decode_head, decode_heads


def random_xywh(rng, n, extent):
    """Integer boxes on a small grid, so coordinates and whole boxes tie."""
    xy = rng.integers(0, extent, size=(n, 2)).astype(np.float64)
    wh = rng.integers(1, max(2, extent // 2), size=(n, 2)).astype(np.float64)
    return np.concatenate([xy, wh], axis=1)


def to_xyxy(xywh):
    return np.concatenate([xywh[:, :2], xywh[:, :2] + xywh[:, 2:]], axis=1).reshape(-1, 4)


def scan_order(scores):
    return np.lexsort((np.arange(len(scores)), -np.asarray(scores)))


def head_tensor(raw):
    """A (A, 5+K, H, W) head as the (C, H, W) RawHeadTensor decode_head reads."""
    a, c, h, w = raw.shape
    return RawHeadTensor(raw.reshape(a * c, h, w))


def decode_one(raw, anchors, stride, score_threshold, objectness_threshold):
    """decode_head of a (A, 5+K, H, W) head: (boxes, scores, class_ids)."""
    dets = decode_head(head_tensor(raw), [AnchorBox(*a) for a in anchors], stride,
                       score_threshold, objectness_threshold)
    return dets.xywh, dets.score, dets.class_id


def gate_and_decode(raw, anchors, stride, score_threshold, objectness_threshold):
    """One head through the two decode kernels, without the box rules:
    gate_cells at the logit gate of both thresholds, then decode_cells.
    Returns (boxes, scores, class_ids)."""
    gate = _kernels.logit_gate(max(score_threshold, objectness_threshold), raw.dtype)
    cells, ai, yi, xi = _kernels.gate_cells(raw, gate)
    boxes, scores, classes, _ = _kernels.decode_cells(
        cells, anchors[ai], np.full(ai.shape, stride), xi, yi,
        score_threshold, objectness_threshold)
    return boxes, scores, classes


def test_iou_matrix_matches_oracle():
    rng = np.random.default_rng(11)
    for _ in range(60):
        a = random_xywh(rng, int(rng.integers(0, 25)), 40)
        b = random_xywh(rng, int(rng.integers(0, 25)), 40)
        got = _kernels.iou_pairs(to_xyxy(a)[:, None], to_xyxy(b)[None, :])
        want = np.array([[iou_ref(p, q) for q in b] for p in a]).reshape(len(a), len(b))
        assert got.shape == want.shape
        np.testing.assert_array_equal(got, want)


def test_iou_matrix_union_past_the_float_range():
    # each area is finite, the sum of two is not
    box = np.array([[0.0, 0.0, 1e154, 1.5e154]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _kernels.iou_pairs(box[:, None], box[None, :]).tolist() == [[1.0]]


@pytest.mark.parametrize("chunk", [None, 1, 7])
@pytest.mark.parametrize("threshold", [0.0, 0.45, 1.0])
@pytest.mark.parametrize("num_classes", [1, 3])
def test_nms_keep_matches_oracle(monkeypatch, chunk, threshold, num_classes):
    # chunk: a tiny pair budget drives the suppressor sweep through many
    # rounds, which must not change the result
    if chunk is not None:
        monkeypatch.setattr(_kernels, "_PAIR_CHUNK", chunk)
    rng = np.random.default_rng(23 + num_classes)
    for trial in range(80):
        n = int(rng.integers(0, 40))
        extent = (8, 30, 200)[trial % 3]  # crowded boxes force coordinate ties
        xywh = random_xywh(rng, n, extent)
        scores = np.round(rng.uniform(0.0, 1.0, size=n), 1)  # forced score ties
        classes = rng.integers(0, num_classes, size=n)
        entries = [(*box, int(c), float(s)) for box, c, s in zip(xywh, classes, scores)]
        got = _kernels.nms_keep(to_xyxy(xywh), classes, scan_order(scores), threshold)
        assert got.dtype == np.int64
        assert got.tolist() == nms_ref(entries, threshold)


# sides on both sides of powers of two (the edges of nms_keep's width
# groups), the 9:20 width ratio of t = 0.45, and 1:50 aspect ratios
EDGE_SIDES = np.array([1, 2, 3, 4, 7, 8, 9, 15, 16, 17, 20, 31, 32, 33, 50, 64], dtype=np.float64)


def edge_xywh(rng, n, extent):
    """Integer boxes with EDGE_SIDES sides; about half are partners of the
    box before them, sharing its rows or its columns, so many pairs overlap
    with the full height or width of the smaller box."""
    xywh = np.concatenate([rng.integers(0, extent, size=(n, 2)).astype(np.float64),
                           rng.choice(EDGE_SIDES, size=(n, 2))], axis=1)
    for k in range(1, n):
        if rng.random() < 0.5:
            shared = int(rng.integers(0, 2))  # 0: same columns, 1: same rows
            moved = 1 - shared
            xywh[k, [shared, shared + 2]] = xywh[k - 1, [shared, shared + 2]]
            xywh[k, moved] = xywh[k - 1, moved] + rng.integers(-xywh[k, moved + 2],
                                                               xywh[k - 1, moved + 2] + 1)
    return xywh


def float_xywh(rng, n):
    """Boxes with non-integer coordinates in [1024, 2048), where x2 - x1 is
    exact, so the oracle's x1 + w is the kernel's x2 and both round alike;
    about half are partners inside the box before them, at a width or
    height ratio in (0.3, 1)."""
    x1 = rng.uniform(1024.0, 1536.0, size=(n, 2))
    x2 = x1 + rng.uniform(1.0, 400.0, size=(n, 2))
    for k in range(1, n):
        if rng.random() < 0.5:
            x1[k], x2[k] = x1[k - 1], x2[k - 1]
            axis = int(rng.integers(0, 2))
            side = (x2[k, axis] - x1[k, axis]) * rng.uniform(0.3, 1.0)
            x1[k, axis] += rng.uniform(0.0, x2[k, axis] - x1[k, axis] - side)
            x2[k, axis] = x1[k, axis] + side
    return np.concatenate([x1, x2 - x1], axis=1)


@pytest.mark.parametrize("chunk", [1, 7, 64])
@pytest.mark.parametrize("kind, scale", [("edge", 1.0), ("edge", 2.0**-30), ("edge", 2.0**30),
                                         ("edge", 2.0**-440), ("edge", 2.0**-460),
                                         ("float", 1.0), ("float", 2.0**-530)])
def test_nms_keep_bound_matches_oracle(monkeypatch, chunk, kind, scale):
    # thresholds taken from the pairs' own IoUs put pairs exactly at t;
    # scaling by a power of two keeps every IoU down to 2^-460, where the
    # threshold times an area falls below _kernels._TINY; float boxes at
    # 2^-530 have subnormal areas, which round by far more than
    # _kernels._SLACK
    monkeypatch.setattr(_kernels, "_PAIR_CHUNK", chunk)
    rng = np.random.default_rng(41 + chunk)
    for trial in range(30):
        n = int(rng.integers(2, 30))
        xywh = edge_xywh(rng, n, (16, 64)[trial % 2]) if kind == "edge" else float_xywh(rng, n)
        xywh *= scale
        classes = rng.integers(0, 2, size=n)
        scores = np.round(rng.uniform(0.0, 1.0, size=n), 1)  # forced score ties
        entries = [(*box, int(c), float(s)) for box, c, s in zip(xywh, classes, scores)]
        ious = sorted({iou_ref(a[:4], b[:4]) for a in entries for b in entries
                       if a is not b and a[4] == b[4]} - {0.0})
        picked = rng.choice(ious, size=min(4, len(ious)), replace=False).tolist()
        for threshold in [1e-300, 0.45, 1.0, 1.5, *picked]:
            got = _kernels.nms_keep(to_xyxy(xywh), classes, scan_order(scores), threshold)
            assert got.tolist() == nms_ref(entries, threshold), threshold


def test_kernels_accept_empty_inputs():
    none = np.zeros(0, dtype=np.int64)
    keep = _kernels.nms_keep(np.zeros((0, 4)), none, none, 0.45)
    assert keep.shape == (0,) and keep.dtype == np.int64
    assert _kernels.iou_pairs(np.zeros((0, 4))[:, None], np.ones((3, 4))[None, :]).shape == (0, 3)
    boxes, scores, classes, kept = _kernels.decode_cells(
        np.zeros((0, 6)), np.zeros((0, 2)), np.zeros(0), none, none, 0.5, 0.5
    )
    assert boxes.shape == (0, 4) and scores.shape == (0,) and classes.shape == (0,)
    assert boxes.dtype == scores.dtype == np.float64 and classes.dtype == np.int64
    assert kept.shape == (0,) and kept.dtype == np.int64


@pytest.mark.parametrize("num_classes", [1, 3])
def test_nms_keep_coincident_boxes_stay_linear_in_memory(num_classes):
    # every same-class pair of 5000 coincident boxes suppresses; a table of
    # all pairs would take 5000^2 / 2 * 8 bytes = 100 MB per array
    n = 5000
    boxes = np.tile([10.0, 20.0, 60.0, 90.0], (n, 1))
    classes = np.arange(n) % num_classes
    tracemalloc.start()
    try:
        keep = _kernels.nms_keep(boxes, classes, np.arange(n), 0.45)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert keep.tolist() == list(range(num_classes))
    assert peak < 16 * 2**20


@pytest.mark.parametrize(
    "score_threshold,objectness_threshold",
    [(0.0, 0.0), (0.45, 0.0), (0.0, 0.45), (0.45, 0.3), (1.0, 0.0), (0.0, 1.0)],
)
def test_decode_grid_matches_oracle(score_threshold, objectness_threshold):
    # the oracle uses math.exp and the kernel numpy's exp, which may differ
    # by an ulp, so box values and scores get a tolerance of a few ulps;
    # the candidate set, its order and the class picks must be identical
    rng = np.random.default_rng(37)
    anchors = np.array([[10.0, 13.0], [16.0, 30.0], [33.0, 23.0]])
    for trial in range(40):
        h = int(rng.integers(1, 9))
        w = int(rng.integers(1, 9))
        k = int(rng.integers(1, 4))
        raw = rng.normal(0.0, 3.0, size=(3, 5 + k, h, w))
        if trial % 3 == 0:
            raw = np.round(raw)  # tied class logits: the first class wins
        if trial % 4 == 0:
            # saturated logits: objectness and class sigmoids are exactly 1,
            # so 1.0 thresholds keep these cells and class sigmoids tie
            raw[:, 4, 0, 0] = 40.0
            raw[:, 5:, 0, 0] = 40.0 + np.arange(k)
        boxes, scores, classes = decode_one(
            raw, anchors, 32.0, score_threshold, objectness_threshold
        )
        want = decode_ref(raw, anchors, 32.0, score_threshold, objectness_threshold)
        assert boxes.shape == (len(want), 4)
        assert classes.dtype == np.int64
        assert classes.tolist() == [c for *_, c in want]
        want = np.array([v[:5] for v in want]).reshape(-1, 5)
        np.testing.assert_allclose(boxes, want[:, :4], rtol=1e-14, atol=1e-12)
        np.testing.assert_allclose(scores, want[:, 4], rtol=1e-14, atol=0)


def test_decode_grid_empty_gate_matches_oracle():
    # three heads of one tile, where the logit gate passes no cell of some
    # heads, or only the cells of some anchors
    rng = np.random.default_rng(43)
    anchors = np.array([[10.0, 13.0], [16.0, 30.0], [33.0, 23.0]])
    empty = 0
    for trial in range(30):
        for side in (1, 2, 4):
            raw = rng.normal(0.0, 3.0, size=(3, 7, side, side))
            quiet = rng.random(3) < (0.3, 0.6, 1.0)[trial % 3]
            raw[quiet, 4] = -50.0  # objectness far below the gate
            boxes, scores, classes = decode_one(raw, anchors, 8.0, 0.3, 0.3)
            want = decode_ref(raw, anchors, 8.0, 0.3, 0.3)
            assert boxes.dtype == scores.dtype == np.float64 and classes.dtype == np.int64
            assert boxes.shape == (len(want), 4) and scores.shape == classes.shape == (len(want),)
            assert classes.tolist() == [c for *_, c in want]
            want = np.array([v[:5] for v in want]).reshape(-1, 5)
            np.testing.assert_allclose(boxes, want[:, :4], rtol=1e-14, atol=1e-12)
            np.testing.assert_allclose(scores, want[:, 4], rtol=1e-14, atol=0)
            empty += quiet.all()
    assert empty >= 10  # the fast path ran


@pytest.mark.parametrize("p", [1e-300, 0.001, 0.3, 0.5, 0.999, 1 - 1e-7, 1.0])
def test_decode_grid_logit_gate_drops_no_candidate(p):
    # objectness logits a few ulps apart around the one where sigmoid
    # reaches p, then a coarser sweep; a class logit of 50 gives class
    # probability 1, so each cell scores exactly its objectness
    t0 = math.log(p) - math.log1p(-p) if p < 1.0 else 36.7
    t = np.concatenate(
        [t0 + np.arange(-40, 41) * 4 * np.spacing(abs(t0) + 1.0), t0 + np.linspace(-2, 2, 41)]
    )
    raw = np.full((3, 6, 1, t.size), -800.0)  # sigmoid(-800) == 0
    raw[0, 4, 0] = t
    raw[0, 5, 0] = 50.0
    obj = _kernels.sigmoid(t)
    for score_threshold, objectness_threshold in ((p, 0.0), (0.0, p)):
        _, scores, _ = gate_and_decode(
            raw, np.ones((3, 2)), 8.0, score_threshold, objectness_threshold
        )
        assert scores.tolist() == obj[obj >= p].tolist()


@pytest.mark.parametrize("p", [0.0, 1e-300, 0.001, 0.1, 0.3, 0.5, 0.999, 1 - 1e-7, 1.0])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_logit_gate_is_the_least_value_at_or_above_the_floor(p, dtype):
    floor = _kernels._logit_floor(p)
    gate = _kernels.logit_gate(p, np.dtype(dtype))
    assert type(gate) is dtype
    assert float(gate) >= floor
    assert float(np.nextafter(gate, dtype(-np.inf))) < floor or floor == -math.inf


@pytest.mark.parametrize("p", [0.0, 0.001, 0.1, 0.3, 1 - 1e-7])
def test_float32_gate_passes_the_cells_of_the_widened_gate(p):
    # float32 logits a few ulps around the floor: compared with the Python
    # float floor, numpy would round the floor to float32 first
    floor = _kernels._logit_floor(p)
    base = np.float32(floor if math.isfinite(floor) else 0.0)
    near = [base]
    for _ in range(4):
        near = [np.nextafter(near[0], np.float32(-np.inf)), *near,
                np.nextafter(near[-1], np.float32(np.inf))]
    raw32 = np.full((3, 7, 1, len(near)), -3.0, dtype=np.float32)
    raw32[:, 4, 0] = near
    got = _kernels.gate_cells(raw32, _kernels.logit_gate(p, np.dtype(np.float32)))
    want = _kernels.gate_cells(raw32.astype(np.float64), floor)
    assert got[0].dtype == np.float64
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)
    if math.isfinite(floor):  # the probes straddle the gate
        assert 0 < len(got[0]) < raw32[:, 4].size


def test_decode_grid_float32_input_matches_float64():
    rng = np.random.default_rng(7)
    raw = rng.normal(0.0, 3.0, size=(3, 7, 5, 5)).astype(np.float32)
    anchors = rng.uniform(5.0, 50.0, size=(3, 2))
    for thresholds in ((0.0, 0.0), (0.3, 0.3), (0.001, 0.5), (1.0, 0.0)):
        got = gate_and_decode(raw, anchors, 16.0, *thresholds)
        want = gate_and_decode(raw.astype(np.float64), anchors, 16.0, *thresholds)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)


def test_decode_grid_scan_order_is_anchor_row_col():
    # two candidates in different anchors/cells must come out in
    # (anchor, row, col) order regardless of score
    raw = np.full((3, 6, 2, 2), -20.0)
    raw[2, 4, 0, 1] = 10.0   # anchor 2 first cell hit, high objectness
    raw[2, 5, 0, 1] = 10.0
    raw[0, 4, 1, 0] = 5.0    # anchor 0, later in score but earlier anchor
    raw[0, 5, 1, 0] = 5.0
    raw[0, 2, 1, 0] = 0.0    # tw = 0 so the decoded width is the raw anchor
    anchors = np.array([[10.0, 10.0], [20.0, 20.0], [30.0, 30.0]])
    boxes, scores, classes = decode_one(raw, anchors, 32.0, 0.5, 0.0)
    assert len(scores) == 2
    assert scores[0] < scores[1]  # anchor 0 candidate first despite lower score
    assert np.asarray(boxes)[0, 2] == pytest.approx(10.0 * np.exp(0.0))


def test_decode_heads_is_the_per_head_decode_concatenated():
    # three heads of one tile at their own anchors and strides
    rng = np.random.default_rng(53)
    anchors = np.array(DEFAULT_ANCHORS).reshape(3, 3, 2)
    strides = np.array([32.0, 16.0, 8.0])
    raws = [rng.normal(0.0, 3.0, size=(3, 7, side, side)) for side in (2, 3, 5)]

    def decode_all(score_threshold, objectness_threshold):
        gate = _kernels.logit_gate(max(score_threshold, objectness_threshold), np.dtype(np.float64))
        return decode_heads([_kernels.gate_cells(raw, gate) for raw in raws], anchors, strides,
                            score_threshold, objectness_threshold)

    for thresholds in ((0.0, 0.0), (0.3, 0.3), (0.001, 0.5), (1.0, 0.0)):
        dets, head, fault = decode_all(*thresholds)
        parts = [decode_head(head_tensor(raw), [AnchorBox(*a) for a in anc], stride, *thresholds)
                 for raw, anc, stride in zip(raws, anchors, strides)]
        assert fault is None
        assert head.tolist() == [h for h, part in enumerate(parts) for _ in range(len(part))]
        for name in ("score", "class_id", "xywh", "xyxy"):
            np.testing.assert_array_equal(getattr(dets, name),
                                          np.concatenate([getattr(p, name) for p in parts]))

    # a size logit whose width overflows, in the cell (anchor 1, row 0,
    # col 0) of the last head: row 25 of that head's 75, after the 12 + 27
    # rows of the heads before it
    raws[2][1, 2, 0, 0] = 1000.0
    dets, head, fault = decode_all(0.0, 0.0)
    assert dets is None and head.tolist() == [0] * 12 + [1] * 27 + [2] * 75
    assert fault[0] == 2 and isinstance(fault[1], DegenerateBox)
    assert str(fault[1]) == "decoded detection 25: x_min must be finite"
    with pytest.raises(DegenerateBox, match="^decoded detection 25: x_min must be finite$"):
        decode_head(head_tensor(raws[2]), [AnchorBox(*a) for a in anchors[2]], 8, 0.0, 0.0)
