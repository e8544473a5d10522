"""The hot kernels in numpy: pairwise IoU, greedy NMS and head decode, plus
the package's one sigmoid.

The package calls iou_matrix, nms_keep and decode_grid through this module
(``_kernels.nms_keep(...)``) instead of binding the names at import, so a
profiler that replaces one of these attributes sees every call.
"""

import math

import numpy as np

# Upper bound on the candidate pairs nms_keep holds at once, so memory stays
# linear in the box count however much the boxes overlap.
_PAIR_CHUNK = 1 << 16


def sigmoid(x):
    """Logistic function 1/(1+e^(-x)); accepts scalars or arrays.

    Negative inputs use e^x/(1+e^x), so neither branch overflows.
    """
    arr = np.asarray(x, dtype=np.float64)
    out = np.empty_like(arr)
    pos = arr >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    ex = np.exp(arr[~pos])
    out[~pos] = ex / (1.0 + ex)
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


def iou_matrix(a, b):
    """Pairwise IoU of two corner-format box sets.

    a: (N, 4), b: (M, 4) float64 rows (x1, y1, x2, y2). Returns (N, M).
    """
    a = np.asarray(a, dtype=np.float64).reshape(-1, 4)
    b = np.asarray(b, dtype=np.float64).reshape(-1, 4)
    if a.shape[0] == 0 or b.shape[0] == 0:
        return np.zeros((a.shape[0], b.shape[0]), dtype=np.float64)
    ix1 = np.maximum(a[:, None, 0], b[None, :, 0])
    iy1 = np.maximum(a[:, None, 1], b[None, :, 1])
    ix2 = np.minimum(a[:, None, 2], b[None, :, 2])
    iy2 = np.minimum(a[:, None, 3], b[None, :, 3])
    inter = np.maximum(0.0, ix2 - ix1) * np.maximum(0.0, iy2 - iy1)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    union = area_a[:, None] + area_b[None, :] - inter
    out = np.zeros_like(inter)
    np.divide(inter, union, out=out, where=union > 0.0)
    return out


def nms_keep(boxes, classes, order, iou_threshold):
    """Greedy per-class suppression.

    boxes: (N, 4) corner format, order: scan order (descending score,
    ties by original index). A candidate is suppressed by an already-kept
    detection of the same class when IoU >= iou_threshold. Returns kept
    original indices in scan order.

    The result is that of the plain greedy scan, but IoU is computed only
    for same-class pairs whose x-extents may overlap, and only against
    suppressors still alive; the Python loop runs once per box that
    suppresses another.
    """
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    classes = np.asarray(classes, dtype=np.int64)
    order = np.asarray(order, dtype=np.int64)
    n = boxes.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    if iou_threshold <= 0.0:
        # IoU is never negative, so every same-class pair suppresses
        first = np.unique(classes[order], return_index=True)[1]
        return order[np.sort(first)]

    x1, y1, x2, y2 = boxes.T
    areas = (x2 - x1) * (y2 - y1)
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)

    # Group the boxes by class and by the binary exponent of their width,
    # and sort each group by x1. A same-class box j can overlap box i only
    # if, in j's group, x1_j < x2_i and the running maximum of x2 up to j
    # exceeds x1_i; that is one window of the group per (box, group) query.
    # Similar widths keep the running maximum close to each box's own x2.
    # Coordinates become integer ranks (equal values, equal ranks) so group
    # and coordinate fold into one exact int64 key.
    span = 2 * n
    coords = np.concatenate((x1, x2))
    ranks = np.searchsorted(np.sort(coords), coords)
    r1, r2 = ranks[:n], ranks[n:]
    exponent = np.frexp(x2 - x1)[1]
    by_group = np.lexsort((exponent, classes))
    cls_sorted, exp_sorted = classes[by_group], exponent[by_group]
    starts = np.concatenate(
        ([True], (cls_sorted[1:] != cls_sorted[:-1]) | (exp_sorted[1:] != exp_sorted[:-1]))
    )
    group = np.empty(n, dtype=np.int64)
    group[by_group] = np.cumsum(starts) - 1
    group_class = cls_sorted[starts]
    key = group * span + r1
    by_key = np.argsort(key, kind="stable")
    key_sorted = key[by_key]
    reach = np.maximum.accumulate((group * span + r2)[by_key])

    # queries of every box against every group of its class, in scan order
    first = np.searchsorted(group_class, classes[order], side="left")
    per_box = np.searchsorted(group_class, classes[order], side="right") - first
    q_box = np.repeat(order, per_box)
    q_group = np.repeat(first - np.cumsum(per_box) + per_box, per_box) + np.arange(q_box.size)
    lo = np.searchsorted(reach, q_group * span + r1[q_box], side="right")
    hi = np.searchsorted(key_sorted, q_group * span + r2[q_box], side="left")
    width = np.maximum(hi - lo, 0)

    alive = np.ones(n, dtype=bool)
    todo = np.flatnonzero(width)
    while True:
        todo = todo[alive[q_box[todo]]]
        if todo.size == 0:
            break
        # the next queries of alive boxes in scan order, up to _PAIR_CHUNK pairs
        take = max(1, int(np.searchsorted(np.cumsum(width[todo]), _PAIR_CHUNK, side="right")))
        chunk, todo = todo[:take], todo[take:]
        counts = width[chunk]
        i = np.repeat(q_box[chunk], counts)
        j = by_key[np.arange(i.size) - np.repeat(np.cumsum(counts) - counts - lo[chunk], counts)]
        pair = (rank[j] > rank[i]) & alive[j]
        i, j = i[pair], j[pair]
        ix1 = np.maximum(x1[i], x1[j])
        iy1 = np.maximum(y1[i], y1[j])
        ix2 = np.minimum(x2[i], x2[j])
        iy2 = np.minimum(y2[i], y2[j])
        inter = np.maximum(0.0, ix2 - ix1) * np.maximum(0.0, iy2 - iy1)
        with np.errstate(over="ignore"):
            union = areas[i] + areas[j] - inter
        # two areas near the float limit: take the ratio at half scale,
        # where halving is exact
        big = np.isinf(union)
        if big.any():
            inter[big] *= 0.5
            union[big] = 0.5 * areas[i[big]] + 0.5 * areas[j[big]] - inter[big]
        iou = np.zeros_like(inter)
        np.divide(inter, union, out=iou, where=union > 0.0)
        hit = iou >= iou_threshold
        i, j = i[hit], j[hit]
        if i.size == 0:
            continue
        # pairs are grouped by suppressor, in scan order; a suppressor is
        # final here, since only boxes earlier in scan order can remove it
        bounds = (np.flatnonzero(i[1:] != i[:-1]) + 1).tolist()
        for s, e in zip([0] + bounds, bounds + [i.size]):
            if alive[i[s]]:
                alive[j[s:e]] = False
    return order[alive[order]]


def _logit_floor(p):
    """A logit below which sigmoid(t) < p, with room for rounding error;
    -inf when p <= 0."""
    if p <= 0.0:
        return -math.inf
    if p >= 1.0 - 1e-6:
        return 13.0  # sigmoid(13) = 1 - 2.3e-6
    # below logit(p) - 1e-6 the exact sigmoid is under p by a relative
    # (1 - p) * 1e-6 >= 1e-12, far beyond the few ulps sigmoid is off by
    return math.log(p) - math.log1p(-p) - 1e-6


def decode_grid(raw, anchors, stride, score_threshold, objectness_threshold):
    """Decode one detector head into scored corner-format boxes.

    raw: (A, 5+K, H, W) float64 with per-anchor channels ordered
    (tx, ty, tw, th, objectness, class logits...). anchors: (A, 2)
    pixel (width, height). Candidates are scanned in (anchor, row, col)
    order; kept when sigmoid(objectness) >= objectness_threshold and
    objectness * best class probability >= score_threshold.

    Returns (boxes (M, 4) as x_min/y_min/width/height, scores (M,),
    class_ids (M,)).
    """
    raw = np.asarray(raw, dtype=np.float64)
    anchors = np.asarray(anchors, dtype=np.float64).reshape(-1, 2)

    # score <= objectness, so a cell whose objectness is below either
    # threshold fails; gate on the raw logit before any sigmoid
    floor = _logit_floor(max(score_threshold, objectness_threshold))
    ai, yi, xi = np.nonzero(raw[:, 4] >= floor)     # C order == (a, y, x) scan
    cells = raw[ai, :, yi, xi]                      # (M, 5+K)
    prob = sigmoid(cells)
    best_cls = np.argmax(prob[:, 5:], axis=1)       # first max wins
    score = prob[:, 4] * prob[np.arange(len(prob)), 5 + best_cls]
    kept = (prob[:, 4] >= objectness_threshold) & (score >= score_threshold)

    bx = (xi[kept] + prob[kept, 0]) * stride
    by = (yi[kept] + prob[kept, 1]) * stride
    # a large size logit overflows to an infinite side; the caller rejects it
    with np.errstate(over="ignore"):
        bw = anchors[ai[kept], 0] * np.exp(cells[kept, 2])
        bh = anchors[ai[kept], 1] * np.exp(cells[kept, 3])

    boxes = np.stack([bx - bw / 2.0, by - bh / 2.0, bw, bh], axis=1)
    return boxes, score[kept], best_cls[kept].astype(np.int64)
