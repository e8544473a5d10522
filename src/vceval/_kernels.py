"""The hot kernels in numpy: pairwise IoU (iou_pairs, which NMS and matching
both use), greedy NMS and head decode (the logit gate of gate_cells, then
decode_cells over the gated cells of one or more heads, which
netops.decode_heads runs), plus the package's one sigmoid and pair_key, the
(group, value) search key of NMS and matching.

The package calls these kernels through this module (``_kernels.nms_keep(...)``)
instead of binding the names at import, so a profiler that replaces one of
these attributes sees every call.
"""

import math

import numpy as np

# The most rows a command gathers from consecutive tiles for one array pass
# (see batched): enough to spread numpy's fixed set-up over many sparse
# tiles, few enough to bound the memory of dense ones. decode decodes,
# checks, suppresses and writes batches of tiles holding at most this many
# gated cells, one NMS per batch, since NMS time grows faster than its
# input: 40 dense tiles of about 1,100 candidates took 18 % longer in calls
# of two tiles than in one call per tile. eval parses and matches batches of
# tiles holding at most this many detection rows, which bounds the texts and
# the (detection, label) pairs it holds at once.
BATCH_ROWS = 1 << 11

# Upper bound on the candidate pairs nms_keep holds at once, so memory stays
# linear in the box count however much the boxes overlap.
_PAIR_CHUNK = 1 << 16

# Relative slack of nms_keep's pair bound. The IoU arithmetic rounds at most
# a few ulps (about 1e-15 relative) past its exact value; 1e-9 covers that
# many times over and loosens the bound by a negligible amount.
_SLACK = 1e-9

# nms_keep applies its bound only when the threshold, and the threshold
# times every box side and area, are at least this, so none of the products
# the bound reasons about is subnormal, where rounding is not relative.
_TINY = 2.0 ** -900


def batched(items, rows):
    """The items of an iterable gathered into lists of consecutive items,
    each list for one array pass; ``rows(item)`` gives an item's rows. An
    item that would take a list past BATCH_ROWS rows starts a new one, so
    an item larger than that has a list of its own. Items are taken from
    ``items`` only as the lists are built."""
    batch, total = [], 0
    for item in items:
        n = rows(item)
        if batch and total + n > BATCH_ROWS:
            yield batch
            batch, total = [], 0
        batch.append(item)
        total += n
    if batch:
        yield batch


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


def iou_of(inter, area_a, area_b):
    """IoU from the intersection and the two areas, inter / (area_a + area_b
    - inter), elementwise with broadcasting; 0 where that union is not
    positive.

    When two finite areas sum past the float range, the ratio is taken at
    half scale, where halving is exact, instead of over an infinite union.
    """
    with np.errstate(over="ignore"):
        union = area_a + area_b - inter
    big = np.isinf(union)
    if big.any():
        inter = np.where(big, 0.5 * inter, inter)
        union = np.where(big, 0.5 * area_a + 0.5 * area_b - inter, union)
    out = np.zeros(np.shape(union), dtype=np.float64)
    np.divide(inter, union, out=out, where=union > 0.0)
    return out


def iou_pairs(a, b):
    """IoU of corner-format boxes row by row: a and b are (..., 4) float64
    arrays of rows (x1, y1, x2, y2) that broadcast against each other, so
    ``iou_pairs(a[:, None], b[None, :])`` is the (N, M) matrix of two sets."""
    ix1 = np.maximum(a[..., 0], b[..., 0])
    iy1 = np.maximum(a[..., 1], b[..., 1])
    ix2 = np.minimum(a[..., 2], b[..., 2])
    iy2 = np.minimum(a[..., 3], b[..., 3])
    inter = np.maximum(0.0, ix2 - ix1) * np.maximum(0.0, iy2 - iy1)
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    return iou_of(inter, area_a, area_b)


def pair_key(group, value):
    """(group, value) pairs, two arrays of one shape, as one complex array:
    complex numbers order lexicographically, so np.searchsorted over it
    orders by group, then value. The parts are set directly, as
    ``group + 1j * value`` would make an infinite value NaN + inf j."""
    key = np.empty(np.shape(value), dtype=np.complex128)
    key.real = group
    key.imag = value
    return key


def nms_keep(boxes, classes, order, iou_threshold):
    """Greedy per-class suppression.

    boxes: (N, 4) corner format, order: scan order (descending score,
    ties by original index). A candidate is suppressed by an already-kept
    detection of the same class when IoU >= iou_threshold. Returns kept
    original indices in scan order.

    The result is that of the plain greedy scan. The scan streams through
    the pairs in scan order, at most _PAIR_CHUNK at a time, so memory stays
    linear in N however much the boxes overlap; IoU is computed only for
    same-class pairs that pass the bound below, and only against
    suppressors still alive; the Python loop runs once per box that
    suppresses another.

    The bound. The intersection is at most the smaller area, so the union
    is at least the larger one, and IoU >= t needs an intersection of at
    least t * max(A_i, A_j). Its height is at most min(h_i, h_j), so its
    width iw is at least t * max(w_i, w_j); likewise its height ih is at
    least t * max(h_i, h_j). With the boxes grouped by class and by the
    binary exponent of their width, and each group sorted by x1, that
    gives for box i and a group holding widths [w_min, w_max]:

    - the widths are within a factor 1/t of each other, so the group is
      skipped unless w_max >= t * w_i and w_i >= t * w_min;
    - x1_j lies in [x1_i - (w_max - t * max(w_i, w_max)),
      x2_i - t * max(w_i, w_min)], one window of the group;
    - each pair in the window needs ih >= t * max(h_i, h_j) before any
      rank, alive or IoU work.

    Why it is exact. The rules hold for the floats computed below, not only
    for real numbers. Each side and intersection side is one correctly
    rounded subtraction, so as computed iw <= min(w_i, w_j) and
    ih <= min(h_i, h_j); the products, sums and the quotient that give the
    IoU each round by a relative 2^-53 at most. An IoU at or above t as
    computed therefore has iw >= t * max(w_i, w_j) * (1 - 1e-15), and the
    same for ih. The rules use t * (1 - _SLACK) and widen the window by
    _SLACK times the largest coordinate magnitude, which also covers the
    rounding of its own ends, so no pair the IoU arithmetic puts at or above
    t is skipped. Relative rounding needs normal numbers: when t, or t times
    some side or area, is below _TINY, or an area is not finite, the bound
    is off and every same-class pair is a candidate.
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
    if iou_threshold > 1.0:
        # the intersection never exceeds the union, so IoU never exceeds 1
        return order.copy()

    x1, y1, x2, y2 = boxes.T
    w, h = x2 - x1, y2 - y1
    areas = w * h
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    t = iou_threshold * (1.0 - _SLACK)
    # min(..., 1.0) keeps a NaN, which fails the test
    smallest = min(np.minimum(np.minimum(w, h), areas).min(), 1.0)
    bounded = bool(iou_threshold * smallest >= _TINY and areas.max() < math.inf)

    # Group the boxes by class and by the binary exponent of their width,
    # and sort each group by x1, so each (box, group) query is one window of
    # the group.
    exponent = np.frexp(w)[1]
    by_key = np.lexsort((x1, exponent, classes))
    cls_sorted, exp_sorted = classes[by_key], exponent[by_key]
    starts = np.concatenate(
        ([True], (cls_sorted[1:] != cls_sorted[:-1]) | (exp_sorted[1:] != exp_sorted[:-1]))
    )
    gstart = np.flatnonzero(starts)
    group_class = cls_sorted[gstart]

    # queries of every box against every group of its class, in scan order
    first = np.searchsorted(group_class, classes[order], side="left")
    per_box = np.searchsorted(group_class, classes[order], side="right") - first
    q_box = np.repeat(order, per_box)
    q_group = np.repeat(first - np.cumsum(per_box) + per_box, per_box) + np.arange(q_box.size)
    if bounded:
        w_sorted = w[by_key]
        w_min = np.minimum.reduceat(w_sorted, gstart)[q_group]
        w_max = np.maximum.reduceat(w_sorted, gstart)[q_group]
        wi = w[q_box]
        # a group is searched only if some width in it meets the ratio rule
        can = (w_max >= t * wi) & (wi >= t * w_min)
        q_box, q_group, wi, w_min, w_max = q_box[can], q_group[can], wi[can], w_min[can], w_max[can]
        wide = np.maximum(wi, w_max)
        pad = _SLACK * np.abs(boxes).max()
        lo_x = x1[q_box] - (w_max - t * wide) - pad
        hi_x = x2[q_box] - t * np.maximum(wi, w_min) + pad
        key_sorted = pair_key(np.cumsum(starts) - 1, x1[by_key])
        lo = np.searchsorted(key_sorted, pair_key(q_group, lo_x), side="left")
        hi = np.searchsorted(key_sorted, pair_key(q_group, hi_x), side="right")
        y1_sorted, y2_sorted, h_sorted = y1[by_key], y2[by_key], h[by_key]
    else:
        lo, hi = gstart[q_group], np.append(gstart[1:], n)[q_group]
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
        at = np.arange(i.size) - np.repeat(np.cumsum(counts) - counts - lo[chunk], counts)
        if bounded:
            # the height rule, on the intersection height the IoU uses
            ih = np.minimum(y2[i], y2_sorted[at]) - np.maximum(y1[i], y1_sorted[at])
            near = ih >= t * np.maximum(h[i], h_sorted[at])
            i, at = i[near], at[near]
        j = by_key[at]
        pair = (rank[j] > rank[i]) & alive[j]
        i, j = i[pair], j[pair]
        hit = iou_pairs(boxes[i], boxes[j]) >= iou_threshold
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


def logit_gate(p, dtype):
    """The smallest value of ``dtype`` at or above _logit_floor(p): a logit
    of that dtype passes the gate, ``logit >= logit_gate(p, dtype)``,
    exactly when it is at least the floor.

    Formed on purpose, as the comparison of a float32 array with a Python
    float would round the float to float32 (NEP 50), and a float32 logit
    just below the floor could then pass.
    """
    floor = _logit_floor(p)
    gate = dtype.type(floor)
    if float(gate) < floor:  # float(): a float32 gate would round the floor
        gate = np.nextafter(gate, dtype.type(math.inf))
    return gate


def gate_cells(raw, gate):
    """The cells of one head whose objectness logit is at least ``gate``.

    raw: (A, 5+K, H, W) float array, channels ordered (tx, ty, tw, th,
    objectness, class logits...); gate: a threshold of raw's dtype (see
    logit_gate). Returns the gated cells' channels widened to float64,
    (M, 5+K), and their anchor, row and column indices, in (anchor, row,
    col) scan order.
    """
    gated = raw[:, 4] >= gate
    flat = np.flatnonzero(gated)                    # C order == (a, y, x) scan
    ai, yi, xi = np.unravel_index(flat, gated.shape)
    return raw[ai, :, yi, xi].astype(np.float64), ai, yi, xi


def decode_cells(cells, anchor_wh, stride, xi, yi, score_threshold, objectness_threshold):
    """Decode gated cells, of one head or of many, into scored corner-format
    boxes.

    cells: (M, 5+K) float64 as gate_cells gives them; anchor_wh: (M, 2)
    pixel (width, height) of each cell's anchor; stride: (M,) pixel
    stride of each cell's grid; xi, yi: each cell's column and row. A cell
    is kept when sigmoid(objectness) >= objectness_threshold and
    objectness * best class probability >= score_threshold.

    Returns (boxes (N, 4) as x_min/y_min/width/height, scores (N,),
    class_ids (N,), kept (N,)), kept being the positions of the kept cells
    in ``cells``, in order.
    """
    if len(cells) == 0:
        empty = np.zeros(0, dtype=np.int64)
        return np.zeros((0, 4)), np.zeros(0), empty, empty
    prob = sigmoid(cells)
    best_cls = np.argmax(prob[:, 5:], axis=1)       # first max wins
    score = prob[:, 4] * prob[np.arange(len(prob)), 5 + best_cls]
    kept = np.flatnonzero((prob[:, 4] >= objectness_threshold) & (score >= score_threshold))
    cells, prob, anchor_wh, stride = cells[kept], prob[kept], anchor_wh[kept], stride[kept]

    boxes = np.empty((kept.size, 4))
    # a large size logit overflows to an infinite side; the caller rejects it
    with np.errstate(over="ignore"):
        bw = anchor_wh[:, 0] * np.exp(cells[:, 2])
        bh = anchor_wh[:, 1] * np.exp(cells[:, 3])
    boxes[:, 0] = (xi[kept] + prob[:, 0]) * stride - bw / 2.0
    boxes[:, 1] = (yi[kept] + prob[:, 1]) * stride - bh / 2.0
    boxes[:, 2] = bw
    boxes[:, 3] = bh
    return boxes, score[kept], best_cls[kept].astype(np.int64, copy=False), kept
