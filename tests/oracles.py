"""Brute-force reference implementations used to cross-check the library.

Everything here is deliberately naive (quadratic loops, no vectorization,
no shared code with the fast paths) so a bug in them cannot hide in its
own oracle. The label and remap oracles use the package's box objects and
clip_to, as the per-object code they keep did; the others use only the
package's error types.
"""

from __future__ import annotations

import math


def iou_ref(a, b):
    """IoU of two (x_min, y_min, width, height) tuples."""
    ax1, ay1, aw, ah = a
    bx1, by1, bw, bh = b
    ix1 = max(ax1, bx1)
    iy1 = max(ay1, by1)
    ix2 = min(ax1 + aw, bx1 + bw)
    iy2 = min(ay1 + ah, by1 + bh)
    if ix2 <= ix1 or iy2 <= iy1:
        return 0.0
    inter = (ix2 - ix1) * (iy2 - iy1)
    return inter / (aw * ah + bw * bh - inter)


def nms_ref(entries, iou_threshold):
    """Greedy per-class NMS over (x, y, w, h, class_id, score) tuples.

    Returns the kept original indices in pick order (descending score,
    index breaking ties). Same-class boxes with IoU >= threshold are
    suppressed by an earlier pick.
    """
    order = sorted(range(len(entries)), key=lambda i: (-entries[i][5], i))
    removed = set()
    kept = []
    for i in order:
        if i in removed:
            continue
        kept.append(i)
        for j in order:
            if j in removed or j == i:
                continue
            if entries[j][4] != entries[i][4]:
                continue
            if iou_ref(entries[i][:4], entries[j][:4]) >= iou_threshold:
                removed.add(j)
    return kept


def ap_step_ref(flags, total_gt):
    """All-point interpolated AP by quadratic step integration.

    flags: list of (score, image_id, index, is_tp); the function sorts them
    itself and, for every recall step, rescans the whole tail for the best
    precision instead of keeping a running maximum.
    """
    ordered = sorted(flags, key=lambda f: (-f[0], f[1], f[2]))
    recalls = [0.0]
    precisions = [1.0]
    tp = fp = 0
    for score, image_id, index, is_tp in ordered:
        tp += 1 if is_tp else 0
        fp += 0 if is_tp else 1
        recalls.append(tp / total_gt)
        precisions.append(tp / (tp + fp))
    area = 0.0
    for k in range(1, len(recalls)):
        dr = recalls[k] - recalls[k - 1]
        if dr == 0.0:
            continue
        best = 0.0
        for j in range(k, len(recalls)):
            if precisions[j] > best:
                best = precisions[j]
        area += dr * best
    return area


def _sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x)) if x >= 0 else math.exp(x) / (1.0 + math.exp(x))


def decode_ref(values, anchors, stride, score_threshold, objectness_threshold):
    """Per-cell decode loop over a (3, 5+K, H, W) nested list/array.

    Returns (x_min, y_min, w, h, score, class_id) tuples in (anchor, row,
    column) scan order, filtered exactly like the library contract:
    objectness >= objectness_threshold and composite score >=
    score_threshold, class = first argmax of the class sigmoids.
    """
    out = []
    num_anchors = len(values)
    k = len(values[0]) - 5
    h = len(values[0][0])
    w = len(values[0][0][0])
    for a in range(num_anchors):
        for yy in range(h):
            for xx in range(w):
                t = [values[a][ch][yy][xx] for ch in range(5 + k)]
                obj = _sigmoid(t[4])
                if obj < objectness_threshold:
                    continue
                probs = [_sigmoid(v) for v in t[5:]]
                best = 0
                for ci in range(1, k):
                    if probs[ci] > probs[best]:
                        best = ci
                score = obj * probs[best]
                if score < score_threshold:
                    continue
                bx = (xx + _sigmoid(t[0])) * stride
                by = (yy + _sigmoid(t[1])) * stride
                bw = anchors[a][0] * math.exp(t[2])
                bh = anchors[a][1] * math.exp(t[3])
                out.append((bx - bw / 2, by - bh / 2, bw, bh, score, best))
    return out


def parse_detections_ref(content):
    """Line-by-line detection parser with the checks of the file format.

    Returns (class_id, score, x_min, y_min, width, height) tuples and raises
    the format errors of the first bad line: field count, non-numeric field
    and negative class (MalformedLine), score outside [0, 1]
    (ScoreOutOfRange), a side <= 0, a non-finite box field or a non-finite
    area (OutOfRange).
    """
    from vceval.errors import MalformedLine, OutOfRange, ScoreOutOfRange

    out = []
    for line_no, raw in enumerate(content.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 6:
            raise MalformedLine(line_no, f"expected 6 fields, got {len(parts)}")
        try:
            class_id = int(parts[0])
            score, x_min, y_min, width, height = (float(p) for p in parts[1:])
        except ValueError:
            raise MalformedLine(line_no, "non-numeric field") from None
        if class_id < 0:
            raise MalformedLine(line_no, f"negative class id {class_id}")
        if not 0.0 <= score <= 1.0:
            raise ScoreOutOfRange(line_no, score)
        if width <= 0 or height <= 0:
            raise OutOfRange(line_no, "box sides must be > 0")
        for name, v in (("x_min", x_min), ("y_min", y_min), ("width", width), ("height", height)):
            if not math.isfinite(v):
                raise OutOfRange(line_no, f"{name} must be finite")
        if not math.isfinite(width * height):
            raise OutOfRange(line_no, "box area must be finite")
        out.append((class_id, score, x_min, y_min, width, height))
    return out


def write_detections_ref(rows):
    """The per-object detection writer: one f-string line per
    (class_id, score, x_min, y_min, width, height) tuple."""
    lines = []
    for class_id, score, x_min, y_min, width, height in rows:
        lines.append(
            f"{class_id} {score:.6f} {x_min:.6f} {y_min:.6f} {width:.6f} {height:.6f}"
        )
    return "".join(line + "\n" for line in lines)


def _corner_iou(a, b):
    """IoU of two (x_min, y_min, width, height) tuples with the arithmetic
    of the corner-format kernel: corners first, areas from the corners."""
    ax1, ay1, ax2, ay2 = a[0], a[1], a[0] + a[2], a[1] + a[3]
    bx1, by1, bx2, by2 = b[0], b[1], b[0] + b[2], b[1] + b[3]
    inter = max(0.0, min(ax2, bx2) - max(ax1, bx1)) * max(0.0, min(ay2, by2) - max(ay1, by1))
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    return inter / union if union > 0.0 else 0.0


def match_ref(dets_by_image, gts_by_image, iou_threshold):
    """The plain greedy matching loop.

    dets_by_image: {image_id: [(class_id, score, x, y, w, h), ...]},
    gts_by_image: {image_id: [(class_id, x, y, w, h), ...]}. Images in
    sorted order; within an image, classes in order of first appearance,
    each in (descending score, index) order. A detection claims the first
    unclaimed same-class ground truth of highest IoU > 0 when that IoU is
    >= iou_threshold. Returns ([(image_id, index, class_id, score, is_tp)],
    {class_id: (tp, fp, fn)}).
    """
    flags = []
    tp, fp, gt_total = {}, {}, {}
    for image_id in sorted(set(dets_by_image) | set(gts_by_image)):
        dets = dets_by_image.get(image_id, [])
        gts = gts_by_image.get(image_id, [])
        for g in gts:
            gt_total[g[0]] = gt_total.get(g[0], 0) + 1
        by_class = {}
        for i, d in enumerate(dets):
            by_class.setdefault(d[0], []).append(i)
        for class_id, det_idx in by_class.items():
            gt_idx = [j for j, g in enumerate(gts) if g[0] == class_id]
            det_idx.sort(key=lambda i: (-dets[i][1], i))
            claimed = [False] * len(gt_idx)
            for i in det_idx:
                best, best_iou = -1, 0.0
                for col, j in enumerate(gt_idx):
                    v = _corner_iou(dets[i][2:], gts[j][1:])
                    if not claimed[col] and v > best_iou:
                        best, best_iou = col, v
                is_tp = best >= 0 and best_iou >= iou_threshold
                if is_tp:
                    claimed[best] = True
                    tp[class_id] = tp.get(class_id, 0) + 1
                else:
                    fp[class_id] = fp.get(class_id, 0) + 1
                flags.append((image_id, i, class_id, dets[i][1], is_tp))
    counts = {}
    for class_id in set(tp) | set(fp) | set(gt_total):
        t = tp.get(class_id, 0)
        counts[class_id] = (t, fp.get(class_id, 0), gt_total.get(class_id, 0) - t)
    return flags, counts


def f1_max_ref(flags, total_gt):
    """Best F1 over the ranked sweep of (score, image_id, index, is_tp)
    flags and its threshold: a running scan from (0.0, 1.0) that moves to a
    rank with higher F1, or equal F1 and a higher threshold."""
    ordered = sorted(flags, key=lambda f: (-f[0], f[1], f[2]))
    best_f1, best_t = 0.0, 1.0
    tp = fp = 0
    for score, image_id, index, is_tp in ordered:
        tp += 1 if is_tp else 0
        fp += 0 if is_tp else 1
        p, r = tp / (tp + fp), tp / total_gt
        value = 2.0 * p * r / (p + r) if p + r else 0.0
        if value > best_f1 or (value == best_f1 and score > best_t):
            best_f1, best_t = value, score
    return best_f1, best_t


def parse_labels_ref(content, image_w, image_h):
    """The line-by-line label parser: normalized ``class_id cx cy w h``
    lines to (class_id, x_min, y_min, width, height) tuples of the pixel box
    clipped to the image, a box left empty by the clip dropped. Raises the
    format errors of the first bad line: field count, non-numeric field and
    a class id below 0 or beyond 64 bits (MalformedLine), a center outside
    [0, 1], a size outside (0, 1] and a pixel box BoundingBox refuses
    (OutOfRange)."""
    from vceval.boxes import BoundingBox
    from vceval.errors import MalformedLine, OutOfRange

    out = []
    for line_no, raw in enumerate(content.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 5:
            raise MalformedLine(line_no, f"expected 5 fields, got {len(parts)}")
        try:
            class_id = int(parts[0])
            cx, cy, w, h = (float(p) for p in parts[1:])
        except ValueError:
            raise MalformedLine(line_no, "non-numeric field") from None
        if class_id < 0:
            raise MalformedLine(line_no, f"negative class id {class_id}")
        if class_id > 2**63 - 1:
            raise MalformedLine(line_no, f"class id {class_id} does not fit in 64 bits")
        for name, v in (("cx", cx), ("cy", cy)):
            if not 0.0 <= v <= 1.0:
                raise OutOfRange(line_no, f"{name}={v:g} outside [0, 1]")
        for name, v in (("w", w), ("h", h)):
            if not 0.0 < v <= 1.0:
                raise OutOfRange(line_no, f"{name}={v:g} outside (0, 1]")
        try:
            box = BoundingBox(
                x_min=(cx - w / 2.0) * image_w,
                y_min=(cy - h / 2.0) * image_h,
                width=w * image_w,
                height=h * image_h,
            )
        except ValueError as exc:
            raise OutOfRange(line_no, str(exc)) from None
        x1 = max(box.x_min, 0.0)
        y1 = max(box.y_min, 0.0)
        x2 = min(box.x_max, image_w)
        y2 = min(box.y_max, image_h)
        if x2 - x1 <= 0.0 or y2 - y1 <= 0.0:
            continue
        out.append((class_id, x1, y1, x2 - x1, y2 - y1))
    return out


def write_labels_ref(rows, image_w, image_h):
    """The per-object label writer: one f-string line per
    (class_id, x_min, y_min, width, height) tuple, center format normalized
    by the image extent."""
    lines = []
    for class_id, x_min, y_min, width, height in rows:
        cx, cy = x_min + width / 2.0, y_min + height / 2.0
        lines.append(
            f"{class_id} {cx / image_w:.6f} {cy / image_h:.6f} "
            f"{width / image_w:.6f} {height / image_h:.6f}"
        )
    return "".join(line + "\n" for line in lines)


def remap_ref(gt, tile, tile_size, min_visibility=0.3):
    """The per-object remap of one GroundTruthBox into one tile: translate;
    pass a fully visible box through untouched; otherwise clip to the tile
    square and drop an empty clip or one whose visible fraction is below
    min_visibility. Returns a GroundTruthBox or None."""
    from vceval.boxes import GroundTruthBox, clip_to

    if not 0.0 < min_visibility <= 1.0:
        raise ValueError("min_visibility must be in (0, 1]")
    local = gt.box.translated(-tile.origin_x, -tile.origin_y)
    if (
        local.x_min >= 0.0
        and local.y_min >= 0.0
        and local.x_max <= tile_size
        and local.y_max <= tile_size
    ):
        # fully visible: pass the translated box through untouched so the
        # inverse translation restores the global box exactly
        return GroundTruthBox(box=local, class_id=gt.class_id)
    clipped = clip_to(local, tile_size, tile_size)
    if clipped is None:
        return None
    if clipped.area / gt.box.area < min_visibility:
        return None
    return GroundTruthBox(box=clipped, class_id=gt.class_id)
