"""Seeded inputs for the vceval benchmark workloads.

``generate(workload, seed, out_dir)`` writes only files the ``vceval`` CLI
reads -- image manifests, darknet label files, ``VCT1`` head tensors and an
observation history -- and returns a ``Plan`` holding the outcome each stage
must reach. That outcome is fixed by construction:

* every object sits inside one 96 px slot of a global slot grid, and no tile
  boundary of any tile size used crosses the slot, so tiling keeps each
  object whole and no two objects share a head cell at any stride;
* each detected object gets one primary head response that decodes exactly
  to its box, plus lower-scored near-copies that NMS must suppress;
* background logits either never clear the default 0.30 gates, or (for the
  low-threshold workload) always score below every planted response; there
  a missed object is at most 20 px a side and no background response lies
  within ``CLEAR_PX`` of its center, so none can match it.

The same seed gives byte-identical files. Nothing here imports vceval, so the
inputs and the expected outcomes do not depend on the code under test.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Optional

import numpy as np

from oracle import average_precision, f1_max

WORKLOADS = ("dense-lowscore", "study-3x5")

# The CLI's documented defaults: two classes and the Darknet anchor priors,
# smallest first; the stride-32 head takes the largest three.
CLASS_NAMES = ("volunteer-cotton", "background-plant")
ANCHORS = (
    (10.0, 13.0), (16.0, 30.0), (33.0, 23.0),
    (30.0, 61.0), (62.0, 45.0), (59.0, 119.0),
    (116.0, 90.0), (156.0, 198.0), (373.0, 326.0),
)
STRIDES = (32, 16, 8)
SCALE_SUFFIXES = (".s0.vct", ".s1.vct", ".s2.vct")
PER_ANCHOR = 5 + len(CLASS_NAMES)
CHANNELS = 3 * PER_ANCHOR
SLOT = 96
CLASS_LOGIT = 8.0
# With the anchor priors and box offsets tw, th in [-1, 1], a box whose
# center is more than 20.1 px (Chebyshev) from the center of a box of at
# most 20 x 20 px has IoU below 0.30 with it (found by dense sampling).
CLEAR_PX = 24.0
ALPHA = 0.05


def _anchors_for(scale: int) -> tuple[tuple[float, float], ...]:
    return ANCHORS[6 - 3 * scale: 9 - 3 * scale]


def _sigmoid(x: float) -> float:
    return 1.0 / (1.0 + math.exp(-x))


def _logit(p: float) -> float:
    return math.log(p / (1.0 - p))


@dataclass(frozen=True)
class Box:
    """Center-format box in pixels."""

    cx: float
    cy: float
    w: float
    h: float

    def shifted(self, dx: float, dy: float) -> "Box":
        return Box(self.cx + dx, self.cy + dy, self.w, self.h)


@dataclass(frozen=True)
class Response:
    """One planted head response in a tile: decodes to ``box`` (tile px)
    with class ``cls`` and score ``score``."""

    box: Box
    cls: int
    score: float
    scale: int
    anchor: int


@dataclass
class EvalExpect:
    """What one ``eval`` run must report."""

    tp: dict[int, int]
    fn: dict[int, int]
    fp: Optional[dict[int, int]]  # None: every decoded line that is not a TP
    lines: Optional[int]  # exact detection lines decode must write, if known
    observations: dict[str, float]


@dataclass
class DetectorRun:
    """One detector run: tensors to decode at ``size`` and what eval gives."""

    size: int
    run_id: str
    tensors_dir: str
    expect: EvalExpect


@dataclass
class Plan:
    workload: str
    seed: int
    inputs: str
    objects: int
    tiles: dict[int, int]
    runs: list[DetectorRun]
    compares: list[tuple[str, str]]  # (metric, branch fixed by construction)
    history: Optional[str]
    decode_flags: list[str] = field(default_factory=list)
    sizes: dict = field(default_factory=dict)


# ---------------------------------------------------------------- geometry


def _grid(width: int, height: int, size: int) -> tuple[int, int]:
    """Pad-edge tile grid (columns, rows)."""
    return math.ceil(width / size), math.ceil(height / size)


def _eligible_slots(width: int, height: int, sizes) -> list[tuple[int, int]]:
    """Slots inside the frame whose interior no tile boundary crosses."""

    def axis(extent: int) -> list[int]:
        out = []
        for i in range(extent // SLOT):
            lo, hi = i * SLOT, (i + 1) * SLOT
            if not any(lo < b < hi for s in sizes for b in range(s, extent, s)):
                out.append(i)
        return out

    return [(sx, sy) for sy in axis(height) for sx in axis(width)]


def _object_box(rng: np.random.Generator, slot: tuple[int, int]) -> Box:
    """A box whose center is in the slot's middle 32 px cell and whose extent
    stays 2 px inside the slot."""
    ox, oy = slot[0] * SLOT, slot[1] * SLOT
    cx = ox + 32 + rng.uniform(0.5, 31.5)
    cy = oy + 32 + rng.uniform(0.5, 31.5)
    w, h = rng.uniform(12.0, 60.0, size=2)
    return Box(float(cx), float(cy), float(w), float(h))


def _quadrant_boxes(rng: np.random.Generator, slot: tuple[int, int]) -> list[Box]:
    """Four small disjoint boxes in the corner cells of a slot, each at least
    2 px inside it. Their IoU with any box centered in the middle cell stays
    below 0.37, so NMS at 0.45 keeps both."""
    ox, oy = slot[0] * SLOT, slot[1] * SLOT
    out = []
    for qx in (0, 52):
        for qy in (0, 52):
            cx = ox + qx + rng.uniform(18.0, 26.0)
            cy = oy + qy + rng.uniform(18.0, 26.0)
            w, h = rng.uniform(12.0, 20.0, size=2)
            out.append(Box(float(cx), float(cy), float(w), float(h)))
    return out


def _locate(box: Box, size: int) -> tuple[int, int, Box]:
    """Tile (row, col) holding a global box, and the box in tile pixels."""
    col, row = int(box.cx // size), int(box.cy // size)
    return row, col, box.shifted(-col * size, -row * size)


def _tile_id(image_id: str, row: int, col: int) -> str:
    return f"{image_id}_r{row}_c{col}"


# ------------------------------------------------------------ file writers


def _write(path: str, data) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    mode = "wb" if isinstance(data, bytes) else "w"
    with open(path, mode) as fh:
        fh.write(data)


def _write_frames(inputs: str, frames, gts: dict[str, list[tuple[Box, int]]]) -> None:
    rows = ["image_id,width,height"] + [f"{i},{w},{h}" for i, w, h in frames]
    _write(os.path.join(inputs, "images.csv"), "\n".join(rows) + "\n")
    for image_id, width, height in frames:
        lines = [
            f"{cls} {b.cx / width:.6f} {b.cy / height:.6f} "
            f"{b.w / width:.6f} {b.h / height:.6f}\n"
            for b, cls in gts[image_id]
        ]
        _write(os.path.join(inputs, "labels", image_id + ".txt"), "".join(lines))


@dataclass(frozen=True)
class Background:
    """Distribution of the logits no planted response overrides."""

    obj_mean: float
    obj_max: float
    cls_mean: float
    cls_sd: float


SPARSE_BACKGROUND = Background(obj_mean=-7.0, obj_max=-3.0, cls_mean=-3.0, cls_sd=2.0)
# objectness capped at sigmoid(-1.5) = 0.18, below every planted score
DENSE_BACKGROUND = Background(obj_mean=-8.5, obj_max=-1.5, cls_mean=0.0, cls_sd=1.5)


def _head(rng: np.random.Generator, side: int, bg: Background) -> np.ndarray:
    raw = rng.standard_normal((3, PER_ANCHOR, side, side), dtype=np.float32)
    raw[:, 2:4] = np.clip(0.5 * raw[:, 2:4], -1.0, 1.0)
    raw[:, 4] = np.minimum(bg.obj_mean + 1.5 * raw[:, 4], bg.obj_max)
    raw[:, 5:] = bg.cls_mean + bg.cls_sd * raw[:, 5:]
    return raw


def _plant(heads: list[np.ndarray], used: set, r: Response) -> None:
    stride = STRIDES[r.scale]
    fx, fy = r.box.cx / stride, r.box.cy / stride
    col, row = int(fx), int(fy)
    fx = min(max(fx - col, 1e-4), 1.0 - 1e-4)
    fy = min(max(fy - row, 1e-4), 1.0 - 1e-4)
    aw, ah = _anchors_for(r.scale)[r.anchor]
    cls_prob = _sigmoid(CLASS_LOGIT)
    key = (r.scale, r.anchor, row, col)
    if key in used:
        raise AssertionError(f"two responses planted in one cell: {r}")
    used.add(key)
    cell = heads[r.scale][r.anchor, :, row, col]
    cell[0:5] = (_logit(fx), _logit(fy), math.log(r.box.w / aw),
                 math.log(r.box.h / ah), _logit(r.score / cls_prob))
    cell[5:] = -CLASS_LOGIT
    cell[5 + r.cls] = CLASS_LOGIT


def _write_tensors(rng, directory: str, stem: str, size: int, bg: Background,
                   responses: list[Response], clear: list[Box]) -> None:
    """Background heads for one tile with ``responses`` planted and no
    background response within CLEAR_PX of a ``clear`` box's center."""
    heads = [_head(rng, size // s, bg) for s in STRIDES]
    for head, stride in zip(heads, STRIDES):
        for b in clear:
            c0, c1 = (int(max(v - CLEAR_PX, 0.0) // stride) for v in (b.cx, b.cy))
            c2, c3 = (int((v + CLEAR_PX) // stride) + 1 for v in (b.cx, b.cy))
            head[:, 4, c1:c3, c0:c2] = -30.0
    used: set = set()
    for r in responses:
        _plant(heads, used, r)
    for head, suffix in zip(heads, SCALE_SUFFIXES):
        c = CHANNELS
        side = head.shape[-1]
        data = struct.pack("<4sIII", b"VCT1", c, side, side)
        data += head.reshape(c, side, side).astype("<f4").tobytes()
        _write(os.path.join(directory, stem + suffix), data)


def _with_copies(rng, box: Box, cls: int, score: float, copies: int) -> list[Response]:
    """A primary response plus ``copies`` lower-scored near-copies at other
    (scale, anchor) slots; each copy has IoU >= 0.81 with the primary."""
    slots = [(s, a) for s in range(3) for a in range(3)]
    picks = rng.permutation(len(slots))[: copies + 1]
    out = []
    for n, k in enumerate(picks):
        s, a = slots[k]
        if n == 0:
            out.append(Response(box, cls, score, s, a))
            continue
        fw, fh = rng.uniform(0.9, 1.1, size=2)
        dup = Box(box.cx, box.cy, box.w * fw, box.h * fh)
        dup_score = 0.30 + (score - 0.30) * rng.uniform(0.3, 0.95)
        out.append(Response(dup, cls, float(dup_score), s, a))
    return out


# ------------------------------------------------------------ expectations


def _observations(flags_by_class: dict[int, list[tuple[float, bool]]],
                  gt_by_class: dict[int, int]) -> dict[str, float]:
    """The observation rows eval appends for one run, from ranked flags."""
    aps = {c: average_precision([t for _, t in sorted(flags_by_class.get(c, []),
                                                       key=lambda f: -f[0])],
                                gt_by_class[c])
           for c in gt_by_class if gt_by_class[c] > 0}
    pooled = sorted((f for fl in flags_by_class.values() for f in fl), key=lambda f: -f[0])
    obs = {"map30": sum(aps.values()) / len(aps),
           "f1max": f1_max([t for _, t in pooled], sum(gt_by_class.values()))}
    for c, ap in sorted(aps.items()):
        obs[f"ap30_{CLASS_NAMES[c]}"] = ap
    return obs


def _blom(n: int) -> list[float]:
    nd = NormalDist()
    return [nd.inv_cdf((i - 0.375) / (n + 0.25)) for i in range(1, n + 1)]


def _write_history(rng, path: str, run_map30: float, run_f1: float) -> None:
    """Earlier runs of the study at tile sizes 320, 416 and 512.

    With this run's own row appended (group 416), map30 holds exactly the 12
    normal plotting positions (the parametric branch) and f1max holds this
    run's value, ten plotting positions around it and one run 30 points low
    (the nonparametric branch)."""
    groups = ["320"] * 4 + ["416"] * 3 + ["512"] * 4

    z = _blom(12)
    k = int(rng.integers(0, 12))
    sd = 0.02
    mean = run_map30 - sd * z[k]
    if mean + sd * z[-1] > 1.0:
        k, mean = 11, run_map30 - sd * z[-1]
    map_vals = [mean + sd * v for i, v in enumerate(z) if i != k]

    center = min(run_f1, 0.97)
    f1_vals = [center + 0.01 * v for v in _blom(10)] + [center - 0.30]

    lines = ["run_id,metric,group,value"]
    counters: dict[str, int] = {}
    run_ids = []
    for g in groups:
        counters[g] = counters.get(g, 0) + 1
        run_ids.append(f"h{g}-{counters[g]}")
    for metric, vals in (("map30", map_vals), ("f1max", f1_vals)):
        order = rng.permutation(len(vals))
        for run_id, g, i in zip(run_ids, groups, order):
            lines.append(f"{run_id},{metric},{g},{vals[i]:.6f}")
    _write(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------- workloads


def _place(rng, frames, sizes, n_slots: int):
    """Objects in ``n_slots`` distinct eligible slots per frame -- one in the
    middle cell and one in each corner cell of each -- with exactly balanced
    classes; returns (objects, empty slots) per frame."""
    objects, empty = {}, {}
    for image_id, width, height in frames:
        slots = _eligible_slots(width, height, sizes)
        order = rng.permutation(len(slots))
        boxes = []
        for k in order[:n_slots]:
            boxes.append(_object_box(rng, slots[k]))
            boxes.extend(_quadrant_boxes(rng, slots[k]))
        classes = rng.permutation(np.arange(len(boxes)) % len(CLASS_NAMES))
        objects[image_id] = [(b, int(c)) for b, c in zip(boxes, classes)]
        empty[image_id] = [slots[k] for k in order[n_slots:]]
    return objects, empty


def _dense(seed: int, inputs: str, rng) -> Plan:
    """One frame cut into 416 px tiles, one detector run decoded at the
    0.001 score and objectness thresholds: every background response
    survives the gates and scores below every planted one."""
    size = 416
    frames = [("plot0", 3328, 2080)]
    missed = 40
    objects, _ = _place(rng, frames, [size], 480)
    objs = objects["plot0"]
    _write_frames(inputs, frames, objects)

    flags: dict[int, list[tuple[float, bool]]] = {c: [] for c in range(len(CLASS_NAMES))}
    tp = {c: 0 for c in flags}
    fn = {c: 0 for c in flags}
    lo, hi = 0.5, 0.97
    n_scored = len(objs) - missed
    scores = iter(lo + (hi - lo) * (rng.permutation(n_scored) + 0.5) / n_scored)
    candidates = 0
    responses: dict[str, list[Response]] = {}
    cleared: dict[str, list[Box]] = {}
    missable = [i for i, (b, _) in enumerate(objs) if max(b.w, b.h) <= 20]
    skip = set(rng.permutation(missable)[:missed].tolist())
    for n, (box, cls) in enumerate(objs):
        row, col, local = _locate(box, size)
        if n in skip:
            cleared.setdefault(_tile_id("plot0", row, col), []).append(local)
            fn[cls] += 1
            continue
        score = float(next(scores))
        rs = _with_copies(rng, local, cls, score, int(rng.integers(1, 4)))
        responses.setdefault(_tile_id("plot0", row, col), []).extend(rs)
        candidates += len(rs)
        flags[cls].append((score, True))
        tp[cls] += 1

    tensors = os.path.join(inputs, "tensors")
    cols, rows = _grid(3328, 2080, size)
    for row in range(rows):
        for col in range(cols):
            stem = _tile_id("plot0", row, col)
            _write_tensors(rng, tensors, stem, size, DENSE_BACKGROUND,
                           responses.get(stem, []), cleared.get(stem, []))

    observations = _observations(flags, {c: tp[c] + fn[c] for c in tp})
    # background detections are false positives whose count only the
    # decoded files tell
    expect = EvalExpect(tp=tp, fn=fn, fp=None, lines=None, observations=observations)
    history = os.path.join(inputs, "history.csv")
    _write_history(rng, history, observations["map30"], observations["f1max"])
    decode_flags = ["--score-threshold", "0.001", "--objectness-threshold", "0.001"]
    return Plan(
        workload="dense-lowscore", seed=seed, inputs=inputs,
        objects=len(objs), tiles={size: cols * rows},
        runs=[DetectorRun(size, "run1", tensors, expect)],
        compares=[("map30", "parametric"), ("f1max", "nonparametric")],
        history=history, decode_flags=decode_flags,
        sizes={"frames": [list(f) for f in frames], "tile_size": size,
               "tiles": cols * rows, "objects": len(objs), "missed": missed,
               "planted_candidates": candidates, "decode_flags": decode_flags},
    )


def _flags_for_ap(target: float, n_gt: int, low_fp: int) -> list[bool]:
    """A ranked TP/FP sequence whose AP is within 1/((m+1) n_gt) of target:
    j hits, one false positive, m - j hits, then ``low_fp`` false positives,
    so AP = (j + (m - j) m / (m + 1)) / n_gt."""
    m = min(n_gt, max(1, math.ceil(target * n_gt)))
    j = min(m, max(0, round(target * n_gt * (m + 1) - m * m)))
    return [True] * j + [False] + [True] * (m - j) + [False] * low_fp


def _study(seed: int, inputs: str, rng) -> Plan:
    """One frame tiled at 320, 416 and 512 px, five detector runs each.

    Class 0 AP targets are the 15 normal plotting positions (parametric
    branch); class 1 has 14 of them plus one run far below the rest, which
    also makes map30 and f1max fail the normality gate."""
    sizes = (320, 416, 512)
    frames = [("field", 1920, 1536)]
    objects, empty = _place(rng, frames, sizes, 90)
    n_objects = len(objects["field"])
    _write_frames(inputs, frames, objects)
    gts = objects["field"]
    fp_spots = [b for slot in empty["field"] for b in _quadrant_boxes(rng, slot)]
    gt_by_class = {c: sum(1 for _, k in gts if k == c) for c in range(len(CLASS_NAMES))}

    keys = [(s, r) for s in sizes for r in range(1, 6)]
    z = _blom(15)
    targets = {0: {}, 1: {}}
    for n, i in enumerate(rng.permutation(15)):
        targets[0][keys[n]] = 0.75 + 0.03 * z[i]
    z14 = _blom(14)
    outlier = int(rng.integers(0, 15))
    order = iter(rng.permutation(14))
    for n, key in enumerate(keys):
        targets[1][key] = 0.30 if n == outlier else 0.80 + 0.025 * z14[next(order)]

    runs = []
    candidates = 0
    for size, r in keys:
        seqs = {c: _flags_for_ap(targets[c][(size, r)], gt_by_class[c], 3)
                for c in targets}
        labels = rng.permutation([c for c in seqs for _ in seqs[c]])
        step = 0.62 / (len(labels) - 1)
        position = {c: 0 for c in seqs}
        hits = {c: iter(rng.permutation([i for i, (_, k) in enumerate(gts) if k == c]))
                for c in seqs}
        misses = iter(rng.permutation(len(fp_spots)))
        flags = {c: [] for c in seqs}
        responses: dict[str, list[Response]] = {}
        for rank, c in enumerate(labels):
            c = int(c)
            is_tp = seqs[c][position[c]]
            position[c] += 1
            score = 0.97 - step * rank
            box = gts[next(hits[c])][0] if is_tp else fp_spots[next(misses)]
            row, col, local = _locate(box, size)
            s, a = int(rng.integers(0, 3)), int(rng.integers(0, 3))
            responses.setdefault(_tile_id("field", row, col), []).append(
                Response(local, c, score, s, a))
            flags[c].append((score, is_tp))
        candidates += len(labels)
        directory = os.path.join(inputs, "tensors", str(size), f"r{r}")
        cols, rows = _grid(1920, 1536, size)
        for row in range(rows):
            for col in range(cols):
                stem = _tile_id("field", row, col)
                _write_tensors(rng, directory, stem, size, SPARSE_BACKGROUND,
                               responses.get(stem, []), [])
        tp = {c: sum(seqs[c]) for c in seqs}
        fp = {c: len(seqs[c]) - tp[c] for c in seqs}
        runs.append(DetectorRun(
            size, f"s{size}r{r}", directory,
            EvalExpect(tp=tp, fn={c: gt_by_class[c] - tp[c] for c in seqs}, fp=fp,
                       lines=len(labels), observations=_observations(flags, gt_by_class)),
        ))
    tiles = {s: math.prod(_grid(1920, 1536, s)) for s in sizes}
    return Plan(
        workload="study-3x5", seed=seed, inputs=inputs,
        objects=n_objects, tiles=tiles, runs=runs,
        compares=[("map30", "nonparametric"), ("f1max", "nonparametric"),
                  (f"ap30_{CLASS_NAMES[0]}", "parametric"),
                  (f"ap30_{CLASS_NAMES[1]}", "nonparametric")],
        history=None,
        sizes={"frames": [list(f) for f in frames], "tile_sizes": list(sizes),
               "tiles": {str(s): n for s, n in tiles.items()}, "objects": n_objects,
               "runs_per_size": 5, "planted_candidates": candidates},
    )


def generate(workload: str, seed: int, out_dir: str) -> Plan:
    """Write the inputs of ``workload`` for ``seed`` under ``out_dir``."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "dense-lowscore":
        return _dense(seed, out_dir, rng)
    if workload == "study-3x5":
        return _study(seed, out_dir, rng)
    raise ValueError(f"unknown workload {workload!r}")
