"""Detector-head numerics: box decode, grid bookkeeping, activation ops.

Everything here is framework-free numpy. Tensors are channel-major
(C, H, W) float arrays; per-anchor channel blocks are laid out as
(t_x, t_y, t_w, t_h, t_obj, class logits...).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import _kernels
from ._kernels import sigmoid
from .boxes import BoundingBox, Detection, DetectionArrays, GroundTruthBox, detection_rules, first_fault
from .errors import DegenerateBox, EmptyInput, NotMultipleOf32, OutOfBounds, ShapeMismatch

ANCHORS_PER_SCALE = 3
BN_EPS = 1e-5

#: Canonical Darknet anchor priors (width, height) in input-image pixels,
#: ordered smallest to largest; the finest grid takes the first three.
DEFAULT_ANCHORS: tuple[tuple[float, float], ...] = (
    (10.0, 13.0), (16.0, 30.0), (33.0, 23.0),
    (30.0, 61.0), (62.0, 45.0), (59.0, 119.0),
    (116.0, 90.0), (156.0, 198.0), (373.0, 326.0),
)

#: The detection scales, coarsest grid first: each one's pixel stride and
#: the position in the anchors of the first of its ANCHORS_PER_SCALE
#: anchors, so the coarsest grid takes the largest.
SCALES: tuple[tuple[int, int], ...] = ((32, 6), (16, 3), (8, 0))


def relu(x):
    """max(x, 0), elementwise on arrays."""
    if np.isscalar(x) or np.ndim(x) == 0:
        return x if x > 0 else 0.0 * x
    return np.maximum(x, 0)


def softmax(v) -> np.ndarray:
    """Normalized exponentials of a non-empty vector.

    Stabilized by max subtraction, which leaves the result unchanged
    (shift invariance) but avoids overflow for large inputs.
    """
    arr = np.asarray(v, dtype=np.float64)
    if arr.size == 0:
        raise EmptyInput("softmax input is empty")
    if arr.ndim != 1:
        raise ShapeMismatch(f"softmax expects a vector, got shape {arr.shape}")
    shifted = np.exp(arr - arr.max())
    return shifted / shifted.sum()


@dataclass(frozen=True)
class RawCellPrediction:
    """Raw head activations for one anchor at one grid cell."""

    t_x: float
    t_y: float
    t_w: float
    t_h: float
    t_obj: float
    t_class: tuple[float, ...]

    def __post_init__(self):
        vals = (self.t_x, self.t_y, self.t_w, self.t_h, self.t_obj, *self.t_class)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("raw prediction values must be finite")
        if len(self.t_class) < 1:
            raise ValueError("at least one class logit is required")


@dataclass(frozen=True)
class AnchorBox:
    p_w: float
    p_h: float

    def __post_init__(self):
        if not (self.p_w > 0 and self.p_h > 0):
            raise ValueError("anchor sides must be > 0")


@dataclass(frozen=True)
class GridCell:
    c_x: int
    c_y: int
    stride: int

    def __post_init__(self):
        if self.c_x < 0 or self.c_y < 0:
            raise ValueError("cell indices must be >= 0")
        if self.stride <= 0:
            raise ValueError("stride must be > 0")


@dataclass(frozen=True)
class DecodedDetection:
    """Center-format decode of a single cell/anchor pair, pixel units."""

    center_x: float
    center_y: float
    width: float
    height: float
    score: float
    class_id: int

    def to_corner(self) -> Detection:
        box = BoundingBox(
            self.center_x - self.width / 2.0,
            self.center_y - self.height / 2.0,
            self.width,
            self.height,
        )
        return Detection(box=box, class_id=self.class_id, score=self.score)


def decode_cell(raw: RawCellPrediction, cell: GridCell, anchor: AnchorBox) -> DecodedDetection:
    """Transform raw t-values at one cell into a pixel-space detection.

    Centers are the cell origin plus a sigmoid offset, scaled by stride, so
    the decoded center can never leave its cell; sizes scale the anchor by
    an exponential. Class probabilities are independent sigmoids and the
    reported score is objectness times the best class probability.
    """
    bx = (cell.c_x + sigmoid(raw.t_x)) * cell.stride
    by = (cell.c_y + sigmoid(raw.t_y)) * cell.stride
    bw = anchor.p_w * math.exp(raw.t_w)
    bh = anchor.p_h * math.exp(raw.t_h)
    probs = [sigmoid(t) for t in raw.t_class]
    best = max(range(len(probs)), key=lambda i: (probs[i], -i))
    return DecodedDetection(
        center_x=bx,
        center_y=by,
        width=bw,
        height=bh,
        score=sigmoid(raw.t_obj) * probs[best],
        class_id=best,
    )


def grid_shape(input_size: int) -> tuple[int, int, int]:
    """Grid side lengths of the detection scales, SCALES' order."""
    if input_size <= 0 or input_size % 32 != 0:
        raise NotMultipleOf32(f"input size {input_size} is not a positive multiple of 32")
    return tuple(input_size // stride for stride, _ in SCALES)


NON_FINITE_HEAD = "head tensor values must be finite"


def check_head_shape(shape: tuple[int, ...]) -> None:
    """Raise ShapeMismatch unless ``shape`` is (C, H, W) with H, W >= 1 and
    C = 3·(5+K) for an integer class count K >= 1."""
    if len(shape) != 3:
        raise ShapeMismatch(f"expected a (C, H, W) array, got {len(shape)}-D")
    c, h, w = shape
    if h < 1 or w < 1:
        raise ShapeMismatch("spatial dimensions must be positive")
    if c % ANCHORS_PER_SCALE != 0 or c // ANCHORS_PER_SCALE < 6:
        raise ShapeMismatch(
            f"channel count {c} is not 3*(5+K) for any class count K >= 1"
        )


@dataclass(frozen=True)
class RawHeadTensor:
    """One scale's raw head output, channel-major (C, H, W).

    C must be 3·(5+K) for an integer class count K >= 1; the per-anchor
    block is (t_x, t_y, t_w, t_h, t_obj, K class logits).
    """

    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        check_head_shape(arr.shape)
        if not np.isfinite(arr).all():
            raise ValueError(NON_FINITE_HEAD)
        object.__setattr__(self, "values", arr)

    @property
    def channels(self) -> int:
        return self.values.shape[0]

    @property
    def height(self) -> int:
        return self.values.shape[1]

    @property
    def width(self) -> int:
        return self.values.shape[2]

    @property
    def num_classes(self) -> int:
        return self.channels // ANCHORS_PER_SCALE - 5


def decode_head(
    tensor: RawHeadTensor,
    anchors: Sequence[AnchorBox],
    stride: int,
    score_threshold: float,
    objectness_threshold: float = 0.0,
) -> DetectionArrays:
    """Decode every (cell, anchor) candidate and keep those whose score
    clears score_threshold (and whose objectness clears objectness_threshold,
    which defaults to "keep everything").

    Output boxes are corner format in input-image pixels, in (anchor, row,
    column) scan order, as the columns of a DetectionArrays. A kept
    candidate that is not a valid Detection (e.g. a size logit so large
    that its side overflows) raises DegenerateBox with the reason the
    Detection would give. This is the one-head case of decode_heads, the
    decode the CLI runs.
    """
    if len(anchors) != ANCHORS_PER_SCALE:
        raise ShapeMismatch(f"expected {ANCHORS_PER_SCALE} anchors, got {len(anchors)}")
    if not 0.0 <= score_threshold <= 1.0:
        raise ValueError("score_threshold must be in [0, 1]")
    if not 0.0 <= objectness_threshold <= 1.0:
        raise ValueError("objectness_threshold must be in [0, 1]")
    k = tensor.num_classes
    raw = tensor.values.reshape(ANCHORS_PER_SCALE, 5 + k, tensor.height, tensor.width)
    # score <= objectness, so a cell whose objectness is below either
    # threshold fails; gate on the raw logit before any sigmoid
    gate = _kernels.logit_gate(max(score_threshold, objectness_threshold), raw.dtype)
    anchor_arr = np.array([[(a.p_w, a.p_h) for a in anchors]], dtype=np.float64)
    dets, _, fault = decode_heads([_kernels.gate_cells(raw, gate)], anchor_arr,
                                  np.array([stride], dtype=np.float64),
                                  score_threshold, objectness_threshold)
    if fault:
        raise fault[1]
    return dets


def decode_heads(heads, anchors, strides, score_threshold, objectness_threshold):
    """Decode the gated cells of one or more heads at once.

    heads: _kernels.gate_cells results, one per head; anchors: (heads, A,
    2) array, head h's anchors' pixel (width, height) at anchors[h];
    strides: (heads,) array of each head's pixel stride. A cell is kept as
    _kernels.decode_cells keeps it.

    Returns (dets, head, fault): the kept rows as a DetectionArrays, in
    the heads' order and each head's scan order, with the scores clamped
    to 1; each row's head; and None, or (head, DegenerateBox) for the
    first row that breaks Detection's rules, counted from the first row of
    its own head. With a fault, dets is None, as a bad box's corners are
    not formed, so no overflow warning escapes.
    """
    cells, ai, yi, xi = map(np.concatenate, zip(*heads))
    head = np.repeat(np.arange(len(heads)), [len(h[0]) for h in heads])
    xywh, score, class_id, kept = _kernels.decode_cells(
        cells, anchors[head, ai], strides[head], xi, yi, score_threshold, objectness_threshold)
    head = head[kept]
    score = np.minimum(score, 1.0)
    fault = first_fault(detection_rules(score, class_id, xywh))
    if fault:
        row, _, reason = fault
        h = int(head[row])
        row -= int(np.searchsorted(head, h))
        return None, head, (h, DegenerateBox(f"decoded detection {row}: {reason}"))
    return DetectionArrays(score, class_id, xywh), head, None


def assign_responsible_cells(
    gt: Sequence[GroundTruthBox], grid_side: int, input_size: int
) -> dict[int, tuple[int, int]]:
    """Map each ground-truth index to the (c_x, c_y) cell containing its
    center, using the floor convention: a center sitting exactly on a cell
    border belongs to the higher-index cell. A center exactly on the far
    image edge (still inside the image) takes the last cell.
    """
    if grid_side <= 0:
        raise ValueError("grid_side must be > 0")
    if input_size <= 0:
        raise ValueError("input_size must be > 0")
    stride = input_size / grid_side
    assignment: dict[int, tuple[int, int]] = {}
    for idx, g in enumerate(gt):
        cx, cy = g.box.center
        if not (0.0 <= cx <= input_size and 0.0 <= cy <= input_size):
            raise OutOfBounds(
                f"ground truth {idx} center ({cx:g}, {cy:g}) outside [0, {input_size}]^2"
            )
        col = min(int(cx // stride), grid_side - 1)
        row = min(int(cy // stride), grid_side - 1)
        assignment[idx] = (col, row)
    return assignment


@dataclass(frozen=True)
class BatchNormParams:
    """Per-channel batch-norm statistics and affine parameters."""

    mean: np.ndarray
    variance: np.ndarray
    scale: np.ndarray
    shift: np.ndarray

    def __post_init__(self):
        arrs = {}
        for name in ("mean", "variance", "scale", "shift"):
            a = np.asarray(getattr(self, name), dtype=np.float64)
            if a.ndim != 1:
                raise ShapeMismatch(f"{name} must be a per-channel vector")
            arrs[name] = a
        n = {a.shape[0] for a in arrs.values()}
        if len(n) != 1:
            raise ShapeMismatch("batch-norm parameter lengths disagree")
        if (arrs["variance"] < 0).any():
            raise ValueError("variance must be >= 0")
        for name, a in arrs.items():
            object.__setattr__(self, name, a)

    @classmethod
    def identity(cls, channels: int) -> "BatchNormParams":
        return cls(
            mean=np.zeros(channels),
            variance=np.ones(channels),
            scale=np.ones(channels),
            shift=np.zeros(channels),
        )

    def apply(self, x: np.ndarray) -> np.ndarray:
        if x.shape[0] != self.mean.shape[0]:
            raise ShapeMismatch(
                f"batch-norm expects {self.mean.shape[0]} channels, got {x.shape[0]}"
            )
        inv = self.scale / np.sqrt(self.variance + BN_EPS)
        return (x - self.mean[:, None, None]) * inv[:, None, None] + self.shift[:, None, None]

    def is_identity(self) -> bool:
        return bool(
            (self.mean == 0).all()
            and (self.variance == 1).all()
            and (self.scale == 1).all()
            and (self.shift == 0).all()
        )


@dataclass(frozen=True)
class ResidualBlockWeights:
    """Two convolution kernels plus the batch-norm parameters applied
    before each, matching f(y) = W * relu(bn2(W' * relu(bn1(y))))."""

    w_prime: np.ndarray
    w: np.ndarray
    bn1: BatchNormParams
    bn2: BatchNormParams

    def __post_init__(self):
        wp = np.asarray(self.w_prime, dtype=np.float64)
        w = np.asarray(self.w, dtype=np.float64)
        for name, k in (("w_prime", wp), ("w", w)):
            if k.ndim != 4:
                raise ShapeMismatch(f"{name} must be (out, in, kh, kw)")
            if k.shape[2] % 2 == 0 or k.shape[3] % 2 == 0:
                raise ShapeMismatch(f"{name} kernel sides must be odd for same-padding")
        if wp.shape[0] != w.shape[1]:
            raise ShapeMismatch("W input channels must match W' output channels")
        if self.bn2.mean.shape[0] != wp.shape[0]:
            raise ShapeMismatch("bn2 channel count must match W' output channels")
        object.__setattr__(self, "w_prime", wp)
        object.__setattr__(self, "w", w)

    @classmethod
    def zero(cls, channels: int, hidden: int | None = None, ksize: int = 1) -> "ResidualBlockWeights":
        hidden = channels if hidden is None else hidden
        return cls(
            w_prime=np.zeros((hidden, channels, ksize, ksize)),
            w=np.zeros((channels, hidden, ksize, ksize)),
            bn1=BatchNormParams.identity(channels),
            bn2=BatchNormParams.identity(hidden),
        )


def _conv_same(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Stride-1 cross-correlation with zero same-padding.

    x: (C_in, H, W); kernel: (C_out, C_in, kh, kw) -> (C_out, H, W).
    """
    if x.shape[0] != kernel.shape[1]:
        raise ShapeMismatch(
            f"convolution expects {kernel.shape[1]} input channels, got {x.shape[0]}"
        )
    kh, kw = kernel.shape[2], kernel.shape[3]
    padded = np.pad(x, ((0, 0), (kh // 2, kh // 2), (kw // 2, kw // 2)))
    windows = np.lib.stride_tricks.sliding_window_view(padded, (kh, kw), axis=(1, 2))
    # windows: (C_in, H, W, kh, kw); contract channel and kernel axes
    return np.einsum("cxyhw,ochw->oxy", windows, kernel)


def residual_block_forward(y_prev: np.ndarray, weights: ResidualBlockWeights) -> np.ndarray:
    """One residual unit: y = f(y_prev) + y_prev.

    The residual branch normalizes, rectifies and convolves twice; the skip
    connection is a plain elementwise addition, so input and output shapes
    are identical. With all-zero kernels the branch vanishes and the input
    passes through bit-for-bit.
    """
    y = np.asarray(y_prev, dtype=np.float64)
    if y.ndim != 3:
        raise ShapeMismatch(f"expected a (C, H, W) input, got {y.ndim}-D")
    if (weights.w == 0).all() and (weights.w_prime == 0).all():
        # the residual branch is identically zero; skip the arithmetic so
        # the pass-through is bit-exact
        return y.copy()
    h = _conv_same(relu(weights.bn1.apply(y)), weights.w_prime)
    f = _conv_same(relu(weights.bn2.apply(h)), weights.w)
    if f.shape != y.shape:
        raise ShapeMismatch(f"residual branch produced {f.shape}, input is {y.shape}")
    return f + y
