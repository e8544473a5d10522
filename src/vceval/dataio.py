"""File formats and dataset plumbing.

Four wire formats live here:

* label files — darknet-style text, one `class_id cx cy w h` per line with
  normalized center-format coordinates;
* detection files — `class_id score x_min y_min width height` per line in
  pixels, six decimal places, `#` comment lines allowed;
* raw-tensor files — binary, magic ``VCT1`` + u32le C,H,W + C*H*W f32le
  values in channel-major order;
* image manifests — CSV of image_id,width,height.

Plus the seeded 4:1-style train/test split.
"""

from __future__ import annotations

import csv
import io
import math
import random
import struct
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator

import numpy as np

from .boxes import BoundingBox, Detection, DetectionArrays, GroundTruthBox, clip_to, valid_detections
from .errors import (
    BadMagic,
    EmptyDataset,
    MalformedLine,
    NonFinitePayload,
    OutOfRange,
    ScoreOutOfRange,
    ShapeOverflow,
    TruncatedPayload,
    UnreadableCSV,
)
from .netops import RawHeadTensor

TENSOR_MAGIC = b"VCT1"
_TENSOR_HEADER = struct.Struct("<4sIII")
# sanity ceiling on declared element counts; anything larger cannot be a
# real head tensor and would make the reader attempt a multi-GiB allocation
MAX_TENSOR_ELEMENTS = 2**31
_INT64_MAX = 2**63 - 1


@dataclass(frozen=True)
class AnnotatedImage:
    """An image entry: identity, extent, and its ground-truth boxes.

    Boxes are clipped to the image extent on construction; boxes that fall
    entirely outside are dropped.
    """

    image_id: str
    width: int
    height: int
    ground_truths: tuple[GroundTruthBox, ...] = ()

    def __post_init__(self):
        if not self.image_id:
            raise ValueError("image_id must be non-empty")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image extent must be positive")
        clipped = []
        for g in self.ground_truths:
            box = clip_to(g.box, self.width, self.height)
            if box is not None:
                clipped.append(GroundTruthBox(box=box, class_id=g.class_id))
        object.__setattr__(self, "ground_truths", tuple(clipped))


@dataclass(frozen=True)
class DatasetSplit:
    train: tuple[str, ...]
    test: tuple[str, ...]
    seed: int

    def __post_init__(self):
        if set(self.train) & set(self.test):
            raise ValueError("train and test sets overlap")


def _lines(content: str) -> Iterable[tuple[int, str]]:
    for line_no, raw in enumerate(content.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield line_no, line


def _check_class_id(line_no: int, class_id: int) -> None:
    if class_id < 0:
        raise MalformedLine(line_no, f"negative class id {class_id}")
    if class_id > _INT64_MAX:
        raise MalformedLine(line_no, f"class id {class_id} does not fit in 64 bits")


def parse_label_file(content: str, image_w: int, image_h: int) -> list[GroundTruthBox]:
    """Parse normalized center-format labels into pixel corner-format boxes.

    Fields cx, cy must lie in [0,1] and w, h in (0,1]; the converted pixel
    box is clipped to the image so annotations that overhang an edge (legal
    in the normalized encoding, e.g. cx=0.9 w=0.4) stay within bounds.
    """
    out: list[GroundTruthBox] = []
    for line_no, line in _lines(content):
        parts = line.split()
        if len(parts) != 5:
            raise MalformedLine(line_no, f"expected 5 fields, got {len(parts)}")
        try:
            class_id = int(parts[0])
            cx, cy, w, h = (float(p) for p in parts[1:])
        except ValueError:
            raise MalformedLine(line_no, "non-numeric field") from None
        _check_class_id(line_no, class_id)
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
        clipped = clip_to(box, image_w, image_h)
        if clipped is not None:
            out.append(GroundTruthBox(box=clipped, class_id=class_id))
    return out


def write_label_file(
    boxes: Sequence[GroundTruthBox], image_w: int, image_h: int
) -> str:
    """Inverse of parse_label_file: pixel corner boxes to normalized lines."""
    lines = []
    for g in boxes:
        cx, cy = g.box.center
        lines.append(
            f"{g.class_id} {cx / image_w:.6f} {cy / image_h:.6f} "
            f"{g.box.width / image_w:.6f} {g.box.height / image_h:.6f}"
        )
    return "".join(line + "\n" for line in lines)


def _check_detection_line(line_no: int, parts: list[str]) -> None:
    """Raise the error of one split detection line, if it has one. The
    checks run in this order, so a line reports the first that fails."""
    if len(parts) != 6:
        raise MalformedLine(line_no, f"expected 6 fields, got {len(parts)}")
    try:
        class_id = int(parts[0])
        score, *box = (float(p) for p in parts[1:])
    except ValueError:
        raise MalformedLine(line_no, "non-numeric field") from None
    _check_class_id(line_no, class_id)
    if not 0.0 <= score <= 1.0:
        raise ScoreOutOfRange(line_no, score)
    if box[2] <= 0 or box[3] <= 0:
        raise OutOfRange(line_no, "box sides must be > 0")
    for name, v in zip(("x_min", "y_min", "width", "height"), box):
        if not math.isfinite(v):
            raise OutOfRange(line_no, f"{name} must be finite")
    if not math.isfinite(box[2] * box[3]):
        raise OutOfRange(line_no, "box area must be finite")


def parse_detection_file(content: str) -> DetectionArrays:
    """Parse ``class_id score x_min y_min width height`` lines.

    The lines are split once and every field is converted once; the checks
    of _check_detection_line then run over all lines as array operations.
    A file that fails any of them raises the error of its first bad line.
    """
    parts = list(map(str.split, content.splitlines()))
    rows = list(filter(None, parts))
    if "#" in content:
        rows = [p for p in rows if not p[0].startswith("#")]
    first_bad = 0
    try:
        if rows and set(map(len, rows)) != {6}:
            raise ValueError("field count")
        fields = list(chain.from_iterable(rows))
        class_id = np.array(list(map(int, fields[0::6])), dtype=np.int64)
        del fields[0::6]
        values = np.array(list(map(float, fields)), dtype=np.float64).reshape(-1, 5)
    except (ValueError, OverflowError):
        pass  # a field count, a field or a class id is bad; the scan below finds it
    else:
        score, xywh = values[:, 0], values[:, 1:]
        ok = valid_detections(score, class_id, xywh)
        if ok.all():
            return DetectionArrays(score.copy(), class_id, xywh.copy())
        first_bad = int(np.argmin(ok))
    line_nos = [k + 1 for k, p in enumerate(parts) if p and not p[0].startswith("#")]
    for k in range(first_bad, len(rows)):
        _check_detection_line(line_nos[k], rows[k])
    raise AssertionError("the vectorised detection checks disagree with the per-line ones")


def write_detection_file(dets: Sequence[Detection]) -> str:
    """One ``class_id score x_min y_min width height`` line per detection,
    every float at six decimal places, formatted from the columns."""
    cols = DetectionArrays.of(dets)
    rows = zip(cols.class_id.tolist(), cols.score.tolist(), *cols.xywh.T.tolist())
    return "".join(map("%d %.6f %.6f %.6f %.6f %.6f\n".__mod__, rows))


def write_tensor(tensor: RawHeadTensor) -> bytes:
    """Serialize a head tensor: ``VCT1`` magic, u32le C,H,W, then the
    values as f32le in channel-major order."""
    header = _TENSOR_HEADER.pack(
        TENSOR_MAGIC, tensor.channels, tensor.height, tensor.width
    )
    payload = np.ascontiguousarray(tensor.values, dtype="<f4").tobytes()
    return header + payload


def read_tensor(data: bytes) -> RawHeadTensor:
    if len(data) < _TENSOR_HEADER.size:
        if data[: min(len(data), 4)] != TENSOR_MAGIC[: min(len(data), 4)]:
            raise BadMagic(f"expected magic {TENSOR_MAGIC!r}")
        raise TruncatedPayload(
            f"header needs {_TENSOR_HEADER.size} bytes, got {len(data)}"
        )
    magic, c, h, w = _TENSOR_HEADER.unpack_from(data)
    if magic != TENSOR_MAGIC:
        raise BadMagic(f"expected magic {TENSOR_MAGIC!r}, got {magic!r}")
    count = c * h * w
    if count > MAX_TENSOR_ELEMENTS:
        raise ShapeOverflow(f"declared shape {c}x{h}x{w} is beyond the element cap")
    expected = count * 4
    payload = data[_TENSOR_HEADER.size :]
    if len(payload) < expected:
        raise TruncatedPayload(
            f"payload carries {len(payload)} bytes, header declares {expected}"
        )
    values = np.frombuffer(payload[:expected], dtype="<f4").reshape(c, h, w)
    try:
        return RawHeadTensor(values=values.astype(np.float64))
    except ValueError as exc:  # the only ValueError: non-finite values
        raise NonFinitePayload(str(exc)) from None


def split_dataset(
    ids: Sequence[str], ratio_train: int, ratio_test: int, seed: int
) -> DatasetSplit:
    """Seeded-shuffle partition into train and test.

    The test set takes the first round(n * ratio_test / (ratio_train +
    ratio_test)) entries of the shuffled order (half-up rounding), the rest
    train. Same ids + same seed always reproduce the same split.
    """
    if not ids:
        raise EmptyDataset("cannot split an empty id list")
    if ratio_train <= 0 or ratio_test <= 0:
        raise ValueError("ratios must be positive")
    if len(set(ids)) != len(ids):
        raise ValueError("image ids must be unique")
    shuffled = list(ids)
    random.Random(seed).shuffle(shuffled)
    exact = len(ids) * ratio_test / (ratio_train + ratio_test)
    n_test = int(exact + 0.5)  # half-up, independent of banker's rounding
    n_test = min(max(n_test, 0), len(ids))
    return DatasetSplit(
        train=tuple(shuffled[n_test:]), test=tuple(shuffled[:n_test]), seed=seed
    )


def read_csv_table(content: str, what: str) -> tuple[int, list[str], Iterator[tuple[int, list[str]]]]:
    """The header of a CSV text, stripped, with its line number, and the
    ``(line number, fields)`` of each later row. Blank rows are skipped but
    counted, so line numbers are those of the text. A row with another field
    count than the header raises MalformedLine when the iteration reaches
    it; an empty text gives line 0 and an empty header."""
    reader = csv.reader(io.StringIO(content))
    try:
        rows = [(reader.line_num, row) for row in reader if any(f.strip() for f in row)]
    except csv.Error as exc:
        raise UnreadableCSV(f"{what} is not readable CSV: {exc}") from None
    if not rows:
        return 0, [], iter(())
    (header_line, header), rows = rows[0], rows[1:]
    header = [f.strip() for f in header]

    def body():
        for line_no, row in rows:
            if len(row) != len(header):
                raise MalformedLine(line_no, f"expected {len(header)} fields, got {len(row)}")
            yield line_no, row

    return header_line, header, body()


def read_image_manifest(content: str) -> list[AnnotatedImage]:
    """CSV of image_id,width,height (header required, ids unique); ground
    truths are attached separately from label files."""
    header_line, header, rows = read_csv_table(content, "image manifest")
    if not header:
        raise EmptyDataset("manifest has no rows")
    if header != ["image_id", "width", "height"]:
        raise MalformedLine(header_line, f"bad manifest header {header}")
    images = {}
    for line_no, (image_id, width, height) in rows:
        try:
            image = AnnotatedImage(image_id.strip(), int(width), int(height))
        except ValueError as exc:
            raise MalformedLine(line_no, str(exc)) from None
        if image.image_id in images:
            raise MalformedLine(line_no, f"duplicate image id {image.image_id!r}")
        images[image.image_id] = image
    return list(images.values())


def write_image_manifest(images: Sequence[AnnotatedImage]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["image_id", "width", "height"])
    for img in images:
        writer.writerow([img.image_id, img.width, img.height])
    return buf.getvalue()
