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
import random
import struct
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain
from typing import Iterator, NoReturn, Optional

import numpy as np

from .boxes import (
    Detection,
    DetectionArrays,
    GroundTruthBox,
    LabelArrays,
    box_rules,
    clip_to,
    first_fault,
)
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

    The id names the image's files (``<id>.txt``, ``<id>_r<row>_c<col>.txt``),
    so it must be a plain file name: not empty, ``.`` or ``..``, and without
    ``/`` or NUL. Boxes are clipped to the image extent on construction;
    boxes that fall entirely outside are dropped.
    """

    image_id: str
    width: int
    height: int
    ground_truths: tuple[GroundTruthBox, ...] = ()

    def __post_init__(self):
        if not self.image_id:
            raise ValueError("image_id must be non-empty")
        if "/" in self.image_id or "\0" in self.image_id or self.image_id in (".", ".."):
            raise ValueError(f"image id {self.image_id!r} is not a plain file name")
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


def _split_rows(content: str) -> tuple[list[list[str]], list[list[str]]]:
    """The fields of every line, and those of the lines that are neither
    blank nor ``#`` comments."""
    parts = list(map(str.split, content.splitlines()))
    rows = list(filter(None, parts))
    if "#" in content:
        rows = [p for p in rows if not p[0].startswith("#")]
    return parts, rows


def _row_fault(row: list[str], n: int) -> Optional[str]:
    """Why a row of fields does not convert, or None: another field count
    than n, a field that is not a number, or a class id outside
    [0, 2^63 - 1]."""
    if len(row) != n:
        return f"expected {n} fields, got {len(row)}"
    try:
        class_id = int(row[0])
        list(map(float, row[1:]))
    except ValueError:
        return "non-numeric field"
    if class_id < 0:
        return f"negative class id {class_id}"
    if class_id > _INT64_MAX:
        return f"class id {class_id} does not fit in 64 bits"
    return None


def _columns(rows: list[list[str]], n: int) -> tuple[np.ndarray, np.ndarray, Optional[tuple]]:
    """The first field of each row as int64 class ids and the other n - 1
    as float64 columns, for the rows before the first that does not
    convert (see _row_fault); and that row's fault as (position,
    MalformedLine, reason), or None when every row converts. Every field is
    converted once; the rows are scanned one by one only when that fails."""
    try:
        if rows and set(map(len, rows)) != {n}:
            raise ValueError("field count")
        fields = list(chain.from_iterable(rows))
        class_id = np.array(list(map(int, fields[0::n])), dtype=np.int64)
        if (class_id < 0).any():
            raise ValueError("negative class id")
        del fields[0::n]
        values = np.array(list(map(float, fields)), dtype=np.float64).reshape(-1, n - 1)
        return class_id, values, None
    except (ValueError, OverflowError):
        k, reason = next((k, r) for k, r in enumerate(_row_fault(row, n) for row in rows) if r)
        class_id, values, _ = _columns(rows[:k], n)
        return class_id, values, (k, MalformedLine, reason)


def _raise_fault(parts: list[list[str]], row: int, error: type, reason) -> NoReturn:
    """Raise error(line number, reason) for the row-th line that is
    neither blank nor a ``#`` comment."""
    line_nos = [k + 1 for k, p in enumerate(parts) if p and not p[0].startswith("#")]
    raise error(line_nos[row], reason)


def parse_label_file(content: str, image_w: int, image_h: int) -> LabelArrays:
    """Parse normalized center-format labels into pixel corner-format boxes.

    Fields cx, cy must lie in [0,1] and w, h in (0,1]; the converted pixel
    box is clipped to the image so annotations that overhang an edge (legal
    in the normalized encoding, e.g. cx=0.9 w=0.4) stay within bounds, and
    a box left empty by the clip is dropped. The lines are split once and
    every field is converted once; the rules then run over all rows as
    array operations, and a file that breaks any raises the error of its
    first bad line. A line is checked in this order: field count,
    non-numeric field, class id outside [0, 2^63 - 1] (MalformedLine);
    cx, cy, w, h in range, then BoundingBox's checks of the pixel box
    (OutOfRange).
    """
    parts, rows = _split_rows(content)
    class_id, values, unconverted = _columns(rows, 5)
    extent_w, extent_h = float(image_w), float(image_h)
    cx, cy, w, h = values.T
    with np.errstate(over="ignore", invalid="ignore"):
        x_min = (cx - w / 2.0) * extent_w
        y_min = (cy - h / 2.0) * extent_h
        width = w * extent_w
        height = h * extent_h
    fault = first_fault([
        (~((cx >= 0.0) & (cx <= 1.0)), OutOfRange, lambda i: f"cx={cx[i]:g} outside [0, 1]"),
        (~((cy >= 0.0) & (cy <= 1.0)), OutOfRange, lambda i: f"cy={cy[i]:g} outside [0, 1]"),
        (~((w > 0.0) & (w <= 1.0)), OutOfRange, lambda i: f"w={w[i]:g} outside (0, 1]"),
        (~((h > 0.0) & (h <= 1.0)), OutOfRange, lambda i: f"h={h[i]:g} outside (0, 1]"),
        *box_rules(x_min, y_min, width, height, OutOfRange),
    ]) or unconverted
    if fault:
        _raise_fault(parts, *fault)
    # clip_to, as columns; max(v, 0.0) keeps a -0.0, as np.maximum does not
    x1, y1 = np.where(x_min < 0.0, 0.0, x_min), np.where(y_min < 0.0, 0.0, y_min)
    clipped_w = np.minimum(x_min + width, extent_w) - x1
    clipped_h = np.minimum(y_min + height, extent_h) - y1
    keep = (clipped_w > 0.0) & (clipped_h > 0.0)
    xywh = np.stack((x1, y1, clipped_w, clipped_h), axis=1)
    return LabelArrays(class_id[keep], xywh[keep])


def write_label_file(
    boxes: Sequence[GroundTruthBox], image_w: int, image_h: int
) -> str:
    """Inverse of parse_label_file: pixel corner boxes to normalized
    ``class_id cx cy w h`` lines, six decimal places, formatted from the
    columns."""
    cols = LabelArrays.of(boxes)
    x, y, w, h = cols.xywh.T
    with np.errstate(over="ignore"):
        normalized = ((x + w / 2.0) / image_w, (y + h / 2.0) / image_h, w / image_w, h / image_h)
    rows = zip(cols.class_id.tolist(), *(c.tolist() for c in normalized))
    return "".join(map("%d %.6f %.6f %.6f %.6f\n".__mod__, rows))


def parse_detection_file(content: str) -> DetectionArrays:
    """Parse ``class_id score x_min y_min width height`` lines.

    The lines are split once and every field is converted once; the rules
    then run over all rows as array operations, and a file that breaks any
    raises the error of its first bad line. A line is checked in this
    order: field count, non-numeric field, class id outside [0, 2^63 - 1]
    (MalformedLine); score in [0, 1] (ScoreOutOfRange); sides > 0, then
    BoundingBox's checks (OutOfRange).
    """
    parts, rows = _split_rows(content)
    class_id, values, unconverted = _columns(rows, 6)
    score, xywh = values[:, 0], values[:, 1:]
    x_min, y_min, width, height = xywh.T
    fault = first_fault([
        (~((score >= 0.0) & (score <= 1.0)), ScoreOutOfRange, lambda i: float(score[i])),
        ((width <= 0.0) | (height <= 0.0), OutOfRange, "box sides must be > 0"),
        *box_rules(x_min, y_min, width, height, OutOfRange),
    ]) or unconverted
    if fault:
        _raise_fault(parts, *fault)
    return DetectionArrays(score.copy(), class_id, xywh.copy())


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
    carried = len(data) - _TENSOR_HEADER.size
    if carried < expected:
        raise TruncatedPayload(
            f"payload carries {carried} bytes, header declares {expected}"
        )
    # a view of the payload in ``data``; astype makes the one copy
    values = np.frombuffer(data, dtype="<f4", count=count, offset=_TENSOR_HEADER.size)
    values = values.reshape(c, h, w)
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
