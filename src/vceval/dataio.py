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

import bisect
import csv
import io
import random
import struct
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import Iterator, Optional

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
    FormatError,
    MalformedLine,
    NonFinitePayload,
    OutOfRange,
    ScoreOutOfRange,
    ShapeOverflow,
    TruncatedPayload,
    UnreadableCSV,
)
from .netops import NON_FINITE_HEAD, RawHeadTensor, check_head_shape

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


def _split_rows(content: str) -> list[tuple[int, list[str]]]:
    """(line number, fields) of each line that is neither blank nor a
    ``#`` comment, a line whose first field starts with ``#``."""
    rows = enumerate(map(str.split, content.splitlines()), 1)
    if "#" in content:
        return [(k, p) for k, p in rows if p and not p[0].startswith("#")]
    return [(k, p) for k, p in rows if p]


def _columns(rows: list[tuple[int, list[str]]],
             n: int) -> tuple[np.ndarray, np.ndarray, Optional[tuple]]:
    """Class ids (int64) from the first field of _split_rows' rows and
    float64 columns from the other n - 1, for the rows before the first
    that does not convert, and that row's fault as (position,
    MalformedLine, reason) or None. A row does not convert on another field
    count than n, a non-numeric field, or a class id outside
    [0, 2^63 - 1], checked in that order. One pass; each field converts once."""
    class_ids, values, reason = [], [], None
    for _, fields in rows:
        if len(fields) != n:
            reason = f"expected {n} fields, got {len(fields)}"
            break
        try:
            class_id = int(fields[0])
            values.extend(map(float, fields[1:]))
        except ValueError:
            reason = "non-numeric field"
            break
        if not 0 <= class_id <= _INT64_MAX:
            reason = (f"negative class id {class_id}" if class_id < 0
                      else f"class id {class_id} does not fit in 64 bits")
            break
        class_ids.append(class_id)
    # a row that fails part-way may leave some of its values
    del values[len(class_ids) * (n - 1):]
    return (np.array(class_ids, dtype=np.int64),
            np.array(values, dtype=np.float64).reshape(-1, n - 1),
            (len(class_ids), MalformedLine, reason) if reason else None)


def _loadtxt(text: str, n: int) -> Optional[np.ndarray]:
    """The rows of ``text`` read by numpy's C parser as records of a class
    id ``c`` (int64) and n - 1 values ``v`` (float64), or None where they
    could differ from _columns' or numpy could warn: a non-ASCII text, one
    without a data line (numpy warns), one numpy refuses, and a negative
    class id. numpy refuses every row _columns refuses, and some it
    converts (``1_0``, non-ASCII digits, the class id 2^63). numpy reads
    the lines of str.splitlines, as _split_rows does, less its comment
    lines, so a ``#`` inside a data row makes numpy refuse the text; a
    text without ``#`` is not searched for comments."""
    lines = text.splitlines()
    if "#" in text or text.isspace() or not text:
        lines = [line for line in lines if line.lstrip()[:1] not in ("", "#")]
    if not lines or not text.isascii():
        return None
    try:
        table = np.loadtxt(lines, dtype=[("c", "i8"), ("v", "f8", (n - 1,))],
                           comments=None, ndmin=1)
    except Exception:  # _columns finds the row and the reason
        return None
    return None if (table["c"] < 0).any() else table


def _convert_texts(texts: Sequence[str], n: int) -> tuple[np.ndarray, np.ndarray, list[int], Optional[tuple]]:
    """_columns over the rows of all texts taken together, and where each
    text's rows start. Conversion stops at the first text with a row that
    does not convert; the starts then end with that text's.

    Each text that numpy's C parser reads (_loadtxt) takes that path:
    about 15 ms for the 40 seed-4 dense-lowscore detection texts (37,455
    rows), 19 ms with a ``#`` header line on each. _split_rows and
    _columns read the others and name their first row that does not
    convert and why: about 50 ms for those 40 texts. So the columns, the
    row starts and the fault are _columns' whichever path reads a text.

    The texts are read one at a time, so that only one text's lines or
    fields are held as strings at once: the small-object heap keeps the
    pages such a peak touches, and splitting two dense tiles at once
    raised a dense-lowscore eval's peak RSS by about 1 MB.
    """
    class_ids, values, starts = [np.zeros(0, dtype=np.int64)], [np.zeros((0, n - 1))], [0]
    for text in texts:
        table = _loadtxt(text, n)
        if table is not None:
            class_id, value, fault, count = table["c"], table["v"], None, len(table)
        else:
            rows = _split_rows(text)
            class_id, value, fault = _columns(rows, n)
            count = len(rows)
        class_ids.append(class_id)
        values.append(value)
        starts.append(starts[-1] + count)
        if fault:
            fault = (starts[-2] + fault[0], *fault[1:])
            break
    else:
        fault = None
    return np.concatenate(class_ids), np.concatenate(values), starts, fault


def _text_fault(texts: Sequence[str], starts: list[int], fault) -> tuple[int, FormatError]:
    """The text that holds the faulty row of first_fault's ``fault`` (a row
    of the texts' rows taken together), and its error: the rule's error
    class with the line number of that row in its text."""
    row, error, reason = fault
    k = bisect.bisect_right(starts, row) - 1
    return k, error(_split_rows(texts[k])[row - starts[k]][0], reason)


def parse_label_texts(
    texts: Sequence[str], image_w: int, image_h: int
) -> tuple[list[LabelArrays], Optional[tuple[int, FormatError]]]:
    """Parse label texts of one image extent in one pass: the labels of each
    text, and the first text that breaks a rule as (its position, the error
    of its first bad line), or None. When a text is faulty, the labels stop
    before it. The rules and their order are parse_label_file's.

    Every field is converted once; the rules then run over the rows of all
    texts as array operations.
    """
    class_id, values, starts, unconverted = _convert_texts(texts, 5)
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
    fault = fault and _text_fault(texts, starts, fault)
    starts = starts[: fault[0] + 1 if fault else None]
    # the rows of the texts before a faulty one
    x_min, y_min, width, height = (c[: starts[-1]] for c in (x_min, y_min, width, height))
    # clip_to, as columns; max(v, 0.0) keeps a -0.0, as np.maximum does not
    x1, y1 = np.where(x_min < 0.0, 0.0, x_min), np.where(y_min < 0.0, 0.0, y_min)
    clipped_w = np.minimum(x_min + width, extent_w) - x1
    clipped_h = np.minimum(y_min + height, extent_h) - y1
    keep = (clipped_w > 0.0) & (clipped_h > 0.0)
    class_id = class_id[: starts[-1]][keep]
    xywh = np.stack((x1, y1, clipped_w, clipped_h), axis=1)[keep]
    # where each text's kept rows start
    kept = np.concatenate(([0], np.cumsum(keep)))[starts]
    return [LabelArrays(class_id[a:b], xywh[a:b]) for a, b in zip(kept, kept[1:])], fault


def parse_label_file(content: str, image_w: int, image_h: int) -> LabelArrays:
    """Parse normalized center-format labels into pixel corner-format boxes.

    Fields cx, cy must lie in [0,1] and w, h in (0,1]; the converted pixel
    box is clipped to the image so annotations that overhang an edge (legal
    in the normalized encoding, e.g. cx=0.9 w=0.4) stay within bounds, and
    a box left empty by the clip is dropped. A file that breaks any rule
    raises the error of its first bad line. A line is checked in this
    order: field count, non-numeric field, class id outside
    [0, 2^63 - 1] (MalformedLine); cx, cy, w, h in range, then
    BoundingBox's checks of the pixel box (OutOfRange). The one-text case
    of parse_label_texts.
    """
    labels, fault = parse_label_texts([content], image_w, image_h)
    if fault:
        raise fault[1]
    return labels[0]


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


def parse_detection_texts(
    texts: Sequence[str],
) -> tuple[list[DetectionArrays], Optional[tuple[int, FormatError]]]:
    """Parse detection texts in one pass: the detections of each text, and
    the first text that breaks a rule as (its position, the error of its
    first bad line), or None. When a text is faulty, the detections stop
    before it. The rules and their order are parse_detection_file's.

    Every field is converted once; the rules then run over the rows of all
    texts as array operations.
    """
    class_id, values, starts, unconverted = _convert_texts(texts, 6)
    score, xywh = values[:, 0].copy(), values[:, 1:].copy()
    fault = first_fault([
        (~((score >= 0.0) & (score <= 1.0)), ScoreOutOfRange, lambda i: float(score[i])),
        ((xywh[:, 2:] <= 0.0).any(axis=1), OutOfRange, "box sides must be > 0"),
        *box_rules(*xywh.T, OutOfRange),
    ]) or unconverted
    fault = fault and _text_fault(texts, starts, fault)
    starts = starts[: fault[0] + 1 if fault else None]
    return [DetectionArrays(score[a:b], class_id[a:b], xywh[a:b])
            for a, b in zip(starts, starts[1:])], fault


def parse_detection_file(content: str) -> DetectionArrays:
    """Parse ``class_id score x_min y_min width height`` lines.

    A file that breaks any rule raises the error of its first bad line. A
    line is checked in this order: field count, non-numeric field, class
    id outside [0, 2^63 - 1] (MalformedLine); score in [0, 1]
    (ScoreOutOfRange); sides > 0, then BoundingBox's checks, the last of
    them the corners x_min + width and y_min + height finite (OutOfRange).
    The one-text case of parse_detection_texts.
    """
    dets, fault = parse_detection_texts([content])
    if fault:
        raise fault[1]
    return dets[0]


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


def read_tensor_view(data: bytes) -> np.ndarray:
    """The payload of a raw-tensor file, checked, as a float32 (C, H, W)
    view of ``data``; bytes past the declared payload are ignored.

    The checks, in order: the magic, the header's length, the declared
    element count against MAX_TENSOR_ELEMENTS, the payload's length, the
    head shape of RawHeadTensor (ShapeMismatch), then every value finite
    (NonFinitePayload).
    """
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
    check_head_shape((c, h, w))
    values = np.frombuffer(data, dtype="<f4", count=count, offset=_TENSOR_HEADER.size)
    if not np.isfinite(values).all():
        raise NonFinitePayload(NON_FINITE_HEAD)
    return values.reshape(c, h, w)


def read_tensor(data: bytes) -> RawHeadTensor:
    """The head tensor of a raw-tensor file, widened to float64; see
    read_tensor_view for the checks."""
    return RawHeadTensor(values=read_tensor_view(data).astype(np.float64))


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


def write_csv_table(rows: Iterable[Sequence[object]]) -> str:
    """CSV text of ``rows``, each line ended by "\\n", as read_csv_table reads it."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


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
    return write_csv_table(
        [("image_id", "width", "height"), *((i.image_id, i.width, i.height) for i in images)])
