"""Tile planning over large source images and annotation remapping.

The grid is non-overlapping and anchored at the image origin. Two edge
policies exist: ``pad-edge`` covers the whole image with full-size tiles
whose overhang is dead space, ``drop-partial`` keeps only tiles that fit
entirely inside the source.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .boxes import BoundingBox, GroundTruthBox, LabelArrays
from .dataio import read_csv_table, write_csv_table
from .errors import MalformedLine, NotMultipleOf32, ShapeOverflow, TileLargerThanImage

PAD_EDGE = "pad-edge"
DROP_PARTIAL = "drop-partial"
PADDING_POLICIES = (PAD_EDGE, DROP_PARTIAL)
# a 5472x3648 frame cut at 32 px takes 19,494 tiles
MAX_TILES_PER_IMAGE = 2**16


@dataclass(frozen=True)
class TileRef:
    row: int
    col: int
    origin_x: int
    origin_y: int

    def __post_init__(self):
        if self.row < 0 or self.col < 0:
            raise ValueError("tile indices must be >= 0")
        if self.origin_x < 0 or self.origin_y < 0:
            raise ValueError("tile origin must be >= 0")

    @classmethod
    def from_grid(cls, row: int, col: int, tile_size: int) -> "TileRef":
        return cls(row=row, col=col, origin_x=col * tile_size, origin_y=row * tile_size)


@dataclass(frozen=True)
class TileLayout:
    source_w: int
    source_h: int
    tile_size: int
    columns: int
    rows: int
    padding_policy: str

    def tiles(self) -> Iterator[TileRef]:
        """Row-major iteration over the planned grid."""
        for row in range(self.rows):
            for col in range(self.columns):
                yield TileRef.from_grid(row, col, self.tile_size)

    @property
    def tile_count(self) -> int:
        return self.rows * self.columns

    def rows_by_tile(self, xyxy: np.ndarray) -> list[np.ndarray]:
        """For each tile of tiles(), in that order, the ascending positions
        of the boxes of ``xyxy`` (corner rows with x_min, y_min >= 0) that
        can reach it. The work is linear in the boxes and the pairs found.

        A box reaches columns ceil(x_min / s) - 1 through floor(x_max / s)
        of the grid, and rows likewise; float floor division is exact. That
        covers every tile where remap_to_tile can keep the box. In a tile
        that ends before x_min the box starts past the right edge (local
        x > s), and in one that starts after x_max it ends at or before the
        left edge (local x_max <= 0): it is neither inside nor clipped to
        anything. A box starting on an edge goes to the tiles on both sides,
        as one narrower than half an ulp of the edge is inside the left one.
        """
        s = self.tile_size
        first = np.maximum(-(-xyxy[:, :2] // s) - 1, 0).astype(np.int64)
        last = np.minimum(xyxy[:, 2:] // s, (self.columns - 1, self.rows - 1)).astype(np.int64)
        span = np.maximum(last - first + 1, 0)
        count = span[:, 0] * span[:, 1]
        box = np.repeat(np.arange(len(xyxy)), count)
        k = np.arange(len(box)) - np.repeat(np.cumsum(count) - count, count)
        first, across = first[box], span[box, 0]
        tile = (first[:, 1] + k // across) * self.columns + first[:, 0] + k % across
        order = np.lexsort((box, tile))
        bounds = np.searchsorted(tile[order], np.arange(self.tile_count + 1)).tolist()
        box = box[order]
        return [box[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def plan_tiles(
    source_w: int, source_h: int, tile_size: int, padding_policy: str = PAD_EDGE
) -> TileLayout:
    """Lay a deterministic tile grid over a source image.

    pad-edge takes the ceiling of each axis ratio so every source pixel is
    covered; drop-partial takes the floor and refuses images too small to
    hold even one full tile. A grid of more than MAX_TILES_PER_IMAGE tiles
    is refused before any tile exists.
    """
    if source_w <= 0 or source_h <= 0:
        raise ValueError("source dimensions must be positive")
    if tile_size <= 0 or tile_size % 32 != 0:
        raise NotMultipleOf32(f"tile size {tile_size} is not a positive multiple of 32")
    if padding_policy not in PADDING_POLICIES:
        raise ValueError(f"unknown padding policy {padding_policy!r}")
    if padding_policy == PAD_EDGE:
        columns = -(-source_w // tile_size)
        rows = -(-source_h // tile_size)
    else:
        columns = source_w // tile_size
        rows = source_h // tile_size
        if columns == 0 or rows == 0:
            raise TileLargerThanImage(
                f"no {tile_size}px tile fits inside {source_w}x{source_h}"
            )
    if columns * rows > MAX_TILES_PER_IMAGE:
        raise ShapeOverflow(f"a {tile_size}px grid needs more than {MAX_TILES_PER_IMAGE} tiles")
    return TileLayout(
        source_w=source_w,
        source_h=source_h,
        tile_size=tile_size,
        columns=columns,
        rows=rows,
        padding_policy=padding_policy,
    )


def remap_to_tile(
    gt: GroundTruthBox | LabelArrays,
    tile: TileRef,
    tile_size: int,
    min_visibility: float = 0.3,
) -> GroundTruthBox | LabelArrays | None:
    """Express global ground truths in tile-local coordinates.

    Each box is translated to the tile origin. One that lies fully inside
    the tile square keeps its translated values, so tile_to_global restores
    it exactly. Any other is clipped to the square, and dropped when the
    clip is empty or the visible fraction (clipped area over original area)
    falls below min_visibility.

    A LabelArrays gives the LabelArrays of its kept rows, in order; one
    GroundTruthBox is the one-row case and gives a GroundTruthBox or None.
    """
    if not 0.0 < min_visibility <= 1.0:
        raise ValueError("min_visibility must be in (0, 1]")
    if tile_size <= 0:
        raise ValueError("extents must be positive")
    labels = LabelArrays.of([gt]) if isinstance(gt, GroundTruthBox) else gt
    # x + (-origin), as BoundingBox.translated adds it: a -0.0 comes out 0.0
    x = labels.xywh[:, 0] + -tile.origin_x
    y = labels.xywh[:, 1] + -tile.origin_y
    w, h = labels.xywh[:, 2], labels.xywh[:, 3]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        x_max, y_max = x + w, y + h
        inside = (x >= 0.0) & (y >= 0.0) & (x_max <= tile_size) & (y_max <= tile_size)
        x1, y1 = np.maximum(x, 0.0), np.maximum(y, 0.0)
        clipped_w = np.minimum(x_max, tile_size) - x1
        clipped_h = np.minimum(y_max, tile_size) - y1
        area = w * h
        # an area that underflows to 0 takes the fraction side by side
        visible = np.where(area > 0.0, clipped_w * clipped_h / area,
                           (clipped_w / w) * (clipped_h / h))
    keep = inside | ((clipped_w > 0.0) & (clipped_h > 0.0) & ~(visible < min_visibility))
    xywh = np.where(inside[:, None], np.stack((x, y, w, h), axis=1),
                    np.stack((x1, y1, clipped_w, clipped_h), axis=1))
    kept = LabelArrays(labels.class_id[keep], xywh[keep])
    if labels is gt:
        return kept
    return kept[0] if len(kept) else None


def tile_to_global(box: BoundingBox, tile: TileRef) -> BoundingBox:
    """Inverse translation of remap_to_tile for boxes that were not clipped."""
    return box.translated(tile.origin_x, tile.origin_y)


def make_tile_id(image_id: str, row: int, col: int) -> str:
    return f"{image_id}_r{row}_c{col}"


def write_tile_manifest(entries: Sequence[tuple[str, TileRef, int]]) -> str:
    """CSV rows of (tile_id, ref, tile_size)."""
    return write_csv_table([
        ("tile_id", "row", "col", "origin_x", "origin_y", "tile_size"),
        *((tile_id, ref.row, ref.col, ref.origin_x, ref.origin_y, size)
          for tile_id, ref, size in entries)])


def read_tile_manifest(content: str) -> list[tuple[str, TileRef, int]]:
    """Rows of a tile manifest as written by write_tile_manifest; tile ids
    must be unique."""
    header_line, header, rows = read_csv_table(content, "tile manifest")
    if not header:
        return []
    if header != ["tile_id", "row", "col", "origin_x", "origin_y", "tile_size"]:
        raise MalformedLine(header_line, f"bad tile manifest header {header}")
    out = {}
    for line_no, (tile_id, row, col, origin_x, origin_y, tile_size) in rows:
        try:
            ref = TileRef(int(row), int(col), int(origin_x), int(origin_y))
            size = int(tile_size)
        except ValueError as exc:
            raise MalformedLine(line_no, str(exc)) from None
        tile_id = tile_id.strip()
        if tile_id in out:
            raise MalformedLine(line_no, f"duplicate tile id {tile_id!r}")
        out[tile_id] = (tile_id, ref, size)
    return list(out.values())
