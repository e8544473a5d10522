"""Tile planning over large source images and annotation remapping.

The grid is non-overlapping and anchored at the image origin. Two edge
policies exist: ``pad-edge`` covers the whole image with full-size tiles
whose overhang is dead space, ``drop-partial`` keeps only tiles that fit
entirely inside the source.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .boxes import BoundingBox, GroundTruthBox, clip_to
from .dataio import read_csv_table
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
    gt: GroundTruthBox, tile: TileRef, tile_size: int, min_visibility: float = 0.3
) -> Optional[GroundTruthBox]:
    """Express a global ground truth in tile-local coordinates.

    The box is translated to the tile origin and clipped to the tile square;
    it is dropped when the visible fraction (clipped area over original
    area) falls below min_visibility.
    """
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


def tile_to_global(box: BoundingBox, tile: TileRef) -> BoundingBox:
    """Inverse translation of remap_to_tile for boxes that were not clipped."""
    return box.translated(tile.origin_x, tile.origin_y)


def make_tile_id(image_id: str, row: int, col: int) -> str:
    return f"{image_id}_r{row}_c{col}"


def write_tile_manifest(entries: Sequence[tuple[str, TileRef, int]]) -> str:
    """CSV rows of (tile_id, ref, tile_size)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["tile_id", "row", "col", "origin_x", "origin_y", "tile_size"])
    for tile_id, ref, tile_size in entries:
        writer.writerow(
            [tile_id, ref.row, ref.col, ref.origin_x, ref.origin_y, tile_size]
        )
    return buf.getvalue()


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
