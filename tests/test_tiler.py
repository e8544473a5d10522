import random

import pytest

from vceval.boxes import BoundingBox, GroundTruthBox
from vceval.errors import MalformedLine, NotMultipleOf32, ShapeOverflow, TileLargerThanImage
from vceval.tiler import (
    DROP_PARTIAL,
    MAX_TILES_PER_IMAGE,
    PAD_EDGE,
    TileRef,
    make_tile_id,
    plan_tiles,
    read_tile_manifest,
    remap_to_tile,
    tile_to_global,
    write_tile_manifest,
)

SOURCE_W, SOURCE_H = 5472, 3648


class TestPlanTiles:
    @pytest.mark.parametrize(
        "tile_size,policy,cols,rows",
        [
            (512, PAD_EDGE, 11, 8),
            (416, PAD_EDGE, 14, 9),
            (320, PAD_EDGE, 18, 12),
            (512, DROP_PARTIAL, 10, 7),
            (320, DROP_PARTIAL, 17, 11),
        ],
    )
    def test_source_frame_grids(self, tile_size, policy, cols, rows):
        layout = plan_tiles(SOURCE_W, SOURCE_H, tile_size, policy)
        assert (layout.columns, layout.rows) == (cols, rows)
        assert layout.tile_count == cols * rows

    def test_exact_fit_policies_agree(self):
        for policy in (PAD_EDGE, DROP_PARTIAL):
            layout = plan_tiles(1024, 512, 512, policy)
            assert (layout.columns, layout.rows) == (2, 1)

    def test_pad_edge_covers_source(self):
        layout = plan_tiles(SOURCE_W, SOURCE_H, 416, PAD_EDGE)
        assert layout.columns * 416 >= SOURCE_W
        assert layout.rows * 416 >= SOURCE_H
        assert (layout.columns - 1) * 416 < SOURCE_W

    def test_drop_partial_stays_inside(self):
        layout = plan_tiles(SOURCE_W, SOURCE_H, 416, DROP_PARTIAL)
        for tile in layout.tiles():
            assert tile.origin_x + 416 <= SOURCE_W
            assert tile.origin_y + 416 <= SOURCE_H

    def test_scan_order_row_major(self):
        layout = plan_tiles(1000, 700, 320, PAD_EDGE)
        refs = list(layout.tiles())
        assert refs[0] == TileRef(0, 0, 0, 0)
        assert refs[1] == TileRef(0, 1, 320, 0)
        assert refs[layout.columns] == TileRef(1, 0, 0, 320)
        assert len(refs) == layout.tile_count

    def test_tile_size_must_be_multiple_of_32(self):
        with pytest.raises(NotMultipleOf32):
            plan_tiles(1000, 1000, 300)
        with pytest.raises(NotMultipleOf32):
            plan_tiles(1000, 1000, 0)

    def test_drop_partial_too_small(self):
        with pytest.raises(TileLargerThanImage):
            plan_tiles(300, 300, 320, DROP_PARTIAL)
        # pad-edge happily produces a single overhanging tile
        assert plan_tiles(300, 300, 320, PAD_EDGE).tile_count == 1

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            plan_tiles(0, 100, 320)
        with pytest.raises(ValueError):
            plan_tiles(100, 100, 320, "mirror")

    def test_ceilings_are_exact_for_any_integer_extent(self):
        # (2**60 + 1) / 2**60 rounds to 1.0 in floating point
        layout = plan_tiles(2**60 + 1, 2**60, 2**60)
        assert (layout.columns, layout.rows) == (2, 1)

    @pytest.mark.parametrize("policy", [PAD_EDGE, DROP_PARTIAL])
    def test_plan_at_the_cap_is_laid(self, policy):
        assert MAX_TILES_PER_IMAGE == 2**16
        assert plan_tiles(256 * 32, 256 * 32, 32, policy).tile_count == MAX_TILES_PER_IMAGE
        # the paper's largest grid: a 5472x3648 frame at 32 px
        assert plan_tiles(5472, 3648, 32, policy).tile_count <= 19_494

    @pytest.mark.parametrize("width, height", [
        (256 * 32 + 1, 256 * 32),       # one column past the cap (pad-edge)
        (10**8, 10**8),                 # about 9.8e12 tiles
        (int("9" * 401), 100),          # past any float
    ])
    def test_plan_beyond_the_cap_is_refused(self, width, height):
        # plan_tiles only counts; it builds no tile, so a refusal costs nothing
        with pytest.raises(ShapeOverflow, match="more than 65536 tiles"):
            plan_tiles(width, height, 32, PAD_EDGE)


class TestRemap:
    def test_worked_example_half_visible(self):
        # global (500, 0, 24, 24) against tile col 0 of size 512: clipped
        # to 12 of 24 px wide, visible fraction 0.5 >= 0.3 -> kept
        gt = GroundTruthBox(BoundingBox(500.0, 0.0, 24.0, 24.0), 0)
        tile = TileRef.from_grid(0, 0, 512)
        out = remap_to_tile(gt, tile, 512, min_visibility=0.3)
        assert out is not None
        assert out.box == BoundingBox(500.0, 0.0, 12.0, 24.0)

    def test_visibility_cut(self):
        gt = GroundTruthBox(BoundingBox(500.0, 0.0, 24.0, 24.0), 0)
        tile = TileRef.from_grid(0, 0, 512)
        assert remap_to_tile(gt, tile, 512, min_visibility=0.51) is None
        assert remap_to_tile(gt, tile, 512, min_visibility=0.5) is not None

    def test_fully_outside_dropped(self):
        gt = GroundTruthBox(BoundingBox(10.0, 10.0, 20.0, 20.0), 0)
        tile = TileRef.from_grid(2, 2, 512)
        assert remap_to_tile(gt, tile, 512) is None

    def test_translation(self):
        gt = GroundTruthBox(BoundingBox(530.0, 40.0, 20.0, 20.0), 1)
        tile = TileRef.from_grid(0, 1, 512)
        out = remap_to_tile(gt, tile, 512)
        assert out.box == BoundingBox(18.0, 40.0, 20.0, 20.0)
        assert out.class_id == 1

    def test_min_visibility_range(self):
        gt = GroundTruthBox(BoundingBox(0.0, 0.0, 5.0, 5.0), 0)
        tile = TileRef.from_grid(0, 0, 512)
        with pytest.raises(ValueError):
            remap_to_tile(gt, tile, 512, min_visibility=0.0)
        with pytest.raises(ValueError):
            remap_to_tile(gt, tile, 512, min_visibility=1.1)

    def test_round_trip_identity_for_interior_boxes(self):
        """remap then tile_to_global is the exact identity when the box is
        fully inside its tile (no clipping)."""
        rng = random.Random(1234)
        layout = plan_tiles(SOURCE_W, SOURCE_H, 512, DROP_PARTIAL)
        tiles = list(layout.tiles())
        for _ in range(500):
            tile = rng.choice(tiles)
            w = rng.uniform(1.0, 100.0)
            h = rng.uniform(1.0, 100.0)
            x = tile.origin_x + rng.uniform(0.0, 512.0 - w)
            y = tile.origin_y + rng.uniform(0.0, 512.0 - h)
            gt = GroundTruthBox(BoundingBox(x, y, w, h), rng.randint(0, 2))
            local = remap_to_tile(gt, tile, 512, min_visibility=1.0)
            assert local is not None
            back = tile_to_global(local.box, tile)
            assert back == gt.box  # exact, not approximate


class TestTileManifest:
    def test_tile_id_format(self):
        assert make_tile_id("frame_0042", 3, 11) == "frame_0042_r3_c11"

    def test_round_trip(self):
        entries = [
            ("a_r0_c0", TileRef.from_grid(0, 0, 416), 416),
            ("a_r1_c2", TileRef.from_grid(1, 2, 416), 416),
        ]
        assert read_tile_manifest(write_tile_manifest(entries)) == entries

    def test_bad_header(self):
        with pytest.raises(MalformedLine):
            read_tile_manifest("tile,row,col\nx,0,0\n")

    def test_bad_row(self):
        text = write_tile_manifest([("t", TileRef(0, 0, 0, 0), 416)])
        with pytest.raises(MalformedLine):
            read_tile_manifest(text + "oops,a,b,c,d,e\n")

    def test_empty_content(self):
        assert read_tile_manifest("") == []

    def test_errors_give_the_line_of_the_text(self):
        header = "tile_id,row,col,origin_x,origin_y,tile_size\n"
        with pytest.raises(MalformedLine, match="line 4: expected 6 fields"):
            read_tile_manifest(header + "t,0,0,0,0,416\n\nu,0,1\n")
        with pytest.raises(MalformedLine, match="line 3: bad tile manifest header"):
            read_tile_manifest("\n , ,\ntile,row\n")

    def test_duplicate_tile_id(self):
        text = "tile_id,row,col,origin_x,origin_y,tile_size\nt,0,0,0,0,416\nt,0,1,416,0,416\n"
        with pytest.raises(MalformedLine, match="line 3: duplicate tile id 't'"):
            read_tile_manifest(text)

    def test_tile_ref_validation(self):
        with pytest.raises(ValueError):
            TileRef(-1, 0, 0, 0)
        with pytest.raises(ValueError):
            TileRef(0, 0, -5, 0)
