import contextlib
import io
import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vceval import cli
from vceval.boxes import BoundingBox, GroundTruthBox, LabelArrays
from vceval.config import MAX_INPUT_SIZE
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

from oracles import parse_labels_ref, remap_ref, write_labels_ref

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


def _hex(gts):
    """(class id, float.hex of each field) rows: tells -0.0 from 0.0."""
    return [(g.class_id, *(float.hex(v) for v in (g.box.x_min, g.box.y_min, g.box.width,
                                                   g.box.height))) for g in gts]


_TILE_SIZES = st.sampled_from([32, 96, 416, 512, MAX_INPUT_SIZE])
_VISIBILITIES = st.sampled_from([0.3, 0.3, 1.0, 1.0, 0.5, 5e-324])


@st.composite
def _edge(draw, tile_size, tiles):
    """A coordinate on a tile edge k * tile_size (0 also as -0.0), or 1
    ulp either side of it, or 7 px before it (a 10 px box there is 30 %
    visible past the edge), or anywhere in the grid with a fraction."""
    edge = float(draw(st.integers(0, tiles)) * tile_size)
    kind = draw(st.sampled_from(["on", "below", "above", "seven", "any"]))
    if kind == "below":
        return math.nextafter(edge, -math.inf)
    if kind == "above":
        return math.nextafter(edge, math.inf)
    if kind == "seven":
        return edge - 7.0
    if kind == "any":
        return draw(st.floats(-tile_size, (tiles + 1) * tile_size))
    return edge if edge or draw(st.booleans()) else -0.0


@st.composite
def _global_boxes(draw, tile_size, columns, rows):
    """Ground truths around a grid: sides of 10 px, of 3 or more tiles, of
    less than an ulp of the edges, or drawn; none with an area that
    underflows to 0, which the per-object oracle divides by."""
    gts = []
    for _ in range(draw(st.integers(0, 8))):
        x = draw(_edge(tile_size, columns))
        y = draw(_edge(tile_size, rows))
        w, h = (draw(st.one_of(st.sampled_from([10.0, 3.0 * tile_size, 2.5 * tile_size + 0.5,
                                               1e-9, 5e-324]),
                               st.floats(1e-3, 4.0 * tile_size))) for _ in range(2))
        assume(w * h > 0.0)
        gts.append(GroundTruthBox(BoundingBox(x, y, w, h), draw(st.integers(0, 3))))
    return gts


class TestColumnarRemapAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), tile_size=_TILE_SIZES, columns=st.integers(1, 4),
           rows=st.integers(1, 3), min_visibility=_VISIBILITIES)
    def test_each_tile_keeps_the_oracle_rows(self, data, tile_size, columns, rows,
                                             min_visibility):
        gts = data.draw(_global_boxes(tile_size, columns, rows))
        labels = LabelArrays.of(gts)
        # one tile more each way than the boxes are drawn around
        layout = plan_tiles((columns + 1) * tile_size, (rows + 1) * tile_size, tile_size)
        candidates = layout.rows_by_tile(labels.xyxy)
        for ref, rows_in_reach in zip(layout.tiles(), candidates):
            want = [remap_ref(g, ref, tile_size, min_visibility) for g in gts]
            got = remap_to_tile(labels, ref, tile_size, min_visibility)
            assert isinstance(got, LabelArrays)
            assert _hex(got) == _hex([g for g in want if g is not None])
            for k, (g, one) in enumerate(zip(gts, want)):
                alone = remap_to_tile(g, ref, tile_size, min_visibility)
                assert (alone is None) == (one is None)
                if one is not None:
                    assert _hex([alone]) == _hex([one])
                    # the candidate rows hold every box a tile keeps
                    # (rows_by_tile asks for x_min, y_min >= 0)
                    if g.box.x_min >= 0.0 and g.box.y_min >= 0.0:
                        assert k in rows_in_reach

    def test_a_sliver_on_an_edge_is_a_candidate_of_both_tiles(self):
        # 416 + 5e-324 is 416: the box lies fully inside tile 0, at its
        # right edge, and starts tile 1
        layout = plan_tiles(1248, 416, 416)
        gts = [GroundTruthBox(BoundingBox(416.0, 10.0, 5e-324, 10.0), 0),
               GroundTruthBox(BoundingBox(400.0, 10.0, 16.0, 10.0), 1)]
        candidates = layout.rows_by_tile(LabelArrays.of(gts).xyxy)
        assert [c.tolist() for c in candidates] == [[0, 1], [0, 1], []]
        for ref, rows in zip(layout.tiles(), candidates):
            want = [remap_ref(g, ref, 416, 5e-324) for g in gts]
            assert {k for k, g in enumerate(want) if g is not None} <= set(rows.tolist())
        assert remap_ref(gts[0], TileRef.from_grid(0, 0, 416), 416).box.x_min == 416.0

    def test_visibility_exactly_at_the_floor_is_kept(self):
        # 3 of 10 px past the edge: 30 / 100 is 0.3 exactly
        gt = GroundTruthBox(BoundingBox(409.0, 0.0, 10.0, 10.0), 0)
        right = TileRef.from_grid(0, 1, 416)
        assert remap_to_tile(gt, right, 416, 0.3).box == BoundingBox(0.0, 0.0, 3.0, 10.0)
        assert remap_ref(gt, right, 416, 0.3) == remap_to_tile(gt, right, 416, 0.3)
        assert remap_to_tile(gt, right, 416, math.nextafter(0.3, 1.0)) is None

    def test_area_that_underflows_to_zero_takes_the_fraction_side_by_side(self):
        # 0.4 x 5e-324 px is 0.0 in floats; about half the width and all
        # of the height are visible past the edge
        gt = GroundTruthBox(BoundingBox(415.8, 0.0, 0.4, 5e-324), 0)
        right = TileRef.from_grid(0, 1, 416)
        with pytest.raises(ZeroDivisionError):
            remap_ref(gt, right, 416, 0.3)
        local = remap_to_tile(gt, right, 416, 0.3)
        assert local.box.width == pytest.approx(0.2) and local.box.height == 5e-324
        assert remap_to_tile(gt, right, 416, 0.6) is None

    def test_empty_table(self):
        got = remap_to_tile(LabelArrays.of([]), TileRef.from_grid(0, 0, 416), 416)
        assert isinstance(got, LabelArrays) and len(got) == 0


@st.composite
def _label_text(draw, extent_w, extent_h, tile_size):
    """Label lines whose pixel boxes start or end on tile edges, within an
    ulp of them, or anywhere; some span 3 or more tiles, some overhang
    the image, and some start on an edge with a side of 5e-324 of the
    extent, less than half an ulp of the edge."""
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        fields = []
        for extent in (extent_w, extent_h):
            a = draw(_edge(tile_size, extent // tile_size + 1))
            b = draw(st.one_of(_edge(tile_size, extent // tile_size + 1),
                               st.sampled_from([a + 10.0, a + 3.0 * tile_size, a + 1e-9, None])))
            if b is None:
                fields.append((a / extent, 5e-324))
                continue
            lo, hi = min(a, b), max(a, b)
            center, size = (lo + hi) / 2.0 / extent, (hi - lo) / extent
            assume(0.0 <= center <= 1.0 and 0.0 < size <= 1.0)
            fields.append((center, size))
        (cx, w), (cy, h) = fields
        assume(0.0 <= cx <= 1.0 and 0.0 <= cy <= 1.0 and w * extent_w * h * extent_h > 0.0)
        lines.append(f"{draw(st.integers(0, 3))} {cx!r} {cy!r} {w!r} {h!r}")
    return "".join(line + "\n" for line in lines)


class TestTileCommandAgainstOracle:
    """cmd_tile's label files against remap_ref and write_labels_ref over
    every tile, and its summary against the same oracle's counts."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), tile_size=st.sampled_from([32, 416, 512, MAX_INPUT_SIZE]),
           columns=st.integers(1, 4), rows=st.integers(1, 3),
           spare=st.sampled_from([(0, 0), (1, 0), (0.5, 0.5), (0.25, 0)]),
           policy=st.sampled_from([PAD_EDGE, DROP_PARTIAL]), min_visibility=_VISIBILITIES)
    def test_tile_files_and_summary(self, tmp_path_factory, data, tile_size, columns, rows,
                                    spare, policy, min_visibility):
        extent_w = int((columns + spare[0]) * tile_size) or 1
        extent_h = int((rows + spare[1]) * tile_size) or 1
        text = data.draw(_label_text(extent_w, extent_h, tile_size))
        work = tmp_path_factory.mktemp("tile")
        (work / "labels").mkdir()
        (work / "images.csv").write_text(f"image_id,width,height\nimg,{extent_w},{extent_h}\n")
        (work / "labels" / "img.txt").write_text(text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["tile", "--manifest", str(work / "images.csv"), "--labels-dir",
                             str(work / "labels"), "--out-dir", str(work / "tiles"),
                             "--tile-size", str(tile_size), "--policy", policy,
                             "--min-visibility", repr(min_visibility)]) == 0
        gts = [GroundTruthBox(BoundingBox(*r[1:]), r[0])
               for r in parse_labels_ref(text, extent_w, extent_h)]
        layout = plan_tiles(extent_w, extent_h, tile_size, policy)
        found, written = set(), 0
        for ref in layout.tiles():
            kept = []
            for k, g in enumerate(gts):
                local = remap_ref(g, ref, tile_size, min_visibility)
                if local is not None:
                    kept.append(local)
                    found.add(k)
            written += len(kept)
            rows_ref = [(g.class_id, g.box.x_min, g.box.y_min, g.box.width, g.box.height)
                        for g in kept]
            name = make_tile_id("img", ref.row, ref.col) + ".txt"
            assert (work / "tiles" / name).read_text() == \
                write_labels_ref(rows_ref, tile_size, tile_size), name
        in_grid = {k for k, g in enumerate(gts) if g.box.x_min < layout.columns * tile_size
                   and g.box.y_min < layout.rows * tile_size}
        assert out.getvalue().endswith(
            f"; kept {len(found)} of {len(gts)} annotation(s) in {written} tile label(s), "
            f"{len(in_grid - found)} dropped by min_visibility {min_visibility:g}\n")

    def test_rows_by_tile_is_linear_in_the_pairs(self):
        # 2,400 boxes of one tile each over a 40-tile grid: about one
        # candidate per box, not 96,000
        layout = plan_tiles(3328, 2080, 416, PAD_EDGE)
        rng = np.random.default_rng(5)
        corner = rng.integers(0, [8, 5], size=(2400, 2)) * 416 + rng.uniform(1, 300, (2400, 2))
        xyxy = np.concatenate((corner, corner + rng.uniform(5, 100, (2400, 2))), axis=1)
        buckets = layout.rows_by_tile(xyxy)
        assert len(buckets) == 40
        assert sum(map(len, buckets)) == 2400
        assert all((np.diff(b) > 0).all() for b in buckets)


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
