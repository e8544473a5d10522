"""End-to-end command tests driven through cli.main() against temp dirs."""

import argparse
import contextlib
import copy
import csv
import dataclasses
import glob
import io
import json
import math
import multiprocessing
import os
import random
import stat
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vceval import _kernels, cli
from vceval.boxes import nms
from vceval.config import HarnessConfig
from vceval.dataio import (
    parse_detection_file,
    parse_label_file,
    read_tensor,
    write_detection_file,
    write_tensor,
)
from vceval.errors import DegenerateBox, VCEvalError
from vceval.metrics import evaluate, write_metric_csv, write_pr_curve_csv
from vceval.netops import AnchorBox, RawHeadTensor, decode_head
from vceval.stats import parse_observations
from vceval.tiler import read_tile_manifest

from test_metrics import multi_tile_scene


def sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


def make_manifest(path, entries):
    path.write_text(
        "image_id,width,height\n"
        + "".join(f"{i},{w},{h}\n" for i, w, h in entries)
    )


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("VC_EVAL_CONFIG", raising=False)


class TestTile:
    def test_workflow(self, tmp_path, capsys):
        labels = tmp_path / "labels"
        labels.mkdir()
        make_manifest(tmp_path / "images.csv", [("img_a", 1024, 1024)])
        # one box inside tile (0,0), one split 50/50 across the vertical
        # seam, one fully inside tile (1,1)
        labels.joinpath("img_a.txt").write_text(
            "0 0.1 0.1 0.05 0.05\n"
            "0 0.5 0.1 0.02 0.02\n"
            "1 0.75 0.75 0.05 0.05\n"
        )
        out = tmp_path / "tiles"
        rc = cli.main(
            [
                "tile",
                "--manifest", str(tmp_path / "images.csv"),
                "--labels-dir", str(labels),
                "--out-dir", str(out),
                "--tile-size", "512",
                "--min-visibility", "0.6",
            ]
        )
        assert rc == 0
        entries = read_tile_manifest((out / "tiles.csv").read_text())
        assert len(entries) == 4
        assert entries[0][0] == "img_a_r0_c0"
        assert (out / "img_a_r1_c1.txt").exists()
        assert (out / "config_used.json").exists()
        # the seam box leaves exactly half its area on each side, under the
        # 0.6 visibility floor, so it vanishes from both tiles
        tile00 = (out / "img_a_r0_c0.txt").read_text().strip().splitlines()
        assert len(tile00) == 1
        tile11 = (out / "img_a_r1_c1.txt").read_text().strip().splitlines()
        assert len(tile11) == 1 and tile11[0].startswith("1 ")
        assert "kept 2 of 3" in capsys.readouterr().out

    def run_tile(self, tmp_path, capsys, extent, labels, *flags):
        (tmp_path / "labels").mkdir()
        make_manifest(tmp_path / "images.csv", [("img", *extent)])
        (tmp_path / "labels" / "img.txt").write_text(labels)
        rc = cli.main(["tile", "--manifest", str(tmp_path / "images.csv"),
                       "--labels-dir", str(tmp_path / "labels"),
                       "--out-dir", str(tmp_path / "tiles"), *flags])
        assert rc == 0
        return capsys.readouterr().out

    @pytest.mark.parametrize("visibility, summary", [
        ("0.3", "kept 1 of 1 annotation(s) in 2 tile label(s), 0 dropped by min_visibility 0.3"),
        ("0.6", "kept 0 of 1 annotation(s) in 0 tile label(s), 1 dropped by min_visibility 0.6"),
    ])
    def test_summary_counts_annotations_not_pairs(self, tmp_path, capsys, visibility, summary):
        # one box across the seam of an 832x416 frame, half on each side
        out = self.run_tile(tmp_path, capsys, (832, 416), "0 0.5 0.5 0.2 0.2\n",
                            "--tile-size", "416", "--min-visibility", visibility)
        assert out == ("tiled 1 image(s) into 2 tile(s) (416px, pad-edge); " + summary + "\n")

    def test_summary_under_drop_partial(self, tmp_path, capsys):
        # a 128x96 frame holds one 96 px tile; one box inside it, one past
        # its right edge (x 96-112) and one across that edge (x 80-112)
        out = self.run_tile(tmp_path, capsys, (128, 96),
                            "0 0.25 0.5 0.125 0.25\n1 0.8125 0.5 0.125 0.25\n"
                            "2 0.75 0.5 0.25 0.25\n",
                            "--tile-size", "96", "--policy", "drop-partial",
                            "--min-visibility", "0.6")
        assert out == ("tiled 1 image(s) into 1 tile(s) (96px, drop-partial); kept 1 of 3 "
                       "annotation(s) in 1 tile label(s), 1 dropped by min_visibility 0.6\n")
        assert (tmp_path / "tiles" / "img_r0_c0.txt").read_text() == \
            "0 0.333333 0.500000 0.166667 0.250000\n"

    @pytest.mark.parametrize("labels_dir", ["missing", "a file"])
    def test_labels_dir_that_is_not_a_directory_is_data_error(self, tmp_path, capsys, labels_dir):
        make_manifest(tmp_path / "images.csv", [("img", 832, 416)])
        labels = tmp_path / "labels"
        if labels_dir == "a file":
            labels.write_text("0 0.5 0.5 0.2 0.2\n")
        rc = cli.main(["tile", "--manifest", str(tmp_path / "images.csv"),
                       "--labels-dir", str(labels), "--out-dir", str(tmp_path / "tiles")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: labels directory {labels} is not a directory\n"
        assert not (tmp_path / "tiles").exists()

    def test_labels_dir_without_the_image_file_means_no_annotations(self, tmp_path, capsys):
        (tmp_path / "labels").mkdir()
        make_manifest(tmp_path / "images.csv", [("img", 832, 416)])
        assert cli.main(["tile", "--manifest", str(tmp_path / "images.csv"),
                         "--labels-dir", str(tmp_path / "labels"),
                         "--out-dir", str(tmp_path / "tiles")]) == 0
        assert "kept 0 of 0 annotation(s)" in capsys.readouterr().out
        assert (tmp_path / "tiles" / "img_r0_c1.txt").read_text() == ""

    def test_pad_edge_vs_drop_partial(self, tmp_path):
        labels = tmp_path / "labels"
        labels.mkdir()
        make_manifest(tmp_path / "images.csv", [("img", 700, 500)])
        for policy, expected in (("pad-edge", 4), ("drop-partial", 1)):
            out = tmp_path / policy
            rc = cli.main(
                [
                    "tile",
                    "--manifest", str(tmp_path / "images.csv"),
                    "--labels-dir", str(labels),
                    "--out-dir", str(out),
                    "--tile-size", "416",
                    "--policy", policy,
                ]
            )
            assert rc == 0
            assert len(read_tile_manifest((out / "tiles.csv").read_text())) == expected

    def test_bad_tile_size_is_config_error(self, tmp_path):
        make_manifest(tmp_path / "images.csv", [("img", 700, 500)])
        (tmp_path / "labels").mkdir()
        rc = cli.main(
            [
                "tile",
                "--manifest", str(tmp_path / "images.csv"),
                "--labels-dir", str(tmp_path / "labels"),
                "--out-dir", str(tmp_path / "out"),
                "--tile-size", "300",
            ]
        )
        assert rc == 3

    def test_missing_manifest_is_data_error(self, tmp_path):
        rc = cli.main(
            [
                "tile",
                "--manifest", str(tmp_path / "nope.csv"),
                "--labels-dir", str(tmp_path),
                "--out-dir", str(tmp_path / "out"),
            ]
        )
        assert rc == 2

    def test_malformed_labels_are_data_error(self, tmp_path):
        labels = tmp_path / "labels"
        labels.mkdir()
        make_manifest(tmp_path / "images.csv", [("img", 640, 640)])
        labels.joinpath("img.txt").write_text("0 0.5 0.5\n")
        rc = cli.main(
            [
                "tile",
                "--manifest", str(tmp_path / "images.csv"),
                "--labels-dir", str(labels),
                "--out-dir", str(tmp_path / "out"),
            ]
        )
        assert rc == 2


    def test_config_echo_records_tile_size_that_ran(self, tmp_path):
        (tmp_path / "labels").mkdir()
        make_manifest(tmp_path / "images.csv", [("img", 640, 640)])
        out = tmp_path / "out"
        rc = cli.main(
            [
                "tile",
                "--manifest", str(tmp_path / "images.csv"),
                "--labels-dir", str(tmp_path / "labels"),
                "--out-dir", str(out),
                "--tile-size", "320",
            ]
        )
        assert rc == 0
        assert json.loads((out / "config_used.json").read_text())["input_size"] == 320

    @pytest.mark.parametrize("field", ["nan", "inf", "-inf"])
    def test_non_finite_label_field_is_data_error(self, tmp_path, capsys, field):
        labels = tmp_path / "labels"
        labels.mkdir()
        make_manifest(tmp_path / "images.csv", [("img", 640, 640)])
        labels.joinpath("img.txt").write_text(f"0 0.5 0.5 0.1 0.1\n0 0.5 {field} 0.1 0.1\n")
        rc = cli.main(
            [
                "tile",
                "--manifest", str(tmp_path / "images.csv"),
                "--labels-dir", str(labels),
                "--out-dir", str(tmp_path / "out"),
            ]
        )
        assert rc == 2
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("width", ["100000000", "9" * 401])
    def test_plan_beyond_the_cap_is_refused_before_any_write(self, tmp_path, capsys, width):
        labels = tmp_path / "labels"
        labels.mkdir()
        (tmp_path / "images.csv").write_text(
            f"image_id,width,height\nsmall,640,640\nbig,{width},100000000\n")
        labels.joinpath("big.txt").write_text("not a label\n")
        rc = cli.main(
            [
                "tile",
                "--manifest", str(tmp_path / "images.csv"),
                "--labels-dir", str(labels),
                "--out-dir", str(tmp_path / "out"),
                "--tile-size", "32",
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{tmp_path / 'images.csv'}: image big: a 32px grid needs more than 65536" in err
        assert not (tmp_path / "out").exists()

    def test_over_long_manifest_field_is_data_error(self, tmp_path, capsys):
        # 200k characters, over the csv module's default field limit
        make_manifest(tmp_path / "images.csv", [("x" * 200_000, 640, 640)])
        rc = cli.main(
            [
                "tile",
                "--manifest", str(tmp_path / "images.csv"),
                "--labels-dir", str(tmp_path),
                "--out-dir", str(tmp_path / "out"),
            ]
        )
        assert rc == 2
        assert "images.csv" in capsys.readouterr().err


class TestSplit:
    def test_duplicate_id_is_data_error(self, tmp_path, capsys):
        make_manifest(tmp_path / "images.csv", [("a", 640, 640), ("b", 640, 640), ("a", 1, 1)])
        rc = cli.main(["split", "--manifest", str(tmp_path / "images.csv"),
                       "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "images.csv: line 4: duplicate image id 'a'" in capsys.readouterr().err

    def test_split_files(self, tmp_path):
        make_manifest(tmp_path / "images.csv", [(f"i{k}", 640, 640) for k in range(10)])
        out = tmp_path / "split"
        rc = cli.main(
            [
                "split",
                "--manifest", str(tmp_path / "images.csv"),
                "--out-dir", str(out),
                "--ratio-train", "4",
                "--ratio-test", "1",
                "--seed", "7",
            ]
        )
        assert rc == 0
        train = (out / "train.txt").read_text().split()
        test = (out / "test.txt").read_text().split()
        assert len(train) == 8 and len(test) == 2
        assert not set(train) & set(test)

    def test_deterministic_across_runs(self, tmp_path):
        make_manifest(tmp_path / "images.csv", [(f"i{k}", 640, 640) for k in range(20)])
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            cli.main(
                [
                    "split",
                    "--manifest", str(tmp_path / "images.csv"),
                    "--out-dir", str(out),
                    "--seed", "3",
                ]
            )
            outs.append((out / "test.txt").read_text())
        assert outs[0] == outs[1]

    def test_accepts_tile_manifest(self, tmp_path):
        text = (
            "tile_id,row,col,origin_x,origin_y,tile_size\n"
            "a_r0_c0,0,0,0,0,416\n"
            "a_r0_c1,0,1,416,0,416\n"
            "a_r1_c0,1,0,0,416,416\n"
        )
        (tmp_path / "tiles.csv").write_text(text)
        out = tmp_path / "split"
        rc = cli.main(
            ["split", "--manifest", str(tmp_path / "tiles.csv"), "--out-dir", str(out)]
        )
        assert rc == 0
        ids = set((out / "train.txt").read_text().split()) | set(
            (out / "test.txt").read_text().split()
        )
        assert ids == {"a_r0_c0", "a_r0_c1", "a_r1_c0"}

    def test_over_long_tile_manifest_field_is_data_error(self, tmp_path, capsys):
        (tmp_path / "tiles.csv").write_text(
            "tile_id,row,col,origin_x,origin_y,tile_size\n" + "x" * 200_000 + ",0,0,0,0,416\n"
        )
        rc = cli.main(
            ["split", "--manifest", str(tmp_path / "tiles.csv"), "--out-dir", str(tmp_path / "s")]
        )
        assert rc == 2
        assert "tiles.csv" in capsys.readouterr().err


def write_scale_tensors(tensors_dir, stem, hot=None, num_classes=2, input_size=416):
    """Write a zero tensor triple for one stem; `hot` optionally plants one
    confident candidate as (scale_idx, anchor_idx, y, x, class_idx)."""
    tensors_dir.mkdir(exist_ok=True, parents=True)
    sides = {0: input_size // 32, 1: input_size // 16, 2: input_size // 8}
    block = 5 + num_classes
    for scale_idx, suffix in enumerate((".s0.vct", ".s1.vct", ".s2.vct")):
        side = sides[scale_idx]
        vals = np.zeros((3 * block, side, side))
        if hot is not None and hot[0] == scale_idx:
            _, a, y, x, cls = hot
            vals[a * block + 4, y, x] = 10.0          # objectness logit
            vals[a * block + 5 + cls, y, x] = 8.0     # class logit
        tensors_dir.joinpath(stem + suffix).write_bytes(
            write_tensor(RawHeadTensor(vals))
        )


class TestDecode:
    def test_zero_tensors_decode_empty(self, tmp_path):
        write_scale_tensors(tmp_path / "t", "tile_a")
        out = tmp_path / "det"
        rc = cli.main(
            ["decode", "--tensors-dir", str(tmp_path / "t"), "--out-dir", str(out)]
        )
        assert rc == 0
        assert (out / "tile_a.det.txt").read_text() == ""

    def test_hot_cell_decodes_to_expected_box(self, tmp_path):
        # stride-32 head, anchor triple (116,90),(156,198),(373,326);
        # anchor 1 at cell (x=4, y=2) with tx=ty=tw=th=0
        write_scale_tensors(tmp_path / "t", "tile_b", hot=(0, 1, 2, 4, 0))
        out = tmp_path / "det"
        rc = cli.main(
            ["decode", "--tensors-dir", str(tmp_path / "t"), "--out-dir", str(out)]
        )
        assert rc == 0
        line = (out / "tile_b.det.txt").read_text().strip()
        fields = line.split()
        assert fields[0] == "0"
        want_score = sigmoid(10.0) * sigmoid(8.0)
        assert float(fields[1]) == pytest.approx(want_score, abs=1e-6)
        # center (4.5*32, 2.5*32) = (144, 80), size (156, 198)
        assert float(fields[2]) == pytest.approx(144.0 - 78.0, abs=1e-6)
        assert float(fields[3]) == pytest.approx(80.0 - 99.0, abs=1e-6)
        assert float(fields[4]) == pytest.approx(156.0, abs=1e-6)
        assert float(fields[5]) == pytest.approx(198.0, abs=1e-6)

    def test_deterministic_output(self, tmp_path):
        write_scale_tensors(tmp_path / "t", "tile_c", hot=(1, 0, 3, 3, 1))
        texts = []
        for name in ("d1", "d2"):
            out = tmp_path / name
            cli.main(
                ["decode", "--tensors-dir", str(tmp_path / "t"), "--out-dir", str(out)]
            )
            texts.append((out / "tile_c.det.txt").read_bytes())
        assert texts[0] == texts[1]

    def test_wrong_grid_size_rejected(self, tmp_path):
        # tensors shaped for input 320 decoded under the 416 default
        write_scale_tensors(tmp_path / "t", "tile_d", input_size=320)
        rc = cli.main(
            ["decode", "--tensors-dir", str(tmp_path / "t"), "--out-dir", str(tmp_path / "o")]
        )
        assert rc == 2

    def test_wrong_class_count_rejected(self, tmp_path):
        write_scale_tensors(tmp_path / "t", "tile_e", num_classes=3)
        rc = cli.main(
            ["decode", "--tensors-dir", str(tmp_path / "t"), "--out-dir", str(tmp_path / "o")]
        )
        assert rc == 2

    def test_missing_scale_file_rejected(self, tmp_path, capsys):
        write_scale_tensors(tmp_path / "t", "tile_f")
        os.remove(tmp_path / "t" / "tile_f.s1.vct")
        rc = cli.main(
            ["decode", "--tensors-dir", str(tmp_path / "t"), "--out-dir", str(tmp_path / "o")]
        )
        assert rc == 2
        assert "error: tile_f: missing scale file tile_f.s1.vct" in capsys.readouterr().err

    def test_empty_tensor_dir_rejected(self, tmp_path):
        (tmp_path / "t").mkdir()
        rc = cli.main(
            ["decode", "--tensors-dir", str(tmp_path / "t"), "--out-dir", str(tmp_path / "o")]
        )
        assert rc == 2

    def test_score_threshold_override_filters(self, tmp_path):
        # the planted candidate scores ~0.9999; a threshold above that must
        # suppress it
        write_scale_tensors(tmp_path / "t", "tile_g", hot=(0, 0, 1, 1, 0))
        out = tmp_path / "det"
        cli.main(
            [
                "decode",
                "--tensors-dir", str(tmp_path / "t"),
                "--out-dir", str(out),
                "--score-threshold", "0.99999",
            ]
        )
        assert (out / "tile_g.det.txt").read_text() == ""

    def test_nan_logit_is_data_error(self, tmp_path, capsys):
        write_scale_tensors(tmp_path / "t", "tile_h")
        path = tmp_path / "t" / "tile_h.s1.vct"
        # the payload's last float32 is a class logit
        path.write_bytes(path.read_bytes()[:-4] + struct.pack("<f", math.nan))
        rc = cli.main(
            ["decode", "--tensors-dir", str(tmp_path / "t"), "--out-dir", str(tmp_path / "o")]
        )
        assert rc == 2
        assert "tile_h.s1.vct" in capsys.readouterr().err


    def test_size_logits_near_700_are_data_error(self, tmp_path, capsys):
        # each side is finite, about 1e306; their product is not
        write_scale_tensors(tmp_path / "t", "tile_j", hot=(1, 0, 3, 3, 1))
        path = tmp_path / "t" / "tile_j.s1.vct"
        vals = read_tensor(path.read_bytes()).values
        vals[2:4, 3, 3] = 700.0
        path.write_bytes(write_tensor(RawHeadTensor(vals)))
        rc = cli.main(
            ["decode", "--tensors-dir", str(tmp_path / "t"), "--out-dir", str(tmp_path / "o")]
        )
        assert rc == 2
        assert (f"{path}: decoded detection 0: box area must be finite"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("t_w, reason", [
        (1000.0, "x_min must be finite"),
        (-1000.0, "width and height must be > 0"),
    ])
    def test_degenerate_box_is_data_error(self, tmp_path, capsys, t_w, reason):
        write_scale_tensors(tmp_path / "t", "tile_i", hot=(1, 0, 3, 3, 1))
        path = tmp_path / "t" / "tile_i.s1.vct"
        vals = read_tensor(path.read_bytes()).values
        vals[2, 3, 3] = t_w  # the hot candidate's width logit
        path.write_bytes(write_tensor(RawHeadTensor(vals)))
        rc = cli.main(
            ["decode", "--tensors-dir", str(tmp_path / "t"), "--out-dir", str(tmp_path / "o")]
        )
        assert rc == 2
        assert f"tile_i.s1.vct: decoded detection 0: {reason}" in capsys.readouterr().err

    def test_batched_nms_equals_per_stem_nms(self, tmp_path, monkeypatch):
        # at input size 32 and thresholds 0 every (anchor, cell) is a
        # candidate: 3 * (1 + 4 + 16) = 63 per stem, so 42 stems span two
        # batches; the twins sort last and share the second batch, with the
        # same tile-local boxes and classes
        rng = np.random.default_rng(5)
        tensors = tmp_path / "t"
        tensors.mkdir()
        stems = [f"s{i:02d}" for i in range(40)] + ["twin_a", "twin_b"]
        for stem in stems[:-1]:
            for suffix, side in zip(cli.SCALE_SUFFIXES, (1, 2, 4)):
                vals = rng.normal(0.0, 2.0, size=(21, side, side))
                tensors.joinpath(stem + suffix).write_bytes(write_tensor(RawHeadTensor(vals)))
        for suffix in cli.SCALE_SUFFIXES:
            tensors.joinpath("twin_b" + suffix).write_bytes(
                tensors.joinpath("twin_a" + suffix).read_bytes())
        assert 63 * 33 > _kernels.BATCH_ROWS >= 63 * 32  # the first batch holds 32 stems
        calls = []
        nms_keep = _kernels.nms_keep

        def counted(*args):
            calls.append(len(args[0]))
            return nms_keep(*args)

        monkeypatch.setattr(_kernels, "nms_keep", counted)
        out = tmp_path / "o"
        rc = cli.main(["decode", "--tensors-dir", str(tensors), "--out-dir", str(out),
                       "--input-size", "32", "--score-threshold", "0",
                       "--objectness-threshold", "0"])
        assert rc == 0
        assert calls == [63 * 32, 63 * 10]
        config = HarnessConfig(input_size=32, score_threshold=0.0, objectness_threshold=0.0)
        anchor_sets = [[AnchorBox(w, h) for w, h in config.anchors[i:i + 3]] for i in (6, 3, 0)]
        for stem in stems:
            parts = [
                decode_head(read_tensor(tensors.joinpath(stem + suffix).read_bytes()),
                            anchors, stride, 0.0, objectness_threshold=0.0)
                for suffix, anchors, stride in zip(cli.SCALE_SUFFIXES, anchor_sets, (32, 16, 8))
            ]
            want = write_detection_file(
                nms([d for p in parts for d in p], config.nms_iou_threshold))
            assert (out / f"{stem}.det.txt").read_text() == want, stem
        twin = (out / "twin_a.det.txt").read_text()
        assert twin and twin == (out / "twin_b.det.txt").read_text()

    def test_error_inside_a_batch_leaves_no_later_file(self, tmp_path, capsys):
        # every stem fits in one batch; stem 5 fails while it is unflushed
        tensors = tmp_path / "t"
        for i in range(10):
            write_scale_tensors(tensors, f"s{i}", hot=(1, 0, 1, 1, 1), input_size=32)
        path = tensors / "s5.s1.vct"
        vals = read_tensor(path.read_bytes()).values
        vals[2, 1, 1] = 1000.0  # the hot candidate's width logit
        path.write_bytes(write_tensor(RawHeadTensor(vals)))
        out = tmp_path / "o"
        rc = cli.main(["decode", "--tensors-dir", str(tensors), "--out-dir", str(out),
                       "--input-size", "32"])
        assert rc == 2
        assert (f"{path}: decoded detection 0: x_min must be finite"
                in capsys.readouterr().err)
        assert not list(out.glob("*.tmp"))
        for i in range(5, 10):
            assert not (out / f"s{i}.det.txt").exists()


# finite float32 values at the edges: the largest magnitude, logits whose
# exponential overflows or vanishes, the smallest subnormal and normal
_F32_EXTREMES = [3.4e38, -3.4e38, 1000.0, -1000.0, 1e-45, -1e-45, 1.2e-38,
                 0.0, -0.0, 10.0, -10.0]


@st.composite
def _vct_file(draw, side):
    """One .vct file for a 2-class head of the given side: usually well
    formed, sometimes with a wrong side, a wrong channel count, a truncated
    payload or a bad magic; a few values drawn from the float32 extremes,
    and a few size logits drawn from [600, 710]."""
    c, h = 21, side
    shape = draw(st.sampled_from(["ok"] * 6 + ["side", "channels"]))
    if shape == "side":
        h = draw(st.sampled_from([0, side - 1, side + 1]))
    elif shape == "channels":
        c = draw(st.sampled_from([0, 18, 20, 24]))
    vals = np.zeros((c, h, h), dtype="<f4")
    if vals.size:
        for _ in range(draw(st.integers(0, 8))):
            at = (draw(st.integers(0, c - 1)), draw(st.integers(0, h - 1)),
                  draw(st.integers(0, h - 1)))
            vals[at] = draw(st.sampled_from(_F32_EXTREMES))
        # size logits whose exponential is finite but near the float64 limit
        for _ in range(draw(st.integers(0, 4))):
            at = (draw(st.sampled_from([k for k in (2, 3, 9, 10, 16, 17) if k < c])),
                  draw(st.integers(0, h - 1)), draw(st.integers(0, h - 1)))
            vals[at] = draw(st.floats(600.0, 710.0, width=32))
    data = struct.pack("<4sIII", b"VCT1", c, h, h) + vals.tobytes()
    damage = draw(st.sampled_from(["none"] * 6 + ["truncate", "magic"]))
    if damage == "truncate":
        data = data[: draw(st.integers(0, len(data) - 1))]
    elif damage == "magic":
        data = draw(st.sampled_from([b"VCT2", b"\0\0\0\0", b"vct1"])) + data[4:]
    return data


class TestDecodeExitCodes:
    @settings(max_examples=150, deadline=None)
    @given(files=st.tuples(_vct_file(1), _vct_file(2), _vct_file(4)),
           score=st.sampled_from(["0", "0.001", "0.3"]),
           objectness=st.sampled_from(["0", "0.3"]))
    def test_exit_code_is_0_or_2_and_no_traceback(self, files, score, objectness):
        with tempfile.TemporaryDirectory() as work:
            tensors = os.path.join(work, "t")
            os.mkdir(tensors)
            for suffix, data in zip(cli.SCALE_SUFFIXES, files):
                with open(os.path.join(tensors, "tile" + suffix), "wb") as fh:
                    fh.write(data)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = cli.main(["decode", "--tensors-dir", tensors,
                               "--out-dir", os.path.join(work, "o"), "--input-size", "32",
                               "--score-threshold", score,
                               "--objectness-threshold", objectness])
            assert rc in (0, 2)
            assert "Traceback" not in err.getvalue()
            if rc == 2:
                assert err.getvalue().startswith("error: ")


_DECODE_THRESHOLDS = [0.0, 0.001, 0.3, 1 - 1e-7, 1.0]


def _float32_near(x, ulps=3):
    """The float32 values within ``ulps`` steps of float32(x)."""
    near = [np.float32(x)]
    for _ in range(ulps):
        near = [np.nextafter(near[0], np.float32(-np.inf)), *near,
                np.nextafter(near[-1], np.float32(np.inf))]
    return [float(v) for v in near]


def _reference_decode(tensors, stems, score, objectness):
    """Per stem, the .det.txt text of decode_head over read_tensor of each
    scale, then one NMS; or the first DegenerateBox as "<path>: <reason>"."""
    config = HarnessConfig(input_size=32, score_threshold=score,
                           objectness_threshold=objectness)
    anchor_sets = [[AnchorBox(w, h) for w, h in config.anchors[i:i + 3]] for i in (6, 3, 0)]
    texts = {}
    for stem in stems:
        parts = []
        for suffix, anchors, stride in zip(cli.SCALE_SUFFIXES, anchor_sets, (32, 16, 8)):
            path = os.path.join(tensors, stem + suffix)
            with open(path, "rb") as fh:
                tensor = read_tensor(fh.read())
            try:
                parts.append(decode_head(tensor, anchors, stride, score,
                                         objectness_threshold=objectness))
            except DegenerateBox as exc:
                return texts, f"{path}: {exc}"
        texts[stem] = write_detection_file(
            nms([d for p in parts for d in p], config.nms_iou_threshold))
    return texts, None


class TestDecodeEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), score=st.sampled_from(_DECODE_THRESHOLDS),
           objectness=st.sampled_from(_DECODE_THRESHOLDS), n_stems=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1))
    def test_cli_decode_equals_decode_head_per_scale_then_nms(self, data, score, objectness,
                                                              n_stems, seed):
        # objectness logits within a few float32 ulps of the float64 gate
        # floor and of the logit where the sigmoid reaches the threshold,
        # plus values from the float32 extremes anywhere
        p = max(score, objectness)
        edges = [_kernels._logit_floor(p)]
        if 0.0 < p < 1.0:
            edges.append(math.log(p) - math.log1p(-p))
        near = [v for e in edges if math.isfinite(e) for v in _float32_near(e)] or [0.0]
        rng = np.random.default_rng(seed)
        stems = [f"s{i}" for i in range(n_stems)]
        with tempfile.TemporaryDirectory() as work:
            tensors = os.path.join(work, "t")
            os.mkdir(tensors)
            for stem in stems:
                for suffix, side in zip(cli.SCALE_SUFFIXES, (1, 2, 4)):
                    vals = rng.normal(0.0, 2.0, size=(21, side, side)).astype("<f4")
                    for a in range(3):
                        vals[7 * a + 4] = rng.choice(near, size=(side, side))
                    for _ in range(data.draw(st.integers(0, 3))):
                        at = (data.draw(st.integers(0, 20)), data.draw(st.integers(0, side - 1)),
                              data.draw(st.integers(0, side - 1)))
                        vals[at] = data.draw(st.sampled_from(_F32_EXTREMES))
                    with open(os.path.join(tensors, stem + suffix), "wb") as fh:
                        fh.write(struct.pack("<4sIII", b"VCT1", 21, side, side) + vals.tobytes())
            texts, error = _reference_decode(tensors, stems, score, objectness)
            out = os.path.join(work, "o")
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = cli.main(["decode", "--tensors-dir", tensors, "--out-dir", out,
                               "--input-size", "32", "--score-threshold", repr(score),
                               "--objectness-threshold", repr(objectness)])
            if error is None:
                assert rc == 0, err.getvalue()
                for stem in stems:
                    with open(os.path.join(out, stem + ".det.txt")) as fh:
                        assert fh.read() == texts[stem], stem
            else:
                assert rc == 2
                assert err.getvalue() == f"error: {error}\n"
                assert not glob.glob(os.path.join(out, "*.det.txt"))


class TestDecodeErrorOrder:
    """Per stem, per scale: the read, the shape and class checks, then the
    box rules; an error in a later stem never pre-empts an earlier one."""

    STEMS = [f"s{i}" for i in range(5)]

    def _run(self, tmp_path, capsys, degenerate, truncated):
        tensors = tmp_path / "t"
        for stem in self.STEMS:
            write_scale_tensors(tensors, stem, hot=(1, 0, 1, 1, 1), input_size=32)
        bad_box = tensors / degenerate
        vals = read_tensor(bad_box.read_bytes()).values
        vals[2, 1, 1] = 1000.0  # the hot candidate's width logit
        bad_box.write_bytes(write_tensor(RawHeadTensor(vals)))
        short = tensors / truncated
        short.write_bytes(short.read_bytes()[:-4])
        out = tmp_path / "o"
        rc = cli.main(["decode", "--tensors-dir", str(tensors), "--out-dir", str(out),
                       "--input-size", "32"])
        return rc, capsys.readouterr().err, out

    @pytest.mark.parametrize("degenerate, truncated", [
        ("s1.s1.vct", "s3.s0.vct"),  # a later stem's read error
        ("s1.s1.vct", "s1.s2.vct"),  # a later scale's read error in the same stem
    ])
    def test_bad_box_before_a_read_error_is_reported(self, tmp_path, capsys, degenerate,
                                                      truncated):
        rc, err, out = self._run(tmp_path, capsys, degenerate, truncated)
        assert rc == 2
        assert err == (f"error: {tmp_path / 't' / degenerate}: decoded detection 0: "
                       "x_min must be finite\n")
        for stem in self.STEMS[1:]:
            assert not (out / f"{stem}.det.txt").exists()

    @pytest.mark.parametrize("truncated, degenerate", [
        ("s1.s1.vct", "s3.s1.vct"),  # a later stem's bad box
        ("s1.s0.vct", "s1.s1.vct"),  # a later scale's bad box in the same stem
    ])
    def test_read_error_before_a_bad_box_is_reported(self, tmp_path, capsys, truncated,
                                                      degenerate):
        rc, err, out = self._run(tmp_path, capsys, degenerate, truncated)
        assert rc == 2
        side = {"s0": 1, "s1": 2}[truncated.split(".")[1]]
        declared = 21 * side * side * 4
        assert err == (f"error: {tmp_path / 't' / truncated}: payload carries {declared - 4} "
                       f"bytes, header declares {declared}\n")
        for stem in self.STEMS[1:]:
            assert not (out / f"{stem}.det.txt").exists()


def _batches_of(rows, cap):
    """The positions of consecutive items gathered as decode and eval
    gather them: an item that would take a batch past ``cap`` rows starts
    a new one."""
    batches, total = [[]], 0
    for i, n in enumerate(rows):
        if batches[-1] and total + n > cap:
            batches.append([])
            total = 0
        batches[-1].append(i)
        total += n
    return batches


class TestDecodeBatchCaps:
    """decode cuts consecutive stems into batches of at most
    _kernels.BATCH_ROWS gated cells; each batch is decoded, checked,
    suppressed and written on its own. Whatever the cap, every file written
    is the per-stem reference's and the first error is the reference's;
    after an error, the files of every earlier batch exist and none of the
    failing batch's or a later one's."""

    def run_decode(self, tensors, out, cap, *flags):
        err = io.StringIO()
        with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            mp.setattr(_kernels, "BATCH_ROWS", cap)
            rc = cli.main(["decode", "--tensors-dir", str(tensors), "--out-dir", str(out),
                           "--input-size", "32", *flags])
        return rc, err.getvalue()

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), score=st.sampled_from(_DECODE_THRESHOLDS),
           objectness=st.sampled_from(_DECODE_THRESHOLDS), n_stems=st.integers(2, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_every_cap_gives_the_reference_files_and_error(self, data, score, objectness,
                                                           n_stems, seed):
        p = max(score, objectness)
        edges = [_kernels._logit_floor(p)]
        if 0.0 < p < 1.0:
            edges.append(math.log(p) - math.log1p(-p))
        near = [v for e in edges if math.isfinite(e) for v in _float32_near(e)] or [0.0]
        gate = _kernels.logit_gate(p, np.dtype(np.float32))
        rng = np.random.default_rng(seed)
        stems = [f"s{i}" for i in range(n_stems)]
        gated = [0] * n_stems
        with tempfile.TemporaryDirectory() as work:
            tensors = os.path.join(work, "t")
            os.mkdir(tensors)
            for i, stem in enumerate(stems):
                for suffix, side in zip(cli.SCALE_SUFFIXES, (1, 2, 4)):
                    vals = rng.normal(0.0, 2.0, size=(21, side, side)).astype("<f4")
                    for a in range(3):
                        vals[7 * a + 4] = rng.choice(near, size=(side, side))
                    for _ in range(data.draw(st.integers(0, 3))):
                        at = (data.draw(st.integers(0, 20)), data.draw(st.integers(0, side - 1)),
                              data.draw(st.integers(0, side - 1)))
                        vals[at] = data.draw(st.sampled_from(_F32_EXTREMES))
                    gated[i] += int((vals[4::7] >= gate).sum())
                    with open(os.path.join(tensors, stem + suffix), "wb") as fh:
                        fh.write(struct.pack("<4sIII", b"VCT1", 21, side, side) + vals.tobytes())
            texts, error = _reference_decode(tensors, stems, score, objectness)
            for cap in (1, max(1, sum(gated) // 2), _kernels.BATCH_ROWS):
                out = os.path.join(work, f"o{cap}")
                rc, err = self.run_decode(tensors, out, cap, "--score-threshold", repr(score),
                                          "--objectness-threshold", repr(objectness))
                batch_of = {stems[i]: b for b, batch in enumerate(_batches_of(gated, cap))
                            for i in batch}
                # the stem of the reference error is the first one without a text
                failed = batch_of[stems[len(texts)]] if error else len(stems)
                if error is None:
                    assert rc == 0, err
                else:
                    assert rc == 2
                    assert err == f"error: {error}\n"
                for stem in stems:
                    path = os.path.join(out, stem + ".det.txt")
                    assert os.path.exists(path) == (batch_of[stem] < failed), (cap, stem)
                    if batch_of[stem] < failed:
                        with open(path) as fh:
                            assert fh.read() == texts[stem], (cap, stem)

    @pytest.mark.parametrize("per_batch, written", [(1, 3), (2, 2)])
    @pytest.mark.parametrize("damage", ["bad box", "read error"])
    def test_an_error_leaves_the_earlier_batches_written(self, tmp_path, per_batch, written,
                                                         damage):
        # at input size 32 every one of a stem's 3 * (1 + 4 + 16) = 63 zero
        # cells passes the 0.3 gate, and only the hot one scores 0.3
        tensors = tmp_path / "t"
        stems = [f"s{i}" for i in range(5)]
        for stem in stems:
            write_scale_tensors(tensors, stem, hot=(1, 0, 1, 1, 1), input_size=32)
        path = tensors / "s3.s1.vct"
        if damage == "bad box":
            vals = read_tensor(path.read_bytes()).values
            vals[2, 1, 1] = 1000.0  # the hot candidate's width logit
            path.write_bytes(write_tensor(RawHeadTensor(vals)))
            want = f"error: {path}: decoded detection 0: x_min must be finite\n"
        else:
            path.write_bytes(path.read_bytes()[:-4])
            declared = 21 * 2 * 2 * 4
            want = f"error: {path}: payload carries {declared - 4} bytes, header declares {declared}\n"
        out = tmp_path / "o"
        # batches of per_batch stems: s3 shares its batch with s2 when two fit
        assert self.run_decode(tensors, out, 63 * per_batch) == (2, want)
        texts, _ = _reference_decode(str(tensors), stems[:3], 0.3, 0.3)
        assert sorted(p.name for p in out.iterdir()) == [f"{s}.det.txt" for s in stems[:written]]
        for stem in stems[:written]:
            assert (out / f"{stem}.det.txt").read_text() == texts[stem]


def label_line(cls, cx, cy, w, h):
    return f"{cls} {cx:.6f} {cy:.6f} {w:.6f} {h:.6f}\n"


def det_line(cls, score, x, y, w, h):
    return f"{cls} {score:.6f} {x:.6f} {y:.6f} {w:.6f} {h:.6f}\n"


class TestEval:
    def setup_run(self, tmp_path, tp=True):
        labels = tmp_path / "labels"
        dets = tmp_path / "dets"
        labels.mkdir(exist_ok=True)
        dets.mkdir(exist_ok=True)
        # one class-0 box at pixel (83.2, 83.2) 41.6 square (416 extent)
        labels.joinpath("t1.txt").write_text(label_line(0, 0.25, 0.25, 0.1, 0.1))
        if tp:
            dets.joinpath("t1.det.txt").write_text(
                det_line(0, 0.9, 83.2, 83.2, 41.6, 41.6)
            )
        else:
            dets.joinpath("t1.det.txt").write_text(
                det_line(0, 0.9, 300.0, 300.0, 41.6, 41.6)
            )
        return labels, dets

    def test_perfect_run(self, tmp_path, capsys):
        labels, dets = self.setup_run(tmp_path)
        out = tmp_path / "eval"
        rc = cli.main(
            [
                "eval",
                "--detections-dir", str(dets),
                "--labels-dir", str(labels),
                "--out-dir", str(out),
                "--run-id", "r1",
            ]
        )
        assert rc == 0
        lines = (out / "metrics.csv").read_text().strip().splitlines()
        assert lines[0] == "run_id,scale,class,ap30,map30,f1max,tp,fp,fn"
        row = lines[1].split(",")
        assert row[0] == "r1" and row[1] == "416"
        assert float(row[3]) == 1.0 and float(row[4]) == 1.0 and float(row[5]) == 1.0
        assert (row[6], row[7], row[8]) == ("1", "0", "0")
        obs = (out / "observations.csv").read_text().splitlines()
        assert obs[0] == "run_id,metric,group,value"
        assert "r1,map30,416,1.000000" in obs
        assert "r1,f1max,416,1.000000" in obs
        assert any(line.startswith("r1,ap30_volunteer-cotton,416,") for line in obs)
        assert "mAP30 1.0000" in capsys.readouterr().out

    def test_missed_detection(self, tmp_path):
        labels, dets = self.setup_run(tmp_path, tp=False)
        out = tmp_path / "eval"
        cli.main(
            [
                "eval",
                "--detections-dir", str(dets),
                "--labels-dir", str(labels),
                "--out-dir", str(out),
                "--run-id", "r1",
            ]
        )
        row = (out / "metrics.csv").read_text().strip().splitlines()[1].split(",")
        assert float(row[3]) == 0.0
        assert (row[6], row[7], row[8]) == ("0", "1", "1")

    def test_observations_append_across_runs(self, tmp_path):
        labels, dets = self.setup_run(tmp_path)
        obs_path = tmp_path / "all_obs.csv"
        for run_id, group in (("r1", "320"), ("r2", "320"), ("r3", "416")):
            rc = cli.main(
                [
                    "eval",
                    "--detections-dir", str(dets),
                    "--labels-dir", str(labels),
                    "--out-dir", str(tmp_path / f"eval_{run_id}"),
                    "--run-id", run_id,
                    "--group", group,
                    "--observations", str(obs_path),
                ]
            )
            assert rc == 0
        lines = obs_path.read_text().strip().splitlines()
        assert lines[0] == "run_id,metric,group,value"
        assert sum(1 for l in lines if l.startswith("r1,")) == 3
        assert sum(1 for l in lines if ",map30," in l) == 3
        groups = {l.split(",")[2] for l in lines[1:]}
        assert groups == {"320", "416"}

    def eval_argv(self, labels, dets, out, run_id, *flags):
        return ["eval", "--detections-dir", str(dets), "--labels-dir", str(labels),
                "--out-dir", str(out), "--run-id", run_id, *flags]

    @pytest.mark.parametrize("again", ["r1", " r1 "])
    def test_repeated_run_id_is_refused(self, tmp_path, capsys, again):
        labels, dets = self.setup_run(tmp_path)
        obs_path = tmp_path / "obs.csv"
        argv = self.eval_argv(labels, dets, tmp_path / "eval", "r1",
                              "--observations", str(obs_path))
        assert cli.main(argv) == 0
        before = obs_path.read_text()
        capsys.readouterr()
        argv[argv.index("r1")] = again
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {obs_path}: run id {again!r} already has a map30 row")
        assert obs_path.read_text() == before
        assert parse_observations(before) == {
            "map30": {"416": [1.0]}, "f1max": {"416": [1.0]}, "ap30_volunteer-cotton": {"416": [1.0]}}

    def test_refused_rerun_leaves_the_first_runs_outputs(self, tmp_path, capsys):
        labels, dets = self.setup_run(tmp_path, tp=False)
        out = tmp_path / "eval"
        assert cli.main(self.eval_argv(labels, dets, out, "r1",
                                       "--eval-iou-threshold", "0.3")) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(first) == ["config_used.json", "metrics.csv", "observations.csv",
                                 "pr_curves.csv"]
        # a re-run of r1 that would score 1.0, at another threshold
        dets.joinpath("t1.det.txt").write_text(det_line(0, 0.9, 83.2, 83.2, 41.6, 41.6))
        assert cli.main(self.eval_argv(labels, dets, out, "r1",
                                       "--eval-iou-threshold", "0.5")) == 2
        assert "run id 'r1' already has a map30 row" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == first

    def test_run_ids_with_comma_and_quote_round_trip_through_compare(self, tmp_path, capsys):
        labels, dets = self.setup_run(tmp_path)
        obs_path = tmp_path / "obs.csv"
        write_observations(obs_path, TestCompare.GROUPS)
        run_ids = ["r,1", 'r"2', 'r, "3"']
        for run_id in run_ids:
            assert cli.main(self.eval_argv(labels, dets, tmp_path / "eval", run_id,
                                           "--observations", str(obs_path))) == 0
        rows = list(csv.reader(io.StringIO(obs_path.read_text())))
        assert [row[0] for row in rows if row[1] == "map30"][-3:] == run_ids
        assert cli.main(self.eval_argv(labels, dets, tmp_path / "eval", "r,1",
                                       "--observations", str(obs_path))) == 2
        assert cli.main(["compare", "--observations", str(obs_path), "--metric", "map30",
                         "--out-dir", str(tmp_path / "cmp")]) == 0
        assert cli.main(["report", "--observations", str(obs_path)]) == 0
        assert "group 416: n=8 " in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--run-id", "--group"])
    @pytest.mark.parametrize("value", ["r\n1", "r\r1", "\n"])
    def test_line_break_in_an_observation_field_is_usage_error(self, tmp_path, capsys, flag,
                                                                value):
        labels, dets = self.setup_run(tmp_path)
        argv = self.eval_argv(labels, dets, tmp_path / "eval", "r1", flag, value)
        assert cli.main(argv) == 3
        assert f"argument {flag}: must not hold a line break" in capsys.readouterr().err
        assert not (tmp_path / "eval").exists()

    def test_unpaired_stems_rejected(self, tmp_path):
        labels, dets = self.setup_run(tmp_path)
        labels.joinpath("t2.txt").write_text(label_line(0, 0.5, 0.5, 0.1, 0.1))
        rc = cli.main(
            [
                "eval",
                "--detections-dir", str(dets),
                "--labels-dir", str(labels),
                "--out-dir", str(tmp_path / "eval"),
                "--run-id", "r1",
            ]
        )
        assert rc == 2

    def test_corrupt_observation_file_rejected(self, tmp_path):
        labels, dets = self.setup_run(tmp_path)
        obs_path = tmp_path / "obs.csv"
        obs_path.write_text("something,else\n1,2\n")
        rc = cli.main(
            [
                "eval",
                "--detections-dir", str(dets),
                "--labels-dir", str(labels),
                "--out-dir", str(tmp_path / "eval"),
                "--run-id", "r1",
                "--observations", str(obs_path),
            ]
        )
        assert rc == 2


    @pytest.mark.parametrize("column", range(2, 6))
    @pytest.mark.parametrize("field", ["nan", "inf", "-inf"])
    def test_non_finite_detection_field_is_data_error(self, tmp_path, capsys, column, field):
        labels, dets = self.setup_run(tmp_path)
        parts = det_line(0, 0.5, 10.0, 10.0, 20.0, 20.0).split()
        parts[column] = field
        dets.joinpath("t1.det.txt").write_text(
            det_line(0, 0.9, 83.2, 83.2, 41.6, 41.6) + " ".join(parts) + "\n"
        )
        rc = cli.main(
            [
                "eval",
                "--detections-dir", str(dets),
                "--labels-dir", str(labels),
                "--out-dir", str(tmp_path / "eval"),
                "--run-id", "r1",
            ]
        )
        assert rc == 2
        assert "line 2" in capsys.readouterr().err

    def tile_at_320(self, tmp_path):
        """Labels tiled at 320 px and an empty detection file per tile."""
        (tmp_path / "labels").mkdir()
        make_manifest(tmp_path / "images.csv", [("img", 640, 640)])
        (tmp_path / "labels" / "img.txt").write_text(label_line(0, 0.25, 0.25, 0.1, 0.1))
        tiles = tmp_path / "tiles"
        rc = cli.main(
            [
                "tile",
                "--manifest", str(tmp_path / "images.csv"),
                "--labels-dir", str(tmp_path / "labels"),
                "--out-dir", str(tiles),
                "--tile-size", "320",
            ]
        )
        assert rc == 0
        dets = tmp_path / "dets"
        dets.mkdir()
        for tile_id, _, _ in read_tile_manifest((tiles / "tiles.csv").read_text()):
            (dets / f"{tile_id}.det.txt").write_text("")
        return tiles, dets

    def test_tile_size_other_than_input_size_is_config_error(self, tmp_path, capsys):
        tiles, dets = self.tile_at_320(tmp_path)
        rc = cli.main(
            [
                "eval",
                "--detections-dir", str(dets),
                "--labels-dir", str(tiles),
                "--out-dir", str(tmp_path / "eval"),
                "--run-id", "r1",
            ]
        )
        assert rc == 3
        err = capsys.readouterr().err
        assert "tile size 320" in err and "input size 416" in err
        assert not (tmp_path / "eval").exists()

    def test_tile_size_equal_to_input_size_runs(self, tmp_path):
        tiles, dets = self.tile_at_320(tmp_path)
        rc = cli.main(
            [
                "eval",
                "--detections-dir", str(dets),
                "--labels-dir", str(tiles),
                "--out-dir", str(tmp_path / "eval"),
                "--run-id", "r1",
                "--input-size", "320",
            ]
        )
        assert rc == 0
        row = (tmp_path / "eval" / "metrics.csv").read_text().splitlines()[1].split(",")
        assert (row[1], row[6], row[7], row[8]) == ("320", "0", "0", "1")

    def test_bad_detection_line_names_file_and_line(self, tmp_path, capsys):
        labels, dets = self.setup_run(tmp_path)
        dets.joinpath("t1.det.txt").write_text(
            "# header\n\n" + det_line(0, 0.9, 83.2, 83.2, 41.6, 41.6) + "0 1.5 1 1 5 5\n"
        )
        rc = cli.main(
            [
                "eval",
                "--detections-dir", str(dets),
                "--labels-dir", str(labels),
                "--out-dir", str(tmp_path / "eval"),
                "--run-id", "r1",
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "t1.det.txt: line 4: score 1.5 outside [0, 1]" in err


def _eval_scene(tmp_path, dets, gts):
    """Detection and label directories holding a multi_tile_scene: each
    grid unit is 32 px of a 416 px tile."""
    det_dir, label_dir = tmp_path / "dets", tmp_path / "labels"
    det_dir.mkdir()
    label_dir.mkdir()
    for tile, rows in dets.items():
        (det_dir / f"{tile}.det.txt").write_text(
            "".join(det_line(c, s, x * 32, y * 32, w * 32, h * 32) for c, s, x, y, w, h in rows))
    for tile, rows in gts.items():
        (label_dir / f"{tile}.txt").write_text("".join(
            label_line(c, (x + w / 2) / 13, (y + h / 2) / 13, w / 13, h / 13)
            for c, x, y, w, h in rows))
    return det_dir, label_dir


def _eval_caps(stems_rows):
    """The batch caps eval is checked under: one row, one that cuts the
    stems mid-way, and the default."""
    return (1, max(1, sum(stems_rows) // 2), _kernels.BATCH_ROWS)


def _first_error_ref(det_dir, label_dir, stems):
    """The error of a stem-by-stem eval read: each stem's ``.det.txt``,
    then its label file, each read and parsed alone; None when all parse."""
    for stem in stems:
        for path, parse in ((det_dir / f"{stem}.det.txt", parse_detection_file),
                            (label_dir / f"{stem}.txt", lambda t: parse_label_file(t, 416, 416))):
            try:
                text = path.read_text(encoding="utf-8")
            except UnicodeDecodeError:
                return f"{path} is not UTF-8 text"
            except OSError as exc:
                return str(exc)
            try:
                parse(text)
            except VCEvalError as exc:
                return f"{path}: {exc}"
    return None


class TestEvalBatches:
    """eval parses and matches batches of consecutive tiles capped by
    _kernels.BATCH_ROWS; its outputs and errors are those of a tile-by-tile
    read, whatever the cap."""

    def run_eval(self, tmp_path, det_dir, label_dir, cap, name):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "BATCH_ROWS", cap)
            return cli.main(["eval", "--detections-dir", str(det_dir), "--labels-dir",
                             str(label_dir), "--out-dir", str(tmp_path / name), "--run-id", "r1",
                             "--class-names", "a,b"])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_outputs_match_the_per_tile_reference_under_any_cap(self, seed):
        dets, gts = multi_tile_scene(random.Random(seed))
        with tempfile.TemporaryDirectory() as work:
            work = Path(work)
            det_dir, label_dir = _eval_scene(work, dets, gts)
            stems = sorted(dets)
            report = evaluate(
                {s: parse_detection_file((det_dir / f"{s}.det.txt").read_text()) for s in stems},
                {s: parse_label_file((label_dir / f"{s}.txt").read_text(), 416, 416)
                 for s in stems},
                0.3)
            want = (write_metric_csv(report, "r1", 416), write_pr_curve_csv(report.curves))
            for k, cap in enumerate(_eval_caps(map(len, dets.values()))):
                with contextlib.redirect_stdout(io.StringIO()):
                    assert self.run_eval(work, det_dir, label_dir, cap, f"eval{k}") == 0
                out = work / f"eval{k}"
                assert ((out / "metrics.csv").read_text(), (out / "pr_curves.csv").read_text()) == want

    # bad contents of a file, detection or label
    _FAULTS = {
        "det": ["0 1.5 1 1 5 5\n", "0 0.5 1 1 5\n", "x 0.5 1 1 5 5\n", "0 0.5 1 1 -5 5\n"],
        "label": ["0 1.5 0.5 0.1 0.1\n", "0 0.5 0.5 0.1\n", "-1 0.5 0.5 0.1 0.1\n",
                  "0 0.5 0.5 0 0.1\n"],
    }

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_first_error_is_the_tile_by_tile_one(self, seed):
        rng = random.Random(seed)
        with tempfile.TemporaryDirectory() as work:
            work = Path(work)
            det_dir, label_dir = _eval_scene(work, *multi_tile_scene(rng))
            stems = sorted(p.name[: -len(".det.txt")] for p in det_dir.iterdir())
            for stem, kind in rng.sample([(s, k) for s in stems for k in ("det", "label")],
                                         rng.randint(1, min(4, 2 * len(stems)))):
                path = det_dir / f"{stem}.det.txt" if kind == "det" else label_dir / f"{stem}.txt"
                fault = rng.choice(("line", "line", "utf-8", "directory"))
                if fault == "line":
                    lines = path.read_text().splitlines(keepends=True)
                    lines.insert(rng.randint(0, len(lines)), rng.choice(self._FAULTS[kind]))
                    path.write_text("# header\n\n" * rng.randint(0, 1) + "".join(lines))
                elif fault == "utf-8":
                    path.write_bytes(path.read_bytes() + b"\xff\xfe\n")
                else:
                    path.unlink()
                    path.mkdir()
            want = _first_error_ref(det_dir, label_dir, stems)
            rows = [len((det_dir / f"{s}.det.txt").read_bytes().splitlines())
                    if (det_dir / f"{s}.det.txt").is_file() else 0 for s in stems]
            for cap in _eval_caps(rows):
                err = io.StringIO()
                with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                    rc = self.run_eval(work, det_dir, label_dir, cap, f"eval{cap}")
                assert (rc, err.getvalue()) == (2, f"error: {want}\n")
                assert not (work / f"eval{cap}").exists()

    @pytest.mark.parametrize("cap", [1, 2, 3, 1 << 11])
    def test_a_bad_line_before_an_unreadable_file_comes_first(self, tmp_path, capsys, cap):
        det_dir, label_dir = _eval_scene(
            tmp_path, {f"t{k}": [(0, 0.5, 1, 1, 2, 2)] for k in range(4)},
            {f"t{k}": [(0, 1, 1, 2, 2)] for k in range(4)})
        (label_dir / "t1.txt").write_text(label_line(0, 0.5, 0.5, 0.1, 0.1) + "0 0.5 0.5 0.1\n")
        (det_dir / "t2.det.txt").write_text("0 1.5 1 1 5 5\n")
        (det_dir / "t3.det.txt").write_bytes(b"\xff\n")
        assert self.run_eval(tmp_path, det_dir, label_dir, cap, "eval") == 2
        assert capsys.readouterr().err == f"error: {label_dir / 't1.txt'}: line 2: expected 5 fields, got 4\n"
        (label_dir / "t1.txt").write_text(label_line(0, 0.5, 0.5, 0.1, 0.1))
        assert self.run_eval(tmp_path, det_dir, label_dir, cap, "eval") == 2
        assert capsys.readouterr().err == f"error: {det_dir / 't2.det.txt'}: line 1: score 1.5 outside [0, 1]\n"
        (det_dir / "t2.det.txt").write_text("")
        assert self.run_eval(tmp_path, det_dir, label_dir, cap, "eval") == 2
        assert capsys.readouterr().err == f"error: {det_dir / 't3.det.txt'} is not UTF-8 text\n"

    def test_dense_tiles_are_parsed_and_paired_two_at_a_time(self, tmp_path, monkeypatch):
        # 900 detections per tile, each meeting all 12 labels of its tile
        rng = random.Random(3)
        tiles, per_tile, labels = 5, 900, 12
        dets = {f"t{t}": [(0, rng.random(), rng.random(), rng.random(), 9, 9)
                          for _ in range(per_tile)] for t in range(tiles)}
        det_dir, label_dir = _eval_scene(tmp_path, dets, {t: [(0, 2, 2, 6, 6)] * labels for t in dets})
        texts, pairs = [], []
        parse, iou_pairs = cli.parse_detection_texts, _kernels.iou_pairs
        monkeypatch.setattr(cli, "parse_detection_texts", lambda t: texts.append(len(t)) or parse(t))
        monkeypatch.setattr(_kernels, "iou_pairs", lambda a, b: pairs.append(len(a)) or iou_pairs(a, b))
        with contextlib.redirect_stdout(io.StringIO()):
            assert self.run_eval(tmp_path, det_dir, label_dir, _kernels.BATCH_ROWS, "eval") == 0
        assert texts == [2, 2, 1]
        assert sum(pairs) == tiles * per_tile * labels
        assert max(pairs) == 2 * per_tile * labels


class TestParserBuild:
    """main builds only the subparser of the command its argv names, and that
    parser prints what the whole parser prints."""

    @staticmethod
    def outcome(parse, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                parse(argv)
                code = None
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    @pytest.mark.parametrize("tail", [["--help"], [], ["--bogus"], ["--out-dir"], ["extra"],
                                      ["--version"], ["-h", "--config"]])
    def test_one_subparser_prints_what_the_whole_parser_prints(self, monkeypatch, command, tail):
        monkeypatch.setenv("COLUMNS", "80")
        argv = [command, *tail]
        whole = self.outcome(cli.build_parser().parse_args, argv)
        assert self.outcome(cli.build_parser(command).parse_args, argv) == whole
        assert whole[0] in (0, 2)
        assert self.outcome(lambda a: sys.exit(cli.main(a)), argv) == ({0: 0, 2: 3}[whole[0]],
                                                                         *whole[1:])

    def test_a_command_line_without_a_command_names_the_argument(self, capsys):
        assert cli.main([]) == 3
        assert capsys.readouterr().err.endswith(
            "vceval: error: the following arguments are required: command\n")

    def test_main_builds_the_named_subparser_only(self, monkeypatch):
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda command=None: built.append(command) or
                            build(command))
        for argv in (["eval", "--help"], ["--help"], ["evaluate"], []):
            self.outcome(cli.main, argv)
        assert built == ["eval", None, None, None]
        subparsers = build("eval")._subparsers._group_actions[0]
        assert list(subparsers.choices) == ["eval"]


def _append_rows(path, worker, barrier):
    barrier.wait()
    for k in range(10):
        cli._append_observations(path, [(f"w{worker}k{k}", "map30", "416", k / 10)])


class TestWrites:
    def test_concurrent_appends_keep_every_row(self, tmp_path):
        path = tmp_path / "observations.csv"
        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(4)
        workers = [
            ctx.Process(target=_append_rows, args=(str(path), w, barrier)) for w in range(4)
        ]
        for p in workers:
            p.start()
        for p in workers:
            p.join(timeout=60)
        assert [p.exitcode for p in workers] == [0] * 4
        lines = path.read_text().splitlines()
        assert lines[0] == cli.OBSERVATION_HEADER
        assert lines.count(cli.OBSERVATION_HEADER) == 1
        assert sorted(lines[1:]) == sorted(
            f"w{w}k{k},map30,416,{k / 10:.6f}" for w in range(4) for k in range(10)
        )
        assert os.listdir(tmp_path) == ["observations.csv"]

    def test_append_after_a_last_row_without_newline(self, tmp_path):
        path = tmp_path / "observations.csv"
        path.write_text(cli.OBSERVATION_HEADER + "\nr0,map30,416,0.500000")
        cli._append_observations(str(path), [("r1", "map30", "416", 0.25)])
        assert parse_observations(path.read_text()) == {"map30": {"416": [0.5, 0.25]}}

    def test_failed_write_leaves_target_and_no_temp_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("before\n")
        with pytest.raises(UnicodeEncodeError):
            cli._write_text(str(path), "lone surrogate \udcff\n")
        assert path.read_text() == "before\n"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_written_file_mode_follows_umask(self, tmp_path):
        path = tmp_path / "out.txt"
        cli._write_text(str(path), "x\n")
        umask = os.umask(0)
        os.umask(umask)
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o666 & ~umask


def write_observations(path, per_group, metric="map30"):
    lines = ["run_id,metric,group,value"]
    for group, values in per_group.items():
        for i, v in enumerate(values):
            lines.append(f"{group}-run{i},{metric},{group},{v}")
    path.write_text("\n".join(lines) + "\n")


class TestCompare:
    GROUPS = {
        "320": [0.71, 0.74, 0.69, 0.72, 0.70],
        "416": [0.80, 0.82, 0.78, 0.81, 0.79],
        "512": [0.90, 0.88, 0.91, 0.89, 0.92],
    }

    def test_comparison_artifacts(self, tmp_path):
        obs = tmp_path / "obs.csv"
        write_observations(obs, self.GROUPS)
        out = tmp_path / "cmp"
        rc = cli.main(
            ["compare", "--observations", str(obs), "--metric", "map30",
             "--out-dir", str(out)]
        )
        assert rc == 0
        payload = json.loads((out / "comparison_map30.json").read_text())
        assert payload["metric"] == "map30"
        assert payload["branch"] in ("parametric", "nonparametric")
        assert len(payload["posthoc"]) == 3
        assert payload["config"]["alpha"] == 0.05
        csv_lines = (out / "comparison_map30.csv").read_text().splitlines()
        assert len(csv_lines) == 4

    def test_missing_metric_is_data_error(self, tmp_path):
        obs = tmp_path / "obs.csv"
        write_observations(obs, self.GROUPS)
        rc = cli.main(
            ["compare", "--observations", str(obs), "--metric", "ap95",
             "--out-dir", str(tmp_path / "cmp")]
        )
        assert rc == 2

    def test_repeated_run_is_data_error_naming_file_and_line(self, tmp_path, capsys):
        obs = tmp_path / "obs.csv"
        write_observations(obs, self.GROUPS)
        with obs.open("a") as fh:
            fh.write("320-run0,map30,320,0.71\n")
        out = tmp_path / "cmp"
        rc = cli.main(["compare", "--observations", str(obs), "--metric", "map30",
                       "--out-dir", str(out)])
        assert rc == 2
        assert (f"error: {obs}: line 17: run id '320-run0' already has a map30 row"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_alpha_override_lands_in_report(self, tmp_path):
        obs = tmp_path / "obs.csv"
        write_observations(obs, self.GROUPS)
        out = tmp_path / "cmp"
        cli.main(
            ["compare", "--observations", str(obs), "--metric", "map30",
             "--out-dir", str(out), "--alpha", "0.01"]
        )
        payload = json.loads((out / "comparison_map30.json").read_text())
        assert payload["alpha"] == 0.01

    def test_critical_value_past_the_bracket_is_data_error(self, tmp_path, capsys):
        # at df = 2 the upper tail at q = 8192 is still above alpha = 1e-9
        obs = tmp_path / "obs.csv"
        obs.write_text("metric,group,value\nm,a,0.10\nm,a,0.20\nm,b,0.30\nm,b,0.45\n")
        out = tmp_path / "cmp"
        rc = cli.main(["compare", "--observations", str(obs), "--metric", "m",
                       "--out-dir", str(out), "--alpha", "1e-9"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {obs}: metric m: no studentized range critical value "
                              "at alpha=1e-09, k=2, df=2: ")
        assert "Traceback" not in err
        assert not out.exists()

    def test_non_finite_observation_is_data_error(self, tmp_path):
        obs = tmp_path / "obs.csv"
        write_observations(obs, {**self.GROUPS, "608": [0.5, float("nan")]})
        rc = cli.main(
            ["compare", "--observations", str(obs), "--metric", "map30",
             "--out-dir", str(tmp_path / "cmp")]
        )
        assert rc == 2


class TestReport:
    def test_stdout_summary(self, tmp_path, capsys):
        obs = tmp_path / "obs.csv"
        write_observations(obs, {"320": [0.5, 0.7], "416": [0.8, 0.9]})
        rc = cli.main(["report", "--observations", str(obs)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "metric map30:" in out
        assert "group 320: n=2 mean=0.600000" in out

    def test_with_comparison_roll_up(self, tmp_path, capsys):
        obs = tmp_path / "obs.csv"
        write_observations(obs, TestCompare.GROUPS)
        cmp_dir = tmp_path / "cmp"
        cli.main(["compare", "--observations", str(obs), "--metric", "map30",
                  "--out-dir", str(cmp_dir)])
        capsys.readouterr()
        report_path = tmp_path / "report.txt"
        rc = cli.main(
            ["report", "--observations", str(obs),
             "--comparisons", str(cmp_dir / "comparison_map30.json"),
             "--out", str(report_path)]
        )
        assert rc == 0
        text = report_path.read_text()
        assert "comparison map30" in text
        assert "512 vs 320" in text


    def test_non_numeric_value_is_data_error(self, tmp_path, capsys):
        obs = tmp_path / "obs.csv"
        obs.write_text("run_id,metric,group,value\nr1,map30,320,0.5\nr2,map30,320,abc\n")
        rc = cli.main(["report", "--observations", str(obs)])
        assert rc == 2
        assert "line 3" in capsys.readouterr().err

    def test_observations_not_utf8_is_data_error(self, tmp_path):
        obs = tmp_path / "obs.csv"
        obs.write_bytes(b"run_id,metric,group,value\nr1,map30,\xff\xfe,0.5\n")
        assert cli.main(["report", "--observations", str(obs)]) == 2

    @pytest.mark.parametrize(
        "content",
        [
            "{not json",
            "[]",
            json.dumps({"branch": "parametric", "omnibus": {"method": "x", "p_value": 0.1}}),
            json.dumps({"branch": "parametric", "posthoc": []}),
            json.dumps({"omnibus": {"method": "x", "p_value": 0.1}, "posthoc": []}),
            json.dumps({"branch": "b", "omnibus": {"method": "x", "p_value": "low"}, "posthoc": []}),
            json.dumps({"branch": "b", "omnibus": {"method": "x", "p_value": 0.1},
                        "posthoc": [{"level_a": "320"}]}),
        ],
        ids=["bad-json", "not-object", "no-posthoc", "no-omnibus", "no-branch",
             "non-numeric-p", "short-row"],
    )
    def test_malformed_comparison_is_data_error(self, tmp_path, capsys, content):
        obs = tmp_path / "obs.csv"
        write_observations(obs, {"320": [0.5, 0.7], "416": [0.8, 0.9]})
        bad = tmp_path / "comparison_map30.json"
        bad.write_text(content)
        rc = cli.main(["report", "--observations", str(obs), "--comparisons", str(bad)])
        assert rc == 2
        assert str(bad) in capsys.readouterr().err


# --- exit codes of the file-reading commands on mutated inputs ---------------

# fields that break some rule: empty, zero, negative, subnormal, out of a
# unit range, huge but finite, non-finite, non-numeric, a stray quote, more
# digits than any float holds, and a field over the csv module's 131072
# character limit
_BAD_FIELDS = ["", "0", "-1", "1e-320", "1.5", "1e306", "1e309", "nan", "-inf",
               "x", '"', "9" * 401, "x" * 140_000]


@st.composite
def _mutated(draw, rows, sep):
    """The text of ``rows`` (lists of fields joined by ``sep``), often after
    a few edits: a field replaced, dropped or added, a blank or a repeated
    line inserted; sometimes cut short."""
    rows = [list(r) for r in rows]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3]))):
        at = draw(st.integers(0, len(rows) - 1))
        edit = draw(st.sampled_from(["field", "field", "drop", "add", "blank", "repeat"]))
        if edit == "field" and rows[at]:
            rows[at][draw(st.integers(0, len(rows[at]) - 1))] = draw(st.sampled_from(_BAD_FIELDS))
        elif edit == "drop" and rows[at]:
            rows[at].pop()
        elif edit == "add":
            rows[at].append(draw(st.sampled_from(_BAD_FIELDS)))
        elif edit in ("blank", "repeat"):
            rows.insert(at, [] if edit == "blank" else list(rows[at]))
    text = "".join(sep.join(r) + "\n" for r in rows)
    if draw(st.integers(0, 7)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    return text


def _csv(*rows):
    return [r.split(",") for r in rows]


def _lines(*rows):
    return [r.split() for r in rows]


_IMAGES = _csv("image_id,width,height", "a,640,480", "b,416,832")
_TILES = _csv("tile_id,row,col,origin_x,origin_y,tile_size",
              "t1,0,0,0,0,416", "t2,0,1,416,0,416", "t3,1,0,0,416,416")
_LABELS = _lines("0 0.25 0.25 0.1 0.2", "1 0.9 0.9 0.4 0.4")
_DETECTIONS = _lines("0 0.9 83.2 83.2 41.6 41.6", "1 0.4 300 300 120 120",
                     "0 0.2 10 10 5 5")
_OBSERVATIONS = _csv("run_id,metric,group,value",
                     *(f"r{g}-{i},map30,{g},{0.1 * k + 0.01 * i ** 2}"
                       for k, g in enumerate(("320", "416", "512")) for i in range(5)),
                     "r0,f1max,320,0.5")
_COMPARISON = {"metric": "map30", "branch": "parametric",
               "omnibus": {"method": "one-way-anova", "p_value": 0.01},
               "posthoc": [{"level_a": "416", "level_b": "320", "difference": 0.1,
                            "p_value": 0.02, "significant_at_alpha": True}]}
_COMPARISON_PATHS = [(), ("metric",), ("branch",), ("omnibus",), ("omnibus", "method"),
                     ("omnibus", "p_value"), ("posthoc",), ("posthoc", 0),
                     ("posthoc", 0, "level_a"), ("posthoc", 0, "difference"),
                     ("posthoc", 0, "p_value"), ("posthoc", 0, "significant_at_alpha")]
_BAD_JSON = [None, "x", [], {}, True, -1, 1e308, float("nan"), float("inf"), 10**401]


@st.composite
def _comparison_json(draw):
    """A comparison file as compare writes it, often with a value replaced
    or a key dropped, sometimes cut short."""
    root = [json.loads(json.dumps(_COMPARISON))]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        *parent, last = (0, *draw(st.sampled_from(_COMPARISON_PATHS)))
        node = root
        try:
            for key in parent:
                node = node[key]
            if draw(st.booleans()) and isinstance(node, dict):
                del node[last]
            else:
                # a copy, so no edit writes into _BAD_JSON's shared [] and {}
                node[last] = copy.deepcopy(draw(st.sampled_from(_BAD_JSON)))
        except (KeyError, IndexError, TypeError):
            pass  # an earlier edit removed the path
    text = json.dumps(root[0])
    if draw(st.integers(0, 7)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    return text


def _write_files(work, files):
    for name, text in files.items():
        path = os.path.join(work, name)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _assert_clean_exit(work, argv):
    """Run the command: exit 0, 2 or 3, never a traceback, and an exit 2
    names a file under ``work``."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main([a.replace("{work}", work) for a in argv])
    assert rc in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    if rc == 2:
        first = err.getvalue().splitlines()[0]
        assert first.startswith("error: ") and work in first, first


# ids that are not a plain file name; the first ones would put files
# outside the output directory ({tmp} is the test's temporary directory)
_ESCAPING_IDS = ["../escape", "../../escape", "{tmp}/escape", "sub/../escape", "a/b", "..", ".",
                 "a\0b"]


class TestFileExitCodes:
    @settings(max_examples=120, deadline=None)
    @given(manifest=_mutated(_IMAGES, ","), label_a=_mutated(_LABELS, " "),
           label_b=_mutated(_LABELS[:1], " "), size=st.sampled_from(["320", "416"]),
           policy=st.sampled_from(["pad-edge", "drop-partial"]))
    def test_tile(self, manifest, label_a, label_b, size, policy):
        with tempfile.TemporaryDirectory() as work:
            _write_files(work, {"images.csv": manifest, "labels/a.txt": label_a,
                                "labels/b.txt": label_b})
            _assert_clean_exit(work, ["tile", "--manifest", "{work}/images.csv",
                                      "--labels-dir", "{work}/labels", "--out-dir",
                                      "{work}/tiles", "--tile-size", size, "--policy", policy])

    @settings(max_examples=120, deadline=None)
    @given(manifest=st.one_of(_mutated(_IMAGES, ","), _mutated(_TILES, ",")))
    def test_split(self, manifest):
        with tempfile.TemporaryDirectory() as work:
            _write_files(work, {"m.csv": manifest})
            _assert_clean_exit(work, ["split", "--manifest", "{work}/m.csv",
                                      "--out-dir", "{work}/splits"])

    @settings(max_examples=120, deadline=None)
    @given(dets_1=_mutated(_DETECTIONS, " "), dets_2=_mutated(_DETECTIONS[1:], " "),
           labels_1=_mutated(_LABELS, " "), labels_2=_mutated(_LABELS[1:], " "),
           tiles=_mutated(_TILES[:3], ","), observations=_mutated(_OBSERVATIONS[:3], ","))
    def test_eval(self, dets_1, dets_2, labels_1, labels_2, tiles, observations):
        with tempfile.TemporaryDirectory() as work:
            _write_files(work, {"dets/t1.det.txt": dets_1, "dets/t2.det.txt": dets_2,
                                "labels/t1.txt": labels_1, "labels/t2.txt": labels_2,
                                "labels/tiles.csv": tiles, "obs.csv": observations})
            _assert_clean_exit(work, ["eval", "--detections-dir", "{work}/dets",
                                      "--labels-dir", "{work}/labels", "--out-dir",
                                      "{work}/eval", "--run-id", "r9",
                                      "--observations", "{work}/obs.csv"])

    @settings(max_examples=120, deadline=None)
    @given(observations=_mutated(_OBSERVATIONS, ","),
           scope=st.sampled_from(["pooled", "per-group"]))
    def test_compare(self, observations, scope):
        with tempfile.TemporaryDirectory() as work:
            _write_files(work, {"obs.csv": observations})
            _assert_clean_exit(work, ["compare", "--observations", "{work}/obs.csv",
                                      "--metric", "map30", "--out-dir", "{work}/cmp",
                                      "--normality-scope", scope])

    @settings(max_examples=120, deadline=None)
    @given(observations=_mutated(_OBSERVATIONS, ","), comparison=_comparison_json())
    def test_report(self, observations, comparison):
        with tempfile.TemporaryDirectory() as work:
            _write_files(work, {"obs.csv": observations, "cmp.json": comparison})
            _assert_clean_exit(work, ["report", "--observations", "{work}/obs.csv",
                                      "--comparisons", "{work}/cmp.json",
                                      "--out", "{work}/report.txt"])

    @pytest.mark.parametrize("image_id", _ESCAPING_IDS)
    def test_tile_refuses_the_id_and_writes_nothing_outside(self, tmp_path, capsys, image_id):
        # the label file an id of ../escape would read sits beside the manifest
        image_id = image_id.replace("{tmp}", str(tmp_path))
        work = tmp_path / "work"
        (work / "labels").mkdir(parents=True)
        (work / "images.csv").write_text(f"image_id,width,height\n{image_id},832,416\n")
        (work / "escape.txt").write_text("0 0.5 0.5 0.2 0.2\n")
        before = sorted(p for p in tmp_path.rglob("*") if work not in p.parents)
        rc = cli.main(["tile", "--manifest", str(work / "images.csv"), "--labels-dir",
                       str(work / "labels"), "--out-dir", str(work / "out"), "--tile-size", "416"])
        err = capsys.readouterr().err
        assert rc == 2 and "Traceback" not in err
        assert err.startswith(f"error: {work / 'images.csv'}: ")
        assert sorted(p for p in tmp_path.rglob("*") if work not in p.parents) == before
        assert not (work / "out").exists() and sorted(os.listdir(work)) == [
            "escape.txt", "images.csv", "labels"]


class TestErrorsNameFileAndLine:
    """A bad row after blank lines, a bad label, bad observations and an
    oversized detection: exit 2 naming the file and the line of the text."""

    def run(self, capsys, argv):
        rc = cli.main(argv)
        return rc, capsys.readouterr().err

    def test_image_manifest(self, tmp_path, capsys):
        (tmp_path / "m.csv").write_text("image_id,width,height\n\n\nframe_a,abc,100\n")
        rc, err = self.run(capsys, ["tile", "--manifest", str(tmp_path / "m.csv"),
                                    "--labels-dir", str(tmp_path), "--out-dir", str(tmp_path / "o")])
        assert rc == 2 and f"{tmp_path / 'm.csv'}: line 4: " in err

    @pytest.mark.parametrize("image_id", ["../escape", "a/b", ".."])
    def test_image_id_that_is_not_a_file_name(self, tmp_path, capsys, image_id):
        (tmp_path / "m.csv").write_text(
            f"image_id,width,height\nok,832,416\n\n{image_id},832,416\n")
        rc, err = self.run(capsys, ["tile", "--manifest", str(tmp_path / "m.csv"),
                                    "--labels-dir", str(tmp_path), "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        assert err == (f"error: {tmp_path / 'm.csv'}: line 4: image id {image_id!r} "
                       "is not a plain file name\n")

    def test_tile_manifest(self, tmp_path, capsys):
        (tmp_path / "tiles.csv").write_text(
            "tile_id,row,col,origin_x,origin_y,tile_size\n\nt,0,0,0,0,abc\n")
        rc, err = self.run(capsys, ["split", "--manifest", str(tmp_path / "tiles.csv"),
                                    "--out-dir", str(tmp_path / "o")])
        assert rc == 2 and f"{tmp_path / 'tiles.csv'}: line 3: " in err

    def test_label_file_in_tile(self, tmp_path, capsys):
        make_manifest(tmp_path / "m.csv", [("a", 640, 640)])
        (tmp_path / "a.txt").write_text("0 0.5 0.5 0.1 0.1\n\n0 0.5 0.5 2.0 0.1\n")
        rc, err = self.run(capsys, ["tile", "--manifest", str(tmp_path / "m.csv"),
                                    "--labels-dir", str(tmp_path), "--out-dir", str(tmp_path / "o")])
        assert rc == 2 and f"{tmp_path / 'a.txt'}: line 3: w=2 outside (0, 1]" in err

    @pytest.mark.parametrize("command", ["compare", "report"])
    def test_observations(self, tmp_path, capsys, command):
        obs = tmp_path / "obs.csv"
        obs.write_text("run_id,metric,group,value\n\n\nr1,map30,320,abc\n")
        argv = [command, "--observations", str(obs)]
        if command == "compare":
            argv += ["--metric", "map30", "--out-dir", str(tmp_path / "o")]
        rc, err = self.run(capsys, argv)
        assert rc == 2 and f"{obs}: line 4: bad value 'abc'" in err

    @pytest.mark.parametrize("values, reason", [
        ((0.5, 0.5, 0.5, 0.5, 0.5, 0.5), "all observations are equal"),
        ((0.5, 0.6, 0.7, 1e150, -1e150, 0.1), None),
        ((0.5, 0.6, 0.7, 1e306, -1e306, 0.1), "line 5: value '1e+306' not within ±1e+150"),
    ])
    def test_compare_names_the_observation_file(self, tmp_path, capsys, values, reason):
        obs = tmp_path / "obs.csv"
        write_observations(obs, {"a": values[:3], "b": values[3:]})
        rc, err = self.run(capsys, ["compare", "--observations", str(obs), "--metric", "map30",
                                    "--out-dir", str(tmp_path / "o")])
        if reason is None:
            assert rc == 0
        else:
            assert rc == 2 and f"{obs}: {reason}" in err

    def test_oversized_detection_in_eval(self, tmp_path, capsys):
        labels, dets = TestEval().setup_run(tmp_path)
        dets.joinpath("t1.det.txt").write_text(
            det_line(0, 0.9, 83.2, 83.2, 41.6, 41.6) + "\n0 0.9 1 1 1e306 1e306\n")
        rc, err = self.run(capsys, ["eval", "--detections-dir", str(dets), "--labels-dir",
                                    str(labels), "--out-dir", str(tmp_path / "o"),
                                    "--run-id", "r1"])
        assert rc == 2
        assert f"{dets / 't1.det.txt'}: line 3: box area must be finite" in err

    def test_detection_corner_past_the_float_range_in_eval(self, tmp_path, capsys):
        labels, dets = TestEval().setup_run(tmp_path)
        dets.joinpath("t1.det.txt").write_text(
            det_line(0, 0.9, 83.2, 83.2, 41.6, 41.6) + "\n0 0.9 1e308 0 1e308 1\n")
        rc, err = self.run(capsys, ["eval", "--detections-dir", str(dets), "--labels-dir",
                                    str(labels), "--out-dir", str(tmp_path / "o"),
                                    "--run-id", "r1"])
        assert rc == 2
        assert f"{dets / 't1.det.txt'}: line 3: x_min + width must be finite" in err

    def test_comparison_number_past_the_float_range(self, tmp_path, capsys):
        obs = tmp_path / "obs.csv"
        write_observations(obs, {"320": [0.5, 0.7], "416": [0.8, 0.9]})
        bad = tmp_path / "comparison_map30.json"
        bad.write_text(json.dumps({"branch": "b", "omnibus": {"method": "x", "p_value": 10**401},
                                   "posthoc": []}))
        rc, err = self.run(capsys, ["report", "--observations", str(obs), "--comparisons", str(bad)])
        assert rc == 2 and f"{bad}: not a comparison file" in err


class TestConfigPlumbing:
    def test_env_config_applies(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 99, "alpha": 0.1}))
        monkeypatch.setenv("VC_EVAL_CONFIG", str(cfg))
        make_manifest(tmp_path / "images.csv", [(f"i{k}", 640, 640) for k in range(5)])
        out = tmp_path / "split"
        rc = cli.main(
            ["split", "--manifest", str(tmp_path / "images.csv"), "--out-dir", str(out)]
        )
        assert rc == 0
        used = json.loads((out / "config_used.json").read_text())
        assert used["seed"] == 99
        assert used["alpha"] == 0.1

    def test_flag_beats_env_config(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 0.1}))
        monkeypatch.setenv("VC_EVAL_CONFIG", str(cfg))
        write_observations(tmp_path / "obs.csv", TestCompare.GROUPS)
        out = tmp_path / "cmp"
        cli.main(
            ["compare", "--observations", str(tmp_path / "obs.csv"), "--metric", "map30",
             "--out-dir", str(out), "--alpha", "0.2"]
        )
        payload = json.loads((out / "comparison_map30.json").read_text())
        assert payload["config"]["alpha"] == 0.2
        assert payload["alpha"] == 0.2

    def test_empty_config_flag_is_exit_3_not_the_env_config(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 5}))
        monkeypatch.setenv("VC_EVAL_CONFIG", str(cfg))
        make_manifest(tmp_path / "images.csv", [(f"i{k}", 640, 640) for k in range(5)])
        out = tmp_path / "split"
        rc = cli.main(["split", "--manifest", str(tmp_path / "images.csv"),
                       "--out-dir", str(out), "--config", ""])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.err == "error: config path is empty\n"
        assert captured.out == ""
        assert not out.exists()

    def test_unknown_config_key_is_exit_3(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"speed": "fast"}))
        make_manifest(tmp_path / "images.csv", [("i0", 640, 640)])
        rc = cli.main(
            ["split", "--manifest", str(tmp_path / "images.csv"),
             "--out-dir", str(tmp_path / "out"), "--config", str(cfg)]
        )
        assert rc == 3

    @pytest.mark.parametrize("command, flag", [("tile", "--tile-size"), ("decode", "--input-size"),
                                               ("eval", "--input-size")])
    def test_size_above_the_limit_is_exit_3(self, tmp_path, capsys, command, flag):
        # a 401-digit multiple of 32 once overflowed float conversions in a traceback
        size = 32 * 10**400
        make_manifest(tmp_path / "images.csv", [("i0", 640, 640)])
        for d in ("labels", "dets"):
            (tmp_path / d).mkdir()
        inputs = {"tile": ["--manifest", str(tmp_path / "images.csv"),
                           "--labels-dir", str(tmp_path / "labels")],
                  "decode": ["--tensors-dir", str(tmp_path / "dets")],
                  "eval": ["--detections-dir", str(tmp_path / "dets"),
                           "--labels-dir", str(tmp_path / "labels"), "--run-id", "r1"]}[command]
        rc = cli.main([command, *inputs, "--out-dir", str(tmp_path / "out"), flag, str(size)])
        err = capsys.readouterr().err
        assert rc == 3 and f"{size} is above the limit of 65536" in err
        assert "Traceback" not in err and not (tmp_path / "out").exists()

    def test_override_flags_are_the_fields_each_command_reads(self, tmp_path, monkeypatch):
        # each command runs on valid inputs with a config that records the
        # fields its handler reads; echoing the config reads nothing
        class Recording:
            def __init__(self, config):
                self._config = config

            def __getattr__(self, name):
                read[command].add(name)
                return getattr(self._config, name)

            def to_dict(self):
                return self._config.to_dict()

        load_config = cli.load_config
        monkeypatch.setattr(cli, "load_config", lambda *a: Recording(load_config(*a)))
        read = {}
        with contextlib.redirect_stdout(io.StringIO()):
            for command, argv in _tiny_study(tmp_path).items():
                read[command] = set()
                assert cli.main(argv) == 0, command
        fields = {f.name for f in dataclasses.fields(HarnessConfig)}
        dests = {command: {a.dest for a in sub._actions} & fields
                 for command, sub in _subparsers().items()}
        # anchors are set only by a config file
        assert dests == {command: fields - {"anchors"} for command, fields in read.items()}
        assert sum(map(len, dests.values())) == 14

    def test_seed_flag_overrides_config(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 99}))
        monkeypatch.setenv("VC_EVAL_CONFIG", str(cfg))
        make_manifest(tmp_path / "images.csv", [(f"i{k}", 640, 640) for k in range(5)])
        out = tmp_path / "split"
        assert cli.main(["split", "--manifest", str(tmp_path / "images.csv"),
                         "--out-dir", str(out), "--seed", "7"]) == 0
        assert json.loads((out / "config_used.json").read_text())["seed"] == 7
        assert "(seed 7)" in capsys.readouterr().out

    def test_class_names_split_on_commas(self, tmp_path):
        argv = _tiny_study(tmp_path)["eval"]
        out = tmp_path / "out" / "eval"
        assert cli.main([*argv, "--class-names", " weed, ,crop ,"]) == 0
        assert json.loads((out / "config_used.json").read_text())["class_names"] == ["weed", "crop"]
        assert "ap30_weed" in (out / "observations.csv").read_text()
        assert cli.main([*argv, "--class-names", ","]) == 3

    def test_class_names_override(self, tmp_path):
        labels = tmp_path / "labels"
        dets = tmp_path / "dets"
        labels.mkdir()
        dets.mkdir()
        labels.joinpath("t1.txt").write_text(label_line(0, 0.25, 0.25, 0.1, 0.1))
        dets.joinpath("t1.det.txt").write_text(det_line(0, 0.9, 83.2, 83.2, 41.6, 41.6))
        out = tmp_path / "eval"
        cli.main(
            [
                "eval",
                "--detections-dir", str(dets),
                "--labels-dir", str(labels),
                "--out-dir", str(out),
                "--run-id", "r1",
                "--class-names", "weed,crop",
            ]
        )
        obs = (out / "observations.csv").read_text()
        assert "ap30_weed" in obs


def _subparsers():
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return commands.choices


def _tiny_study(root):
    """The argv of each command over small valid inputs it writes under
    ``root``; the commands write under ``root``/out."""
    root = str(root)
    make_manifest(Path(root, "images.csv"), [(f"i{k}", 832, 416) for k in range(5)])
    Path(root, "labels").mkdir()
    Path(root, "labels", "i0.txt").write_text("0 0.3 0.5 0.05 0.1\n")
    write_scale_tensors(Path(root, "tensors"), "t1", hot=(0, 1, 2, 4, 0))
    Path(root, "dets").mkdir()
    Path(root, "dets", "t1.det.txt").write_text(det_line(0, 0.9, 83.2, 83.2, 41.6, 41.6))
    Path(root, "scored").mkdir()
    Path(root, "scored", "t1.txt").write_text(label_line(0, 0.25, 0.25, 0.1, 0.1))
    write_observations(Path(root, "obs.csv"), TestCompare.GROUPS)
    return _tiny_argv(root, os.path.join(root, "out"))


def _tiny_argv(root, out):
    return {
        "tile": ["tile", "--manifest", f"{root}/images.csv", "--labels-dir", f"{root}/labels",
                 "--out-dir", f"{out}/tiles"],
        "split": ["split", "--manifest", f"{root}/images.csv", "--out-dir", f"{out}/split"],
        "decode": ["decode", "--tensors-dir", f"{root}/tensors", "--out-dir", f"{out}/dets"],
        "eval": ["eval", "--detections-dir", f"{root}/dets", "--labels-dir", f"{root}/scored",
                 "--out-dir", f"{out}/eval", "--run-id", "r1"],
        "compare": ["compare", "--observations", f"{root}/obs.csv", "--metric", "map30",
                    "--out-dir", f"{out}/cmp"],
        "report": ["report", "--observations", f"{root}/obs.csv", "--out", f"{out}/report.txt"],
    }


class TestUsageErrors:
    @pytest.mark.parametrize("command, change", [
        ("decode", ["--alpha", "0.1"]),
        ("eval", ["--run-id", None]),
        ("eval", ["--input-size", "abc"]),
        ("tile", ["--input-size", "416"]),
        ("split", ["--class-names", "a,b"]),
        ("report", ["--alpha", "0.1"]),
        ("compare", ["--normality-scope", "blended"]),
    ])
    def test_usage_error_is_exit_3(self, tmp_path, capsys, command, change):
        argv = _tiny_study(tmp_path)[command]
        flag, value = change
        if flag in argv:
            del argv[argv.index(flag):argv.index(flag) + 2]
        if value is not None:
            argv += [flag, value]
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("usage: vceval") and "error: " in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("metric", ["ap30_a/b", "/", "map\0"])
    def test_metric_that_cannot_name_a_file_is_usage_error(self, tmp_path, capsys, metric):
        argv = _tiny_study(tmp_path)["compare"]
        argv[argv.index("--metric") + 1] = metric
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("usage: vceval")
        assert err.endswith("error: argument --metric: must not hold / or NUL\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [["tile", "--help"], ["--help"], ["--version"]])
    def test_help_and_version_exit_0(self, capsys, argv):
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.startswith(("usage: vceval", "vceval "))


def _json_config(work, data):
    path = os.path.join(work, "cfg.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return path


# JSON values that no key accepts
_BAD_CONFIG_VALUES = [416.0, True, [1], "x", float("nan"), float("inf"), float("-inf"), None, {}]
# the element of each list-valued key that a test may replace, and the
# replacements that leave the config valid
_ELEMENT_KEYS = {"class_names": (0,), "anchors": (4, 1)}
_VALID_ELEMENTS = [("class_names", "x"), ("anchors", 416.0)]


def _with_element(data, key, value):
    """``data`` with ``value`` in place of the element of ``key`` at its path."""
    data = json.loads(json.dumps(data))
    *parents, last = _ELEMENT_KEYS[key]
    node = data[key]
    for i in parents:
        node = node[i]
    node[last] = value
    return data


class TestConfigValues:
    """Every config value is checked once, in HarnessConfig, whichever
    command reads it: a bad one exits 3 naming its key."""

    @pytest.mark.parametrize("command", ["tile", "split", "decode", "eval", "compare", "report"])
    @pytest.mark.parametrize("key, value", [
        ("input_size", 416.0),
        ("seed", [1]),
        ("anchors", float("nan")),
        ("anchors", float("inf")),
        ("score_threshold", True),
    ])
    def test_value_of_the_wrong_type_or_range_is_exit_3(self, tmp_path, capsys, command, key,
                                                         value):
        argv = _tiny_study(tmp_path)[command]
        data = {key: value}
        if key == "anchors":
            data = _with_element(HarnessConfig().to_dict(), key, value)
        assert cli.main([*argv, "--config", _json_config(str(tmp_path), data)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be ") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["decode", "eval"])
    @pytest.mark.parametrize("source", ["config", "flag"])
    @pytest.mark.parametrize("name", ["a/b", "a\0b"])
    def test_class_name_that_cannot_name_a_file_is_exit_3(self, tmp_path, capsys, command,
                                                          source, name):
        argv = _tiny_study(tmp_path)[command]
        if source == "config":
            argv += ["--config", _json_config(str(tmp_path), {"class_names": ["weed", name]})]
        else:
            argv += ["--class-names", "weed," + name]
        assert cli.main(argv) == 3
        assert capsys.readouterr().err.startswith("error: class_names must be ")
        assert not (tmp_path / "out").exists()

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("study")
        _tiny_study(root)
        return str(root)

    @settings(max_examples=150, deadline=None)
    @given(command=st.sampled_from(["tile", "split", "decode", "eval", "compare"]),
           key=st.sampled_from(sorted(f.name for f in dataclasses.fields(HarnessConfig))),
           value=st.sampled_from(_BAD_CONFIG_VALUES), element=st.booleans())
    def test_exit_code_is_0_2_or_3_and_no_traceback(self, inputs, command, key, value, element):
        data = {key: value}
        element = element and key in _ELEMENT_KEYS
        if element:
            data = _with_element(HarnessConfig().to_dict(), key, value)
        with tempfile.TemporaryDirectory() as work:
            argv = _tiny_argv(inputs, work)[command]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = cli.main([*argv, "--config", _json_config(work, data)])
        assert rc in (0, 2, 3)
        assert "Traceback" not in err.getvalue()
        if not (element and (key, value) in _VALID_ELEMENTS):
            assert rc == 3 and err.getvalue().startswith(f"error: {key} must be ")
