import random
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vceval import boxes, dataio
from vceval.boxes import BoundingBox, Detection, DetectionArrays, GroundTruthBox, LabelArrays
from vceval.dataio import (
    MAX_TENSOR_ELEMENTS,
    TENSOR_MAGIC,
    AnnotatedImage,
    DatasetSplit,
    parse_detection_file,
    parse_label_file,
    read_csv_table,
    read_image_manifest,
    read_tensor,
    split_dataset,
    write_detection_file,
    write_image_manifest,
    write_label_file,
    write_tensor,
)
from vceval.errors import (
    BadMagic,
    EmptyDataset,
    FormatError,
    MalformedLine,
    OutOfRange,
    ScoreOutOfRange,
    ShapeOverflow,
    TruncatedPayload,
    UnreadableCSV,
)
from vceval.netops import RawHeadTensor

from oracles import parse_detections_ref, parse_labels_ref, write_detections_ref, write_labels_ref


class TestLabelFormat:
    def test_worked_example(self):
        # normalized (0.25, 0.25, 0.1, 0.2) at 320x320 -> pixel (64, 48, 32, 64)
        out = parse_label_file("1 0.25 0.25 0.1 0.2\n", 320, 320)
        assert len(out) == 1
        assert out[0].class_id == 1
        assert out[0].box == BoundingBox(64.0, 48.0, 32.0, 64.0)

    def test_comments_and_blanks_skipped(self):
        content = "\n# header comment\n0 0.5 0.5 0.2 0.2\n\n"
        assert len(parse_label_file(content, 100, 100)) == 1

    def test_overhanging_box_clipped(self):
        # cx=0.95 w=0.2 overhangs the right edge; legal input, clipped output
        out = parse_label_file("0 0.95 0.5 0.2 0.2\n", 100, 100)
        assert out[0].box.x_min == pytest.approx(85.0)
        assert out[0].box.x_max == pytest.approx(100.0)

    def test_field_count_enforced(self):
        with pytest.raises(MalformedLine):
            parse_label_file("0 0.5 0.5 0.2\n", 100, 100)
        with pytest.raises(MalformedLine):
            parse_label_file("0 0.5 0.5 0.2 0.2 0.9\n", 100, 100)

    def test_non_numeric_field(self):
        with pytest.raises(MalformedLine) as exc:
            parse_label_file("0 0.5 0.5 0.2 0.2\n0 x 0.5 0.2 0.2\n", 100, 100)
        assert exc.value.line_no == 2

    @pytest.mark.parametrize("line, reason", [
        ("0 0.9 1e308 0 1e308 1", "x_min + width must be finite"),
        ("0 0.9 0 1e308 1 1e308", "y_min + height must be finite"),
    ])
    def test_a_corner_past_the_float_range_is_refused(self, line, reason):
        # every field, the sides and the area are finite; the corner is not
        text = "0 0.5 1 1 5 5\n" + line + "\n"
        for parse in (parse_detection_file, parse_detections_ref):
            with pytest.raises(OutOfRange, match=f"^line 2: {re.escape(reason)}$"):
                parse(text)

    def test_class_id_beyond_64_bits_is_malformed(self):
        with pytest.raises(MalformedLine, match="line 2: class id .* does not fit in 64 bits"):
            parse_label_file(f"0 0.5 0.5 0.2 0.2\n{2**63} 0.5 0.5 0.2 0.2\n", 100, 100)
        assert parse_label_file(f"{2**63 - 1} 0.5 0.5 0.2 0.2\n", 100, 100)[0].class_id == 2**63 - 1

    def test_box_that_bounding_box_refuses_is_out_of_range(self):
        # each side is finite in pixels, their product is not
        with pytest.raises(OutOfRange, match="line 2: box area must be finite"):
            parse_label_file("\n0 0.5 0.5 1 1\n", 10**200, 10**200)

    def test_center_out_of_range(self):
        with pytest.raises(OutOfRange):
            parse_label_file("0 1.5 0.5 0.2 0.2\n", 100, 100)
        with pytest.raises(OutOfRange):
            parse_label_file("0 0.5 -0.1 0.2 0.2\n", 100, 100)

    @pytest.mark.parametrize("field", ["nan", "inf", "-inf"])
    def test_non_finite_field_names_its_line(self, field):
        for column in range(1, 5):
            parts = ["0", "0.5", "0.5", "0.1", "0.1"]
            parts[column] = field
            with pytest.raises((MalformedLine, OutOfRange)) as err:
                parse_label_file("0 0.5 0.5 0.1 0.1\n" + " ".join(parts) + "\n", 320, 320)
            assert err.value.line_no == 2

    def test_zero_size_rejected(self):
        with pytest.raises(OutOfRange):
            parse_label_file("0 0.5 0.5 0 0.2\n", 100, 100)

    def test_negative_class_rejected(self):
        with pytest.raises(MalformedLine):
            parse_label_file("-1 0.5 0.5 0.2 0.2\n", 100, 100)

    def test_round_trip_random(self):
        rng = random.Random(42)
        for _ in range(100):
            n = rng.randint(0, 8)
            boxes = []
            for _ in range(n):
                w = rng.uniform(0.01, 0.4)
                h = rng.uniform(0.01, 0.4)
                cx = rng.uniform(w / 2, 1 - w / 2)
                cy = rng.uniform(h / 2, 1 - h / 2)
                boxes.append(
                    GroundTruthBox(
                        BoundingBox((cx - w / 2) * 640, (cy - h / 2) * 480, w * 640, h * 480),
                        class_id=rng.randint(0, 3),
                    )
                )
            text = write_label_file(boxes, 640, 480)
            parsed = parse_label_file(text, 640, 480)
            assert len(parsed) == len(boxes)
            for got, want in zip(parsed, boxes):
                assert got.class_id == want.class_id
                assert got.box.x_min == pytest.approx(want.box.x_min, abs=1e-3)
                assert got.box.width == pytest.approx(want.box.width, abs=1e-3)


class TestDetectionFormat:
    def test_parse_basic(self):
        out = parse_detection_file("1 0.900000 10.000000 20.000000 30.000000 40.000000\n")
        assert out == [Detection(BoundingBox(10.0, 20.0, 30.0, 40.0), 1, 0.9)]

    def test_score_out_of_range(self):
        with pytest.raises(ScoreOutOfRange):
            parse_detection_file("0 1.200000 1 1 5 5\n")

    def test_nonpositive_sides_rejected(self):
        with pytest.raises(OutOfRange):
            parse_detection_file("0 0.5 1 1 0 5\n")
        with pytest.raises(OutOfRange):
            parse_detection_file("0 0.5 1 1 5 -2\n")

    def test_field_count(self):
        with pytest.raises(MalformedLine):
            parse_detection_file("0 0.5 1 1 5\n")

    @pytest.mark.parametrize("field", ["nan", "inf", "-inf"])
    def test_non_finite_box_field_names_its_line(self, field):
        for column in range(2, 6):
            parts = ["0", "0.5", "1", "1", "5", "5"]
            parts[column] = field
            with pytest.raises((MalformedLine, OutOfRange)) as err:
                parse_detection_file("0 0.5 1 1 5 5\n" + " ".join(parts) + "\n")
            assert err.value.line_no == 2

    def test_round_trip_random(self):
        rng = random.Random(77)
        for _ in range(100):
            dets = [
                Detection(
                    BoundingBox(
                        rng.uniform(-10, 500),
                        rng.uniform(-10, 500),
                        rng.uniform(0.01, 80),
                        rng.uniform(0.01, 80),
                    ),
                    class_id=rng.randint(0, 4),
                    score=round(rng.uniform(0.0, 1.0), 6),
                )
                for _ in range(rng.randint(0, 10))
            ]
            parsed = parse_detection_file(write_detection_file(dets))
            assert len(parsed) == len(dets)
            for got, want in zip(parsed, dets):
                assert got.class_id == want.class_id
                assert got.score == pytest.approx(want.score, abs=1e-6)
                for attr in ("x_min", "y_min", "width", "height"):
                    assert getattr(got.box, attr) == pytest.approx(
                        getattr(want.box, attr), abs=1e-6
                    )


class TestTensorFormat:
    def test_header_layout(self):
        """21x13x13 serializes to exactly 16 + 4*21*13*13 = 14212 bytes."""
        tensor = RawHeadTensor(np.zeros((21, 13, 13)))
        blob = write_tensor(tensor)
        assert blob[:4] == TENSOR_MAGIC
        assert len(blob) == 14212

    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            k = int(rng.integers(1, 4))
            h = int(rng.integers(1, 10))
            w = int(rng.integers(1, 10))
            vals = rng.normal(0.0, 4.0, size=(3 * (5 + k), h, w)).astype("<f4")
            tensor = RawHeadTensor(vals.astype(np.float64))
            back = read_tensor(write_tensor(tensor))
            # float32 carrier: values that started as float32 survive exactly
            np.testing.assert_array_equal(back.values, tensor.values)

    def test_bad_magic(self):
        with pytest.raises(BadMagic):
            read_tensor(b"JUNK" + b"\x00" * 20)

    def test_short_header(self):
        with pytest.raises(TruncatedPayload):
            read_tensor(TENSOR_MAGIC + b"\x01\x00")
        with pytest.raises(BadMagic):
            read_tensor(b"JU")

    def test_truncated_payload(self):
        blob = write_tensor(RawHeadTensor(np.zeros((18, 2, 2))))
        with pytest.raises(TruncatedPayload):
            read_tensor(blob[:-1])

    def test_shape_overflow_guard(self):
        import struct

        header = struct.pack("<4sIII", TENSOR_MAGIC, 2**20, 2**10, 2**10)
        assert 2**20 * 2**10 * 2**10 > MAX_TENSOR_ELEMENTS
        with pytest.raises(ShapeOverflow):
            read_tensor(header)

    def test_trailing_bytes_ignored(self):
        tensor = RawHeadTensor(np.ones((18, 1, 1)))
        back = read_tensor(write_tensor(tensor) + b"extra")
        np.testing.assert_array_equal(back.values, tensor.values)


class TestSplit:
    def test_deterministic(self):
        ids = [f"img{i:03d}" for i in range(25)]
        a = split_dataset(ids, 4, 1, seed=7)
        b = split_dataset(ids, 4, 1, seed=7)
        assert a == b

    def test_different_seeds_differ(self):
        ids = [f"img{i:03d}" for i in range(25)]
        assert split_dataset(ids, 4, 1, seed=1) != split_dataset(ids, 4, 1, seed=2)

    def test_sizes_half_up(self):
        # 25 ids at 4:1 -> exactly 5 test; 3 ids at 4:1 -> 3*0.2=0.6 -> 1 test
        assert len(split_dataset([f"i{i}" for i in range(25)], 4, 1, 0).test) == 5
        assert len(split_dataset(["a", "b", "c"], 4, 1, 0).test) == 1
        # 10 at 1:1 -> 5/5
        s = split_dataset([f"i{i}" for i in range(10)], 1, 1, 0)
        assert len(s.train) == len(s.test) == 5

    def test_partition_is_exact(self):
        ids = [f"img{i}" for i in range(17)]
        s = split_dataset(ids, 4, 1, seed=3)
        assert sorted(s.train + s.test) == sorted(ids)
        assert not set(s.train) & set(s.test)

    def test_errors(self):
        with pytest.raises(EmptyDataset):
            split_dataset([], 4, 1, 0)
        with pytest.raises(ValueError):
            split_dataset(["a", "a"], 4, 1, 0)
        with pytest.raises(ValueError):
            split_dataset(["a"], 0, 1, 0)

    def test_split_overlap_guard(self):
        with pytest.raises(ValueError):
            DatasetSplit(train=("a", "b"), test=("b",), seed=0)


class TestAnnotatedImage:
    def test_clips_ground_truths_on_construction(self):
        img = AnnotatedImage(
            image_id="x",
            width=100,
            height=100,
            ground_truths=(
                GroundTruthBox(BoundingBox(-5.0, -5.0, 10.0, 10.0), 0),
                GroundTruthBox(BoundingBox(200.0, 200.0, 10.0, 10.0), 0),
                GroundTruthBox(BoundingBox(10.0, 10.0, 5.0, 5.0), 1),
            ),
        )
        assert len(img.ground_truths) == 2
        assert img.ground_truths[0].box == BoundingBox(0.0, 0.0, 5.0, 5.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            AnnotatedImage(image_id="", width=10, height=10)
        with pytest.raises(ValueError):
            AnnotatedImage(image_id="x", width=0, height=10)


class TestManifest:
    def test_round_trip(self):
        images = [
            AnnotatedImage("frame_a", 5472, 3648),
            AnnotatedImage("frame_b", 1024, 768),
        ]
        parsed = read_image_manifest(write_image_manifest(images))
        assert [(i.image_id, i.width, i.height) for i in parsed] == [
            ("frame_a", 5472, 3648),
            ("frame_b", 1024, 768),
        ]

    def test_header_required(self):
        with pytest.raises(MalformedLine):
            read_image_manifest("frame_a,100,100\n")

    def test_empty_rejected(self):
        with pytest.raises(EmptyDataset):
            read_image_manifest("")

    def test_errors_give_the_line_of_the_text(self):
        with pytest.raises(MalformedLine, match="line 4: invalid literal"):
            read_image_manifest("image_id,width,height\n\n\nframe_a,abc,100\n")
        with pytest.raises(MalformedLine, match="line 2: bad manifest header"):
            read_image_manifest("\nimage,w,h\n")

    def test_duplicate_image_id(self):
        with pytest.raises(MalformedLine, match="line 3: duplicate image id 'a'"):
            read_image_manifest("image_id,width,height\na,10,10\na,20,20\n")

    def test_bad_row(self):
        with pytest.raises(MalformedLine):
            read_image_manifest("image_id,width,height\nframe_a,abc,100\n")
        with pytest.raises(MalformedLine):
            read_image_manifest("image_id,width,height\nframe_a,100\n")


class TestCsvTable:
    def test_header_and_rows_with_their_lines(self):
        text = '\n x , y \n1,2\n\n  ,\n"3\n3",4\n5,6\n'
        header_line, header, rows = read_csv_table(text, "table")
        assert (header_line, header) == (2, ["x", "y"])
        # a quoted field over two lines ends its row on the second
        assert list(rows) == [(3, ["1", "2"]), (7, ["3\n3", "4"]), (8, ["5", "6"])]

    def test_field_count_is_checked_row_by_row(self):
        _, _, rows = read_csv_table("a,b\n1,2\n\n3\n4,5\n", "table")
        assert next(rows) == (2, ["1", "2"])
        with pytest.raises(MalformedLine, match="line 4: expected 2 fields, got 1"):
            next(rows)

    def test_empty_text(self):
        header_line, header, rows = read_csv_table(" \n,\n", "table")
        assert (header_line, header, list(rows)) == (0, [], [])

    def test_unreadable_csv_names_what_it_read(self):
        with pytest.raises(UnreadableCSV, match="table is not readable CSV"):
            read_csv_table('a\n"' + "x" * 200_000 + '"\n', "table")


# --- detection parser against the line-by-line oracle ----------------------

_CLASS_TOKENS = ["0", "1", "3", "+2", "-0", "1.0", "-1", "1e0", "x", "nan"]
_SCORE_TOKENS = ["0.5", "0.900000", "0", "-0.0", "1.0", "1", "1.0000001", "-0.1",
                 "nan", "inf", "1e-400", "abc"]
_COORD_TOKENS = ["10.5", "-3", "0", "-0.0", "400.000001", "1e308", "1e309",
                 "nan", "inf", "-inf", "1_0", "abc"]
_SIDE_TOKENS = ["5", "41.6", "0.000001", "1e-320", "1e200", "0", "-0.0", "-2", "nan", "inf",
                "abc"]


_FIELD_TOKENS = [_CLASS_TOKENS, _SCORE_TOKENS, _COORD_TOKENS, _COORD_TOKENS,
                 _SIDE_TOKENS, _SIDE_TOKENS]
_VALID_TOKENS = [["0", "1"], ["0.5", "0.900000", "1.0"], ["10.5", "-3"], ["10.5", "0"],
                 ["5", "41.6"], ["5", "0.000001"]]


@st.composite
def _det_line(draw):
    """A detection line, valid in about three fields of four, with 5-7 fields."""
    n_fields = draw(st.sampled_from([6, 6, 6, 6, 5, 7]))
    tokens = [
        draw(st.sampled_from(_VALID_TOKENS[k] if draw(st.integers(0, 3)) else _FIELD_TOKENS[k]))
        for k in range(min(n_fields, 6))
    ] + ["1"] * (n_fields - 6)
    indent = draw(st.sampled_from(["", " ", "\t"]))
    return indent + draw(st.sampled_from([" ", "  ", "\t"])).join(tokens)


_OTHER_LINES = st.sampled_from(["", "   ", "# comment", "  # 0 0.5 1 1 5 5", "#", "#0 0.5 1 1 5 5"])


def _outcome(parse, text):
    try:
        return "ok", parse(text)
    except FormatError as exc:
        return type(exc), exc.line_no, str(exc)


class TestDetectionParserAgainstOracle:
    @settings(max_examples=400, deadline=None)
    @given(lines=st.lists(st.one_of(_det_line(), _OTHER_LINES), max_size=12),
           newline=st.sampled_from(["\n", "\r\n"]),
           trailing=st.booleans())
    @example(lines=["0 0.5 1 1 5 nan"], newline="\n", trailing=True)
    def test_same_rows_or_same_first_error(self, lines, newline, trailing):
        text = newline.join(lines) + (newline if trailing else "")
        got = _outcome(parse_detection_file, text)
        want = _outcome(parse_detections_ref, text)
        if got[0] == "ok" and want[0] == "ok":
            dets = got[1]
            rows = list(zip(dets.class_id.tolist(), dets.score.tolist(),
                            *dets.xywh.T.tolist()))
            # repr tells -0.0 from 0.0
            assert repr(rows) == repr(want[1])
            assert repr([(d.class_id, d.score, d.box.x_min, d.box.y_min, d.box.width,
                          d.box.height) for d in dets]) == repr(want[1])
        else:
            assert got == want

    @pytest.mark.parametrize(
        "line, error",
        [
            ("1.0 0.5 1 1 5 5", MalformedLine),
            ("-1 0.5 1 1 5 5", MalformedLine),
            ("0 1.0000001 1 1 5 5", ScoreOutOfRange),
            ("0 nan 1 1 5 5", ScoreOutOfRange),
            ("0 0.5 1 1 0 5", OutOfRange),
            ("0 0.5 inf 1 5 5", OutOfRange),
            ("0 0.5 1 1 1e306 1e306", OutOfRange),
            ("0 0.5 1 1 5", MalformedLine),
            ("0 0.5 1 1 5 5 5", MalformedLine),
        ],
    )
    def test_named_cases_report_their_line(self, line, error):
        text = "# detections\n\n0 0.5 1 1 5 5\n" + line + "\n0 0.5 1 1 5 5\n"
        for parse in (parse_detection_file, parse_detections_ref):
            with pytest.raises(error) as err:
                parse(text)
            assert err.value.line_no == 4

    @pytest.mark.parametrize(
        "line_3, line_5, error",
        [
            ("0 1.5 1 1 5 5", "0 0.5 x 1 5 5", ScoreOutOfRange),
            ("0 0.5 x 1 5 5", "0 1.5 1 1 5 5", MalformedLine),
            ("0 0.5 1 1 5 nan", "0 0.5 1 1 5", OutOfRange),
            ("0 0.5 1 1 5", "0 0.5 1 1 5 nan", MalformedLine),
            ("-1 0.5 1 1 5 5", "0 0.5 1 1 5 5 5", MalformedLine),
        ],
    )
    def test_a_rule_and_a_conversion_fault_report_the_first_line(self, line_3, line_5, error):
        text = "# detections\n\n" + line_3 + "\n0 0.5 1 1 5 5\n" + line_5 + "\n"
        outcomes = [_outcome(parse, text) for parse in (parse_detection_file, parse_detections_ref)]
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][:2] == (error, 3)

    def test_a_nan_height_is_not_a_side_fault(self):
        text = "0 0.5 1 1 5 5\n0 0.5 1 1 5 nan\n"
        for parse in (parse_detection_file, parse_detections_ref):
            with pytest.raises(OutOfRange, match="^line 2: height must be finite$"):
                parse(text)

    def test_class_id_beyond_64_bits_is_malformed(self):
        # the oracle takes any integer; the columns hold int64 class ids
        text = "0 0.5 1 1 5 5\n" + f"{2**63} 0.5 1 1 5 5\n"
        assert parse_detections_ref(text)[1][0] == 2**63
        with pytest.raises(MalformedLine, match="line 2: class id .* does not fit in 64 bits"):
            parse_detection_file(text)
        assert parse_detection_file(f"{2**63 - 1} 0.5 1 1 5 5\n")[0].class_id == 2**63 - 1

    def test_columns_and_records_agree(self):
        dets = parse_detection_file("2 0.25 1.5 2.5 3 4\n0 1 -1 0 0.5 0.75\n")
        assert dets.class_id.tolist() == [2, 0]
        assert dets.score.tolist() == [0.25, 1.0]
        assert dets.xyxy.tolist() == [[1.5, 2.5, 4.5, 6.5], [-1.0, 0.0, -0.5, 0.75]]
        assert dets[-1] == Detection(BoundingBox(-1.0, 0.0, 0.5, 0.75), 0, 1.0)
        assert dets[:1] == [Detection(BoundingBox(1.5, 2.5, 3.0, 4.0), 2, 0.25)]
        assert len(parse_detection_file("")) == 0 and parse_detection_file("# x\n") == []
        with pytest.raises(IndexError):
            dets[2]


# --- numpy's reader against the exact conversion ---------------------------

# numpy refuses 1_0, Arabic-Indic digits and the class id 2^63, which
# Python accepts; both refuse 0x10, 1e3 or 1.0 as a class id, and True
_CONVERT_CLASSES = ["0", "1", "7", "+2", "-0", str(2**63 - 1)] * 3 + ["-1", "-5"]
_CONVERT_VALUES = ["0", "0.5", "10.5", "-3", "-0.0", ".5", "5.", "+.5e-3", "1e-400", "1e308",
                   "1e309", "1e99999", "-1e99999", "nan", "-nan", "NaN", "inf", "-Infinity"]
_CONVERT_ODD = ["1_0", "\u0661\u0662", str(2**63), "0x10", "1e3", "1.0", "True", "abc", "\x00"]
_CONVERT_SEPARATORS = [" ", "  ", "\t", "\x1f", " \t"]
# the line breaks of str.splitlines that are ASCII
_CONVERT_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]
_CONVERT_OTHER_LINES = ["", " ", "\t", "\x1f", " \x1f\t", "# comment", "  #0 0.5 1 1 5 5", "#"]


@st.composite
def _convert_text(draw, n):
    """A text of rows of n fields, now and then one field more or fewer, an
    odd spelling, a whitespace-only or comment line, or an odd line break."""
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(_CONVERT_OTHER_LINES)))
            continue
        count = draw(st.sampled_from([n] * 12 + [n - 1, n + 1]))
        tokens = [draw(st.sampled_from(_CONVERT_CLASSES if k == 0 else _CONVERT_VALUES))
                  for k in range(count)]
        if draw(st.integers(0, 11)) == 0:
            tokens[draw(st.integers(0, count - 1))] = draw(st.sampled_from(_CONVERT_ODD))
        sep = draw(st.sampled_from(_CONVERT_SEPARATORS))
        lines.append(draw(st.sampled_from(["", " ", "\t"])) + sep.join(tokens)
                     + draw(st.sampled_from(["", " ", "\x1f"])))
    breaks = [draw(st.sampled_from(_CONVERT_BREAKS[:1] * 6 + _CONVERT_BREAKS)) for _ in lines]
    text = "".join(line + b for line, b in zip(lines, breaks))
    return text if draw(st.booleans()) else text[:-1]  # or cut inside the last line or break


def _convert_slowly(texts, n):
    """_convert_texts with numpy's reader declining every text."""
    with mock.patch.object(dataio, "_loadtxt", return_value=None):
        return dataio._convert_texts(texts, n)


class TestTextConversion:
    @settings(max_examples=600, deadline=None)
    @given(data=st.data(), n=st.sampled_from([5, 6]))
    def test_numpy_reader_gives_the_exact_columns_starts_and_fault(self, data, n):
        texts = data.draw(st.lists(_convert_text(n), min_size=1, max_size=3))
        got, want = dataio._convert_texts(texts, n), _convert_slowly(texts, n)
        for a, b in zip(got[:2], want[:2]):
            # bitwise: tells -0.0 from 0.0 and keeps the sign of a nan
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        assert got[2:] == want[2:]

    @pytest.mark.parametrize("text", [
        "0 0.5 1 1 5 5\n", "3 0.25 -0.0 1e-400 1e308 nan", "0\t1 1 1 5 5\r\n\n \n1 1 1 1 5 5\n",
        "0\x1f1 1 1 5 5\x0b1 1 1 1 5 5\x1e", "0 0.5 1 1 5 5\n# comment\n",
        "# tile_r0_c1\n0 0.912345 12.000000 40.500000 31.250000 28.000000\n"
        "1 0.001000 0.000000 0.000000 416.000000 1.000000\n",
    ])
    def test_numpy_reads_plain_texts(self, text):
        assert len(dataio._loadtxt(text, 6)) == len(dataio._split_rows(text))

    @pytest.mark.parametrize("text", [
        "", " \n\t\n", "\x1f", "0 0.5 1 1 5 5 #\n", "# tile_r0_c1\n0 0.5 1 1 5 5\n1 0.5 1 1 5 5 #\n",
        "# tile_r0_c1\n\n  # 0 0.5 1 1 5 5\n",
        "\u0661 0.5 1 1 5 5\n", "0 0.5 1 1 5 5\n-1 0.5 1 1 5 5\n", "1_0 0.5 1 1 5 5\n",
        f"{2**63} 0.5 1 1 5 5\n", "1.0 0.5 1 1 5 5\n", "0 0.5 1 1 5\n",
    ])
    def test_numpy_declines_without_a_warning(self, text):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert dataio._loadtxt(text, 6) is None
        assert caught == []


# --- columnar detection writer against the per-object oracle ---------------

# values whose six-decimal text is easy to get wrong: signed zero, the
# smallest subnormal, large magnitudes, and ties at the sixth decimal
_AWKWARD_FLOATS = [0.0, -0.0, 1.0, 5e-324, -5e-324, 1e17, -1e17, 2.5e-7, 0.0000005,
                   0.0000015, -0.0000005, 0.1234565, 1.0000005, 2.675, 1e-6, 1e300]
_FLOATS = st.one_of(st.sampled_from(_AWKWARD_FLOATS),
                    st.floats(allow_nan=False, allow_infinity=False, width=64))
_SCORES = st.one_of(st.sampled_from([0.0, 1.0, 5e-324, 2.5e-7, 0.0000005, 0.9999995]),
                    st.floats(0.0, 1.0))
_CLASS_IDS = st.one_of(st.sampled_from([0, 1, 2**62, 2**63 - 2, 2**63 - 1]),
                       st.integers(0, 2**63 - 1))


class TestDetectionWriterAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(st.tuples(_CLASS_IDS, _SCORES, _FLOATS, _FLOATS, _FLOATS, _FLOATS),
                         max_size=8))
    def test_columns_write_the_oracle_bytes(self, rows):
        cols = DetectionArrays(
            np.array([r[1] for r in rows], dtype=np.float64),
            np.array([r[0] for r in rows], dtype=np.int64),
            np.array([r[2:] for r in rows], dtype=np.float64).reshape(-1, 4),
        )
        assert write_detection_file(cols) == write_detections_ref(rows)

    def test_objects_write_the_same_bytes_as_their_columns(self):
        rng = random.Random(79)
        dets = [
            Detection(BoundingBox(rng.choice([-0.0, 2.5e-7, rng.uniform(-50, 500)]),
                                  rng.uniform(-50, 500), rng.choice([5e-324, 1e17, 41.6]),
                                  rng.uniform(0.01, 80)),
                      class_id=rng.choice([0, 3, 2**63 - 1]),
                      score=rng.choice([1.0, 0.0000005, rng.random()]))
            for _ in range(50)
        ]
        rows = [(d.class_id, d.score, d.box.x_min, d.box.y_min, d.box.width, d.box.height)
                for d in dets]
        text = write_detection_file(dets)
        assert text == write_detections_ref(rows)
        assert text == write_detection_file(DetectionArrays.of(dets))
        assert write_detection_file([]) == ""

    def test_columns_live_in_boxes(self):
        assert dataio.DetectionArrays is boxes.DetectionArrays


# --- columnar label parser and writer against the per-line oracles --------

_LABEL_CLASS_TOKENS = ["0", "2", "-1", "+1", "-0", str(2**63 - 1), str(2**63), "1.0", "x"]
_UNIT_TOKENS = ["0.5", "0", "-0.0", "1", "1.0000001", "5e-324", "0.3", "0.999", "nan", "inf",
                "-inf", "abc"]
_LABEL_VALID = [["0", "2"], ["0.5", "0.25", "0.9", "0"], ["0.5", "0.1", "1.0"]]


@st.composite
def _label_line(draw):
    """A label line, each field valid in about three draws of four, with
    4-6 fields; centers and sizes draw from the awkward unit values."""
    n_fields = draw(st.sampled_from([5, 5, 5, 5, 4, 6]))
    pools = [(_LABEL_VALID[0], _LABEL_CLASS_TOKENS), (_LABEL_VALID[1], _UNIT_TOKENS),
             (_LABEL_VALID[1], _UNIT_TOKENS), (_LABEL_VALID[2], _UNIT_TOKENS),
             (_LABEL_VALID[2], _UNIT_TOKENS)]
    tokens = [
        draw(st.sampled_from(valid if draw(st.integers(0, 3)) else awkward))
        for valid, awkward in pools[:n_fields]
    ] + ["0.5"] * (n_fields - 5)
    if draw(st.integers(0, 3)) == 0:
        tokens[draw(st.integers(1, min(n_fields, 5) - 1))] = repr(draw(st.floats(0.0, 1.0)))
    return draw(st.sampled_from(["", " ", "\t"])) + draw(st.sampled_from([" ", "\t"])).join(tokens)


_LABEL_OTHER_LINES = st.sampled_from(["", "  ", "# comment", " # 0 0.5 0.5 0.1 0.1", "#"])


def _label_rows(labels):
    return [(g.class_id, g.box.x_min, g.box.y_min, g.box.width, g.box.height) for g in labels]


class TestLabelParserAgainstOracle:
    @settings(max_examples=500, deadline=None)
    @given(lines=st.lists(st.one_of(_label_line(), _LABEL_OTHER_LINES), max_size=10),
           newline=st.sampled_from(["\n", "\r\n"]), trailing=st.booleans(),
           extent=st.sampled_from([(416, 416), (832, 416), (1, 3), (5472, 3648),
                                   (65536, 32), (2**32, 2**32), (0, 10), (10**200, 10**200)]))
    @example(lines=["0 0.5 0.5 0.1 nan"], newline="\n", trailing=True, extent=(416, 416))
    def test_same_rows_or_same_first_error(self, lines, newline, trailing, extent):
        text = newline.join(lines) + (newline if trailing else "")
        got = _outcome(lambda t: parse_label_file(t, *extent), text)
        want = _outcome(lambda t: parse_labels_ref(t, *extent), text)
        if got[0] == "ok" and want[0] == "ok":
            labels = got[1]
            assert isinstance(labels, LabelArrays)
            rows = list(zip(labels.class_id.tolist(), *labels.xywh.T.tolist()))
            # repr tells -0.0 from 0.0
            assert repr(rows) == repr(want[1])
            assert repr(_label_rows(labels)) == repr(want[1])
        else:
            assert got == want

    @pytest.mark.parametrize(
        "line, error",
        [
            ("0 nan 0.5 0.1 0.1", OutOfRange),
            ("0 0.5 inf 0.1 0.1", OutOfRange),
            ("0 0.5 0.5 -inf 0.1", OutOfRange),
            ("0 0.5 0.5 0.1 1.0000001", OutOfRange),
            ("0 0.5 0.5 0 0.1", OutOfRange),
            ("-1 0.5 0.5 0.1 0.1", MalformedLine),
            (f"{2**63} 0.5 0.5 0.1 0.1", MalformedLine),
            ("0 0.5 0.5 0.1", MalformedLine),
            ("0 0.5 0.5 0.1 0.1 0.1", MalformedLine),
        ],
    )
    def test_named_cases_report_their_line(self, line, error):
        text = "# labels\n\n0 0.5 0.5 0.1 0.1\n" + line + "\n0 0.5 0.5 0.1 0.1\n"
        outcomes = [_outcome(lambda t: parse(t, 416, 416), text)
                    for parse in (parse_label_file, parse_labels_ref)]
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][:2] == (error, 4)

    @pytest.mark.parametrize(
        "line_3, line_5, error",
        [
            ("0 0.5 1.5 0.1 0.1", "0 0.5 0.5 0.1 x", OutOfRange),
            ("0 0.5 0.5 0.1 x", "0 0.5 1.5 0.1 0.1", MalformedLine),
            ("0 0.5 0.5 0.1 nan", f"{2**63} 0.5 0.5 0.1 0.1", OutOfRange),
            (f"{2**63} 0.5 0.5 0.1 0.1", "0 0.5 0.5 0.1 nan", MalformedLine),
            ("-1 0.5 0.5 0.1 0.1", "0 0.5 0.5 0.1", MalformedLine),
        ],
    )
    def test_a_rule_and_a_conversion_fault_report_the_first_line(self, line_3, line_5, error):
        text = "# labels\n\n" + line_3 + "\n0 0.5 0.5 0.1 0.1\n" + line_5 + "\n"
        outcomes = [_outcome(lambda t: parse(t, 416, 416), text)
                    for parse in (parse_label_file, parse_labels_ref)]
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][:2] == (error, 3)

    @pytest.mark.parametrize(
        "line, extent, reason",
        [
            ("0 0.5 0.5 0.1 nan", (416, 416), "h=nan outside (0, 1]"),
            ("0 0.5 0.5 1 1", (10**200, 10**200), "box area must be finite"),
            ("0 0.5 0.5 1 1", (0, 10), "width and height must be > 0"),
        ],
    )
    def test_reasons_of_the_range_and_box_rules(self, line, extent, reason):
        text = "# labels\n" + line + "\n"
        for parse in (parse_label_file, parse_labels_ref):
            with pytest.raises(OutOfRange, match=f"^line 2: {re.escape(reason)}$"):
                parse(text, *extent)

    def test_awkward_values_that_parse(self):
        text = (f"{2**63 - 1} 5e-324 0.5 5e-324 1\n"  # a clip to a subnormal width
                "0 -0.0 0.5 5e-324 0.5\n"  # x_min is -0.0, which clip_to keeps
                "1 1 1 1 1\n")
        labels = parse_label_file(text, 416, 416)
        assert repr(_label_rows(labels)) == repr(parse_labels_ref(text, 416, 416))
        assert labels.class_id.tolist() == [2**63 - 1, 0, 1]
        # clip_to recomputes the width from the clipped corners
        assert labels[2].box == BoundingBox(208.0, 208.0, 208.0, 208.0)

    def test_box_left_empty_by_the_clip_is_dropped(self):
        # x_min rounds to 416 and x_min + 2e-321 to 416 again: nothing is left
        text = "0 1 0.5 5e-324 0.1\n0 0.5 0.5 0.25 0.25\n"
        assert parse_labels_ref(text, 416, 416) == [(0, 156.0, 156.0, 104.0, 104.0)]
        assert parse_label_file(text, 416, 416) == \
            [GroundTruthBox(BoundingBox(156.0, 156.0, 104.0, 104.0), 0)]


_PIXELS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 0.5, 208.0, 415.9999999, 416.0,
                                     1e17, 1e300]),
                    st.floats(0.0, 1e6))


class TestLabelWriterAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(st.tuples(_CLASS_IDS, _PIXELS, _PIXELS, _PIXELS, _PIXELS), max_size=8),
           extent=st.sampled_from([(416, 416), (832, 416), (1, 1), (65536, 3)]))
    def test_columns_write_the_oracle_bytes(self, rows, extent):
        cols = LabelArrays(np.array([r[0] for r in rows], dtype=np.int64),
                           np.array([r[1:] for r in rows], dtype=np.float64).reshape(-1, 4))
        assert write_label_file(cols, *extent) == write_labels_ref(rows, *extent)

    def test_objects_write_the_same_bytes_as_their_columns(self):
        rng = random.Random(83)
        gts = [
            GroundTruthBox(BoundingBox(rng.choice([-0.0, 2.5e-7, rng.uniform(0, 500)]),
                                       rng.uniform(0, 500), rng.choice([5e-324, 1e17, 41.6]),
                                       rng.uniform(0.01, 80)),
                           class_id=rng.choice([0, 3, 2**63 - 1]))
            for _ in range(50)
        ]
        text = write_label_file(gts, 416, 320)
        assert text == write_label_file(LabelArrays.of(gts), 416, 320)
        assert text == write_labels_ref(_label_rows(gts), 416, 320)
        assert write_label_file([], 416, 416) == ""
