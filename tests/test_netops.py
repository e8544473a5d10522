import math
import random

import numpy as np
import pytest

from vceval.errors import (
    DegenerateBox,
    EmptyInput,
    FormatError,
    NotMultipleOf32,
    OutOfBounds,
    ShapeMismatch,
)
from vceval.boxes import BoundingBox, DetectionArrays, GroundTruthBox
from vceval.netops import (
    ANCHORS_PER_SCALE,
    DEFAULT_ANCHORS,
    AnchorBox,
    BatchNormParams,
    DecodedDetection,
    GridCell,
    RawCellPrediction,
    RawHeadTensor,
    ResidualBlockWeights,
    assign_responsible_cells,
    decode_cell,
    decode_head,
    grid_shape,
    relu,
    residual_block_forward,
    sigmoid,
    softmax,
)

from oracles import decode_ref


class TestActivations:
    def test_sigmoid_known_values(self):
        assert sigmoid(0.0) == 0.5
        assert sigmoid(0.2) == pytest.approx(0.549834, abs=1e-6)

    def test_sigmoid_extremes_do_not_overflow(self):
        assert sigmoid(1000.0) == pytest.approx(1.0)
        assert sigmoid(-1000.0) == pytest.approx(0.0)

    def test_sigmoid_complement(self):
        rng = random.Random(5)
        for _ in range(200):
            x = rng.uniform(-40.0, 40.0)
            assert sigmoid(x) + sigmoid(-x) == pytest.approx(1.0, abs=1e-12)

    def test_sigmoid_array(self):
        arr = np.array([-2.0, 0.0, 3.0])
        out = sigmoid(arr)
        assert isinstance(out, np.ndarray)
        np.testing.assert_allclose(out, [1 / (1 + math.e**2), 0.5, 1 / (1 + math.e**-3)])

    def test_relu(self):
        assert relu(-3.0) == 0.0
        assert relu(2.5) == 2.5
        np.testing.assert_array_equal(relu(np.array([-1.0, 0.0, 4.0])), [0.0, 0.0, 4.0])

    def test_softmax_known_vector(self):
        np.testing.assert_allclose(
            softmax([1.0, 2.0, 3.0]), [0.090031, 0.244728, 0.665241], atol=1e-6
        )

    def test_softmax_sums_to_one(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            v = rng.normal(0.0, 5.0, size=rng.integers(1, 20))
            assert softmax(v).sum() == pytest.approx(1.0, abs=1e-12)

    def test_softmax_shift_invariance(self):
        v = np.array([0.3, -1.2, 4.0, 2.2])
        np.testing.assert_allclose(softmax(v), softmax(v + 123.456), atol=1e-9)

    def test_softmax_handles_huge_logits(self):
        out = softmax([1000.0, 1000.0])
        np.testing.assert_allclose(out, [0.5, 0.5])

    def test_softmax_rejects_empty_and_matrix(self):
        with pytest.raises(EmptyInput):
            softmax([])
        with pytest.raises(ShapeMismatch):
            softmax(np.zeros((2, 2)))


class TestDecodeCell:
    def test_hand_worked_example(self):
        # (3 + sigmoid(0.2))*32, (4 + sigmoid(-0.5))*32, 30*e^0.1, 60*e^-0.3
        raw = RawCellPrediction(0.2, -0.5, 0.1, -0.3, 0.0, (0.0,))
        out = decode_cell(raw, GridCell(3, 4, 32), AnchorBox(30.0, 60.0))
        assert out.center_x == pytest.approx(113.5947, abs=1e-4)
        assert out.center_y == pytest.approx(140.0813, abs=1e-4)
        assert out.width == pytest.approx(33.1551, abs=1e-4)
        assert out.height == pytest.approx(44.4491, abs=1e-4)

    def test_score_is_objectness_times_best_class(self):
        raw = RawCellPrediction(0.0, 0.0, 0.0, 0.0, 2.0, (-1.0, 3.0))
        out = decode_cell(raw, GridCell(0, 0, 32), AnchorBox(10.0, 10.0))
        assert out.class_id == 1
        assert out.score == pytest.approx(sigmoid(2.0) * sigmoid(3.0), abs=1e-12)

    def test_class_tie_prefers_lower_index(self):
        raw = RawCellPrediction(0.0, 0.0, 0.0, 0.0, 0.0, (1.5, 1.5))
        out = decode_cell(raw, GridCell(0, 0, 32), AnchorBox(10.0, 10.0))
        assert out.class_id == 0

    def test_center_stays_inside_cell(self):
        """The sigmoid offset keeps the center strictly within the owning
        cell even for extreme raw values."""
        cell = GridCell(5, 7, 16)
        anchor = AnchorBox(10.0, 10.0)
        for t in (-50.0, -2.0, 0.0, 2.0, 50.0):
            raw = RawCellPrediction(t, t, 0.0, 0.0, 0.0, (0.0,))
            out = decode_cell(raw, cell, anchor)
            assert cell.c_x * 16 <= out.center_x <= (cell.c_x + 1) * 16
            assert cell.c_y * 16 <= out.center_y <= (cell.c_y + 1) * 16

    def test_sizes_positive_for_any_finite_t(self):
        for t in (-30.0, -1.0, 0.0, 1.0, 5.0):
            raw = RawCellPrediction(0.0, 0.0, t, t, 0.0, (0.0,))
            out = decode_cell(raw, GridCell(0, 0, 32), AnchorBox(3.0, 7.0))
            assert out.width > 0 and out.height > 0

    def test_to_corner(self):
        det = DecodedDetection(100.0, 60.0, 40.0, 20.0, 0.9, 1).to_corner()
        assert det.box == BoundingBox(80.0, 50.0, 40.0, 20.0)
        assert det.class_id == 1 and det.score == 0.9

    def test_raw_prediction_validation(self):
        with pytest.raises(ValueError):
            RawCellPrediction(float("nan"), 0.0, 0.0, 0.0, 0.0, (0.0,))
        with pytest.raises(ValueError):
            RawCellPrediction(0.0, 0.0, 0.0, 0.0, 0.0, ())


class TestGridShape:
    def test_standard_sizes(self):
        assert grid_shape(416) == (13, 26, 52)
        assert grid_shape(320) == (10, 20, 40)
        assert grid_shape(512) == (16, 32, 64)

    @pytest.mark.parametrize("bad", [0, -32, 100, 415])
    def test_rejects_non_multiples(self, bad):
        with pytest.raises(NotMultipleOf32):
            grid_shape(bad)


class TestRawHeadTensor:
    def test_shape_properties(self):
        t = RawHeadTensor(np.zeros((21, 13, 13)))
        assert (t.channels, t.height, t.width) == (21, 13, 13)
        assert t.num_classes == 2

    @pytest.mark.parametrize("channels", [1, 5, 15, 16, 20])
    def test_rejects_non_head_channel_counts(self, channels):
        with pytest.raises(ShapeMismatch):
            RawHeadTensor(np.zeros((channels, 4, 4)))

    def test_rejects_wrong_rank_and_nonfinite(self):
        with pytest.raises(ShapeMismatch):
            RawHeadTensor(np.zeros((21, 13)))
        bad = np.zeros((18, 2, 2))
        bad[0, 0, 0] = np.inf
        with pytest.raises(ValueError):
            RawHeadTensor(bad)


class TestDecodeHead:
    ANCHORS = tuple(AnchorBox(w, h) for w, h in DEFAULT_ANCHORS[6:9])

    def test_zero_tensor_empty_under_default_thresholds(self):
        tensor = RawHeadTensor(np.zeros((21, 13, 13)))
        assert decode_head(tensor, self.ANCHORS, 32, score_threshold=0.30) == []

    def test_zero_tensor_score_is_quarter(self):
        tensor = RawHeadTensor(np.zeros((21, 2, 2)))
        dets = decode_head(tensor, self.ANCHORS, 32, score_threshold=0.0)
        assert len(dets) == 12  # 3 anchors x 4 cells
        assert all(d.score == pytest.approx(0.25, abs=1e-12) for d in dets)

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(55)
        for _ in range(25):
            k = int(rng.integers(1, 4))
            h = int(rng.integers(1, 7))
            w = int(rng.integers(1, 7))
            vals = rng.normal(0.0, 1.5, size=(3 * (5 + k), h, w))
            tensor = RawHeadTensor(vals)
            got = decode_head(tensor, self.ANCHORS, 32, 0.2, objectness_threshold=0.1)
            raw = vals.reshape(3, 5 + k, h, w)
            anchors = [(a.p_w, a.p_h) for a in self.ANCHORS]
            want = decode_ref(raw, anchors, 32, 0.2, 0.1)
            assert isinstance(got, DetectionArrays)
            assert len(got) == len(want)
            if want:
                x, y, bw, bh, score, cid = map(np.array, zip(*want))
                np.testing.assert_allclose(got.xywh, np.stack([x, y, bw, bh], 1), rtol=0, atol=1e-9)
                np.testing.assert_allclose(got.xyxy, np.stack([x, y, x + bw, y + bh], 1),
                                           rtol=0, atol=1e-9)
                np.testing.assert_allclose(got.score, score, rtol=0, atol=1e-12)
                assert got.class_id.tolist() == cid.tolist()
            for d, (x, y, bw, bh, score, cid) in zip(got, want):
                assert d.box.x_min == pytest.approx(x, abs=1e-9)
                assert d.box.y_min == pytest.approx(y, abs=1e-9)
                assert d.box.width == pytest.approx(bw, abs=1e-9)
                assert d.box.height == pytest.approx(bh, abs=1e-9)
                assert d.score == pytest.approx(score, abs=1e-12)
                assert d.class_id == cid

    def test_objectness_gate_is_independent_of_score(self):
        # high class prob but low objectness: passes the composite score
        # gate, fails the objectness gate
        vals = np.zeros((18, 1, 1))
        vals[4, 0, 0] = -1.0   # objectness ~ 0.269
        vals[5, 0, 0] = 8.0    # class prob ~ 1.0
        tensor = RawHeadTensor(vals)
        # 0.26 sits between the all-zero candidates (0.25) and this one
        loose = decode_head(tensor, self.ANCHORS, 32, 0.26)
        assert len(loose) == 1
        gated = decode_head(tensor, self.ANCHORS, 32, 0.26, objectness_threshold=0.30)
        assert gated == []

    @pytest.mark.parametrize("t_w, reason", [
        (1000.0, "x_min must be finite"),
        (3.4e38, "x_min must be finite"),
        (-1000.0, "width and height must be > 0"),
        (-3.4e38, "width and height must be > 0"),
    ])
    def test_degenerate_box_is_a_format_error(self, t_w, reason):
        # pytest turns a RuntimeWarning (e.g. overflow in exp) into an error
        vals = np.zeros((18, 2, 2))
        vals[4 + 6, 1, 0] = 10.0   # anchor 1 objectness
        vals[2 + 6, 1, 0] = t_w
        with pytest.raises(DegenerateBox, match=f"decoded detection 0: {reason}") as err:
            decode_head(RawHeadTensor(vals), self.ANCHORS, 32, 0.3)
        assert isinstance(err.value, FormatError)

    def test_anchor_count_enforced(self):
        tensor = RawHeadTensor(np.zeros((18, 1, 1)))
        with pytest.raises(ShapeMismatch):
            decode_head(tensor, self.ANCHORS[:2], 32, 0.3)

    def test_threshold_range_enforced(self):
        tensor = RawHeadTensor(np.zeros((18, 1, 1)))
        with pytest.raises(ValueError):
            decode_head(tensor, self.ANCHORS, 32, 1.5)
        with pytest.raises(ValueError):
            decode_head(tensor, self.ANCHORS, 32, 0.3, objectness_threshold=-0.1)


class TestResponsibleCells:
    def test_basic_assignment(self):
        gt = [
            GroundTruthBox(BoundingBox(0.0, 0.0, 20.0, 20.0), 0),    # center (10,10)
            GroundTruthBox(BoundingBox(100.0, 40.0, 40.0, 40.0), 0),  # center (120,60)
        ]
        got = assign_responsible_cells(gt, grid_side=13, input_size=416)
        assert got == {0: (0, 0), 1: (3, 1)}

    def test_border_center_goes_to_higher_cell(self):
        gt = [GroundTruthBox(BoundingBox(24.0, 24.0, 16.0, 16.0), 0)]  # center (32,32)
        assert assign_responsible_cells(gt, 13, 416) == {0: (1, 1)}

    def test_far_edge_center_clamps_to_last_cell(self):
        gt = [GroundTruthBox(BoundingBox(406.0, 406.0, 20.0, 20.0), 0)]  # center (416,416)
        assert assign_responsible_cells(gt, 13, 416) == {0: (12, 12)}

    def test_out_of_bounds_center_raises(self):
        gt = [GroundTruthBox(BoundingBox(410.0, 0.0, 20.0, 8.0), 0)]  # center (420,4)
        with pytest.raises(OutOfBounds):
            assign_responsible_cells(gt, 13, 416)


class TestResidualBlock:
    def test_hand_worked_identity_example(self):
        # 1x1x1 input [2.0] with unit 1x1 kernels and identity norms:
        # f = relu(relu(2)) = 2, output 2 + 2 = 4
        weights = ResidualBlockWeights(
            w_prime=np.ones((1, 1, 1, 1)),
            w=np.ones((1, 1, 1, 1)),
            bn1=BatchNormParams.identity(1),
            bn2=BatchNormParams.identity(1),
        )
        y = np.full((1, 1, 1), 2.0)
        out = residual_block_forward(y, weights)
        # identity batch-norm still divides by sqrt(1 + eps)
        expected = 2.0 + 2.0 / math.sqrt(1.0 + 1e-5) / math.sqrt(1.0 + 1e-5)
        assert out[0, 0, 0] == pytest.approx(expected, rel=1e-12)
        assert out[0, 0, 0] == pytest.approx(4.0, abs=1e-4)

    def test_zero_weights_bit_exact_identity(self):
        rng = np.random.default_rng(77)
        y = rng.normal(0.0, 3.0, size=(4, 6, 5))
        out = residual_block_forward(y, ResidualBlockWeights.zero(4, hidden=8, ksize=3))
        np.testing.assert_array_equal(out, y)
        assert out is not y

    def test_preserves_shape_with_3x3_kernels(self):
        rng = np.random.default_rng(78)
        weights = ResidualBlockWeights(
            w_prime=rng.normal(size=(2, 3, 1, 1)),
            w=rng.normal(size=(3, 2, 3, 3)),
            bn1=BatchNormParams.identity(3),
            bn2=BatchNormParams.identity(2),
        )
        y = rng.normal(size=(3, 8, 9))
        assert residual_block_forward(y, weights).shape == (3, 8, 9)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ShapeMismatch):
            ResidualBlockWeights(
                w_prime=np.zeros((2, 3, 1, 1)),
                w=np.zeros((3, 5, 1, 1)),  # expects 2 hidden channels
                bn1=BatchNormParams.identity(3),
                bn2=BatchNormParams.identity(2),
            )

    def test_even_kernel_rejected(self):
        with pytest.raises(ShapeMismatch):
            ResidualBlockWeights(
                w_prime=np.zeros((2, 2, 2, 2)),
                w=np.zeros((2, 2, 1, 1)),
                bn1=BatchNormParams.identity(2),
                bn2=BatchNormParams.identity(2),
            )

    def test_batch_norm_apply(self):
        bn = BatchNormParams(
            mean=np.array([1.0]), variance=np.array([4.0]),
            scale=np.array([2.0]), shift=np.array([0.5]),
        )
        x = np.array([[[3.0]]])
        want = (3.0 - 1.0) * 2.0 / math.sqrt(4.0 + 1e-5) + 0.5
        assert bn.apply(x)[0, 0, 0] == pytest.approx(want, rel=1e-12)
        assert not bn.is_identity()
        assert BatchNormParams.identity(3).is_identity()


def test_anchor_table_layout():
    assert len(DEFAULT_ANCHORS) == 3 * ANCHORS_PER_SCALE
    areas = [w * h for w, h in DEFAULT_ANCHORS]
    assert areas == sorted(areas)  # smallest priors first
