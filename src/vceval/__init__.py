"""Detection-evaluation harness: tiling, head decoding, AP30/F1 scoring,
and cross-scale statistical comparison."""

__version__ = "0.1.0"

from .boxes import BoundingBox, Detection, GroundTruthBox, clip_to, iou, nms
from .config import CONFIG_ENV_VAR, HarnessConfig, load_config
from .dataio import (
    AnnotatedImage,
    DatasetSplit,
    parse_detection_file,
    parse_label_file,
    read_image_manifest,
    read_tensor,
    split_dataset,
    write_detection_file,
    write_image_manifest,
    write_label_file,
    write_tensor,
)
from .metrics import (
    DetectionFlag,
    MatchCounts,
    MetricReport,
    PRCurve,
    PRPoint,
    average_precision,
    evaluate,
    f1,
    f1_max,
    match_detections,
    mean_average_precision,
    pr_curve,
    precision,
    recall,
)
from .netops import (
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
from .stats import (
    ComparisonReport,
    EffectsDecomposition,
    ObservationTable,
    PairwiseComparison,
    TestResult,
    compare_pipeline,
    dunn_test,
    fit_effects,
    kruskal_wallis,
    load_observation_table,
    one_way_anova,
    shapiro_wilk,
    tukey_hsd,
)
from .tiler import (
    TileLayout,
    TileRef,
    plan_tiles,
    remap_to_tile,
    tile_to_global,
)

__all__ = [name for name in dir() if not name.startswith("_")]
