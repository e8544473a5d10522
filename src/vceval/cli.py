"""Command-line harness: tile -> split -> decode -> eval -> compare -> report.

Every command resolves its configuration from defaults, an optional JSON
config file (--config or the VC_EVAL_CONFIG environment variable), and
per-flag overrides, in that order. File writes are whole-file atomic
(write to a temp file, then rename). Exit codes: 0 success, 2 malformed
or missing input data, 3 configuration violations.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import fcntl
import json
import math
import os
import sys
import tempfile
from typing import Optional, Sequence

import numpy as np

from . import __version__
from . import stats as statsmod
from .boxes import DetectionArrays, LabelArrays, nms
from .config import CONFIG_ENV_VAR, MAX_INPUT_SIZE, HarnessConfig, load_config
from .dataio import (
    AnnotatedImage,
    parse_detection_file,
    parse_label_file,
    read_image_manifest,
    read_tensor,
    split_dataset,
    write_detection_file,
    write_label_file,
)
from .errors import ConfigError, ShapeMismatch, VCEvalError
from .metrics import evaluate, write_metric_csv, write_pr_curve_csv
from .netops import AnchorBox, decode_head, grid_shape
from .tiler import (
    make_tile_id,
    plan_tiles,
    read_tile_manifest,
    remap_to_tile,
    write_tile_manifest,
)

SCALE_SUFFIXES = (".s0.vct", ".s1.vct", ".s2.vct")
OBSERVATION_HEADER = "run_id,metric,group,value"


def _write_text(path: str, content: str) -> None:
    """Write through a temp file of its own in the target directory, then
    rename it over ``path``; the file gets the usual umask-based mode."""
    directory, name = os.path.split(path)
    fd, tmp = tempfile.mkstemp(prefix=name + ".", suffix=".tmp", dir=directory or ".")
    try:
        with open(fd, "w", encoding="utf-8", newline="") as fh:
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError:
        raise VCEvalError(f"{path} is not UTF-8 text") from None


@contextlib.contextmanager
def _naming(path: str):
    """Name ``path`` in any data error raised inside the block; a
    configuration error passes unchanged."""
    try:
        yield
    except ConfigError:
        raise
    except VCEvalError as exc:
        raise VCEvalError(f"{path}: {exc}") from None


def _parse_file(path: str, parse):
    """parse(text of path), with the path named in a data error."""
    text = _read_text(path)
    with _naming(path):
        return parse(text)


def _echo_config(out_dir: str, config: HarnessConfig) -> None:
    _write_text(
        os.path.join(out_dir, "config_used.json"),
        json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n",
    )


def _class_label(config: HarnessConfig, class_id: int) -> str:
    if 0 <= class_id < len(config.class_names):
        return config.class_names[class_id]
    return str(class_id)


def cmd_tile(args: argparse.Namespace, config: HarnessConfig) -> int:
    tile_size = args.tile_size if args.tile_size is not None else config.input_size
    if tile_size <= 0 or tile_size % 32 != 0:
        raise ConfigError(f"tile size {tile_size} is not a positive multiple of 32")
    if tile_size > MAX_INPUT_SIZE:
        raise ConfigError(f"tile size {tile_size} is above the limit of {MAX_INPUT_SIZE}")
    images = _parse_file(args.manifest, read_image_manifest)
    layouts = []
    for entry in images:
        with _naming(f"{args.manifest}: image {entry.image_id}"):
            layouts.append(plan_tiles(entry.width, entry.height, tile_size, args.policy))
    os.makedirs(args.out_dir, exist_ok=True)
    manifest_rows = []
    total = kept = written = dropped = 0
    for entry, layout in zip(images, layouts):
        label_path = os.path.join(args.labels_dir, entry.image_id + ".txt")
        if os.path.exists(label_path):
            labels = _parse_file(
                label_path, lambda text: parse_label_file(text, entry.width, entry.height)
            )
        else:
            labels = LabelArrays.of(())
        found = np.zeros(len(labels), dtype=bool)
        for ref, rows in zip(layout.tiles(), layout.rows_by_tile(labels.xyxy)):
            tile_id = make_tile_id(entry.image_id, ref.row, ref.col)
            # the class column carries each row's position, so the kept rows are known
            local = remap_to_tile(
                LabelArrays(rows, labels.xywh[rows]), ref, tile_size, config.min_visibility
            )
            found[local.class_id] = True
            written += len(local)
            _write_text(
                os.path.join(args.out_dir, tile_id + ".txt"),
                write_label_file(
                    LabelArrays(labels.class_id[local.class_id], local.xywh), tile_size, tile_size
                ),
            )
            manifest_rows.append((tile_id, ref, tile_size))
        # a box that starts inside the grid overlaps some tile, so only its
        # visible fractions can have dropped it everywhere
        in_grid = ((labels.xyxy[:, 0] < layout.columns * tile_size)
                   & (labels.xyxy[:, 1] < layout.rows * tile_size))
        total += len(labels)
        kept += int(found.sum())
        dropped += int((in_grid & ~found).sum())
    _write_text(os.path.join(args.out_dir, "tiles.csv"), write_tile_manifest(manifest_rows))
    _echo_config(args.out_dir, dataclasses.replace(config, input_size=tile_size))
    print(
        f"tiled {len(images)} image(s) into {len(manifest_rows)} tile(s) "
        f"({tile_size}px, {args.policy}); kept {kept} of {total} annotation(s) in "
        f"{written} tile label(s), {dropped} dropped by min_visibility {config.min_visibility:g}"
    )
    return 0


def _manifest_ids(content: str) -> list[str]:
    if content.lstrip().startswith("tile_id"):
        return [tile_id for tile_id, _, _ in read_tile_manifest(content)]
    return [img.image_id for img in read_image_manifest(content)]


def cmd_split(args: argparse.Namespace, config: HarnessConfig) -> int:
    ids = _parse_file(args.manifest, _manifest_ids)
    if args.ratio_train <= 0 or args.ratio_test <= 0:
        raise ConfigError("split ratios must be positive")
    with _naming(args.manifest):
        split = split_dataset(ids, args.ratio_train, args.ratio_test, config.seed)
    os.makedirs(args.out_dir, exist_ok=True)
    _write_text(os.path.join(args.out_dir, "train.txt"), "".join(i + "\n" for i in split.train))
    _write_text(os.path.join(args.out_dir, "test.txt"), "".join(i + "\n" for i in split.test))
    _echo_config(args.out_dir, config)
    print(f"split {len(ids)} id(s) into {len(split.train)} train / {len(split.test)} test "
          f"(seed {config.seed})")
    return 0


def _decode_stems(tensors_dir: str) -> list[str]:
    stems = set()
    for name in os.listdir(tensors_dir):
        for suffix in SCALE_SUFFIXES:
            if name.endswith(suffix):
                stems.add(name[: -len(suffix)])
    return sorted(stems)


# The most candidates decode gathers from consecutive tiles for one NMS: enough
# to spread NMS's fixed set-up over many sparse tiles. A tile that would take
# a batch past it starts a new batch, since NMS time grows faster than its
# input: 40 dense tiles of about 1,100 candidates took 18 % longer in calls of
# two tiles than in one call per tile.
_NMS_BATCH = 1 << 11


def _write_detections(stems: list[str], heads: list[DetectionArrays], config: HarnessConfig,
                      out_dir: str) -> None:
    """Suppress within each tile by one NMS over a batch of tiles, and write
    each tile's ``.det.txt``. ``heads`` holds the decoded heads of ``stems``,
    one per scale, in stem order.

    Each tile's class ids are offset by its slot times the class count, so
    no box meets a box of another tile; the kept rows of one tile come out
    in that tile's own scan order, as an NMS of the tile alone gives them.
    """
    k = len(config.class_names)
    dets = DetectionArrays.concat(heads)
    slot = np.repeat(np.arange(len(heads)) // len(SCALE_SUFFIXES), [len(h) for h in heads])
    kept = nms(DetectionArrays(dets.score, dets.class_id + slot * k, dets.xywh),
               config.nms_iou_threshold)
    tile = kept.class_id // k
    rows = np.argsort(tile, kind="stable")
    ends = np.cumsum(np.bincount(tile, minlength=len(stems)))
    for stem, part in zip(stems, np.split(rows, ends[:-1])):
        local = DetectionArrays(kept.score[part], kept.class_id[part] % k, kept.xywh[part])
        _write_text(os.path.join(out_dir, stem + ".det.txt"), write_detection_file(local))


def cmd_decode(args: argparse.Namespace, config: HarnessConfig) -> int:
    grids = grid_shape(config.input_size)
    strides = (32, 16, 8)
    # coarsest grid (stride 32) takes the largest anchor triple
    anchor_sets = [[AnchorBox(w, h) for w, h in config.anchors[i:i + 3]] for i in (6, 3, 0)]
    stems = _decode_stems(args.tensors_dir)
    if not stems:
        raise VCEvalError(f"no .s0/.s1/.s2 .vct tensor files in {args.tensors_dir}")
    os.makedirs(args.out_dir, exist_ok=True)
    batch, heads, pending = [], [], 0
    for stem in stems:
        parts = []
        for scale_idx, suffix in enumerate(SCALE_SUFFIXES):
            path = os.path.join(args.tensors_dir, stem + suffix)
            try:
                with open(path, "rb") as fh:
                    data = fh.read()
            except FileNotFoundError:
                raise VCEvalError(f"{stem}: missing scale file {stem + suffix}") from None
            with _naming(path):
                tensor = read_tensor(data)
                side = grids[scale_idx]
                if tensor.height != side or tensor.width != side:
                    raise ShapeMismatch(
                        f"grid {tensor.height}x{tensor.width}, expected "
                        f"{side}x{side} for input size {config.input_size}"
                    )
                if tensor.num_classes != len(config.class_names):
                    raise ShapeMismatch(
                        f"{tensor.num_classes} classes in tensor, "
                        f"config names {len(config.class_names)}"
                    )
                parts.append(
                    decode_head(
                        tensor,
                        anchor_sets[scale_idx],
                        strides[scale_idx],
                        config.score_threshold,
                        objectness_threshold=config.objectness_threshold,
                    )
                )
        count = sum(map(len, parts))
        if batch and pending + count > _NMS_BATCH:
            _write_detections(batch, heads, config, args.out_dir)
            batch, heads, pending = [], [], 0
        batch.append(stem)
        heads.extend(parts)
        pending += count
    if batch:
        _write_detections(batch, heads, config, args.out_dir)
    _echo_config(args.out_dir, config)
    print(f"decoded {len(stems)} image(s) at input size {config.input_size}")
    return 0


def _paired_stems(detections_dir: str, labels_dir: str) -> list[str]:
    det_stems = {
        name[: -len(".det.txt")]
        for name in os.listdir(detections_dir)
        if name.endswith(".det.txt")
    }
    label_stems = {
        name[: -len(".txt")]
        for name in os.listdir(labels_dir)
        if name.endswith(".txt") and not name.endswith(".det.txt")
    }
    unpaired = det_stems ^ label_stems
    if unpaired:
        raise VCEvalError(
            "unpaired detection/label stems: " + ", ".join(sorted(unpaired)[:10])
        )
    if not det_stems:
        raise VCEvalError("no detection/label pairs found")
    return sorted(det_stems)


def _append_observations(path: str, rows: list[tuple[str, str, str, float]]) -> None:
    """Append rows under an exclusive flock on the observation file, so
    concurrent writers neither lose rows nor write the header twice."""
    while True:
        with open(path, "a", encoding="utf-8") as locked:  # creates, never truncates
            fcntl.flock(locked, fcntl.LOCK_EX)
            # a writer that held the lock may have renamed a new file over
            # the one locked here; lock that one instead
            if not os.path.samestat(os.fstat(locked.fileno()), os.stat(path)):
                continue
            existing = _read_text(path)
            if existing and not existing.startswith(OBSERVATION_HEADER):
                raise VCEvalError(f"{path} does not look like an observation file")
            lines = existing if existing else OBSERVATION_HEADER + "\n"
            if not lines.endswith("\n"):  # a last row without its newline
                lines += "\n"
            for run_id, metric, group, value in rows:
                lines += f"{run_id},{metric},{group},{value:.6f}\n"
            _write_text(path, lines)
            return


def _check_tile_size(labels_dir: str, input_size: int) -> None:
    """Refuse labels that a tile manifest says were cut at another size:
    eval scales them by the input size."""
    manifest = os.path.join(labels_dir, "tiles.csv")
    if not os.path.exists(manifest):
        return
    sizes = sorted({size for _, _, size in _parse_file(manifest, read_tile_manifest)})
    if sizes and sizes != [input_size]:
        hint = f"; pass --input-size {sizes[0]}" if len(sizes) == 1 else ""
        raise ConfigError(
            f"{manifest} records tile size {', '.join(map(str, sizes))} but eval "
            f"runs at input size {input_size}{hint}"
        )


def cmd_eval(args: argparse.Namespace, config: HarnessConfig) -> int:
    stems = _paired_stems(args.detections_dir, args.labels_dir)
    _check_tile_size(args.labels_dir, config.input_size)
    dets_by_image = {}
    gts_by_image = {}
    extent = config.input_size
    for stem in stems:
        dets_by_image[stem] = _parse_file(
            os.path.join(args.detections_dir, stem + ".det.txt"), parse_detection_file
        )
        gts_by_image[stem] = _parse_file(
            os.path.join(args.labels_dir, stem + ".txt"),
            lambda text: parse_label_file(text, extent, extent),
        )
    report = evaluate(dets_by_image, gts_by_image, config.eval_iou_threshold)
    os.makedirs(args.out_dir, exist_ok=True)
    group = args.group if args.group is not None else str(config.input_size)
    _write_text(
        os.path.join(args.out_dir, "metrics.csv"),
        write_metric_csv(report, args.run_id, config.input_size),
    )
    _write_text(os.path.join(args.out_dir, "pr_curves.csv"), write_pr_curve_csv(report.curves))
    obs_rows = [
        (args.run_id, "map30", group, report.mean_ap),
        (args.run_id, "f1max", group, report.f1_max),
    ]
    for class_id in sorted(report.per_class_ap):
        obs_rows.append(
            (
                args.run_id,
                f"ap30_{_class_label(config, class_id)}",
                group,
                report.per_class_ap[class_id],
            )
        )
    observations = args.observations or os.path.join(args.out_dir, "observations.csv")
    _append_observations(observations, obs_rows)
    _echo_config(args.out_dir, config)
    per_class = ", ".join(
        f"{_class_label(config, cid)}={ap:.4f}" for cid, ap in sorted(report.per_class_ap.items())
    )
    print(
        f"evaluated {len(stems)} image(s): mAP30 {report.mean_ap:.4f} "
        f"({per_class}); F1-max {report.f1_max:.4f} @ {report.f1_max_threshold:.3f}"
    )
    return 0


def cmd_compare(args: argparse.Namespace, config: HarnessConfig) -> int:
    text = _read_text(args.observations)
    with _naming(args.observations):
        report = statsmod.compare_pipeline(
            statsmod.load_observation_table(text, args.metric),
            alpha=config.alpha,
            normality_scope=config.normality_scope,
            posthoc=config.posthoc,
        )
    os.makedirs(args.out_dir, exist_ok=True)
    payload = statsmod.report_to_dict(report)
    payload["metric"] = args.metric
    payload["config"] = config.to_dict()
    _write_text(
        os.path.join(args.out_dir, f"comparison_{args.metric}.json"),
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
    )
    _write_text(
        os.path.join(args.out_dir, f"comparison_{args.metric}.csv"),
        statsmod.write_posthoc_csv(report),
    )
    sig = sum(1 for c in report.posthoc if c.significant_at_alpha)
    print(
        f"{args.metric}: {report.branch} branch, {report.omnibus.method} "
        f"p={report.omnibus.p_value:.4f}; {sig} of {len(report.posthoc)} pair(s) "
        f"significant at alpha={config.alpha}"
    )
    return 0


def _comparison_lines(content: str) -> list[str]:
    """Report lines for one comparison JSON as written by `compare`."""
    try:
        data = json.loads(content)
        omnibus = data["omnibus"]
        lines = [
            f"comparison {data.get('metric', '?')}: branch={data['branch']} "
            f"omnibus={omnibus['method']} p={omnibus['p_value']:.6f}"
        ]
        for c in data["posthoc"]:
            mark = "*" if c["significant_at_alpha"] else " "
            lines.append(
                f"  {mark} {c['level_a']} vs {c['level_b']}: diff={c['difference']:+.6f} "
                f"p={c['p_value']:.6f}"
            )
    except (ValueError, KeyError, TypeError, AttributeError, OverflowError) as exc:
        raise VCEvalError(
            f"not a comparison file written by compare ({type(exc).__name__}: {exc})"
        ) from None
    return lines


def cmd_report(args: argparse.Namespace, config: HarnessConfig) -> int:
    by_metric = _parse_file(args.observations, statsmod.parse_observations)
    lines = [f"observation summary ({args.observations})", ""]
    for metric in sorted(by_metric):
        lines.append(f"metric {metric}:")
        for group in sorted(by_metric[metric]):
            vals = by_metric[metric][group]
            mean = sum(vals) / len(vals)
            sd = math.sqrt(sum((v - mean) ** 2 for v in vals) / (len(vals) - 1)) if len(vals) > 1 else 0.0
            lines.append(f"  group {group}: n={len(vals)} mean={mean:.6f} sd={sd:.6f}")
        lines.append("")
    for path in args.comparisons or []:
        lines.extend(_parse_file(path, _comparison_lines))
        lines.append("")
    text = "\n".join(lines).rstrip() + "\n"
    if args.out:
        _write_text(args.out, text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


def _comma_list(value: str) -> tuple[str, ...]:
    return tuple(n.strip() for n in value.split(",") if n.strip())


def _add_override_flags(parser: argparse.ArgumentParser) -> None:
    """Flags whose ``dest`` is a HarnessConfig field override that field."""
    parser.add_argument("--config", help=f"JSON config path (default: ${CONFIG_ENV_VAR})")
    parser.add_argument("--input-size", type=int, dest="input_size")
    parser.add_argument("--score-threshold", type=float, dest="score_threshold")
    parser.add_argument("--objectness-threshold", type=float, dest="objectness_threshold")
    parser.add_argument("--nms-iou-threshold", type=float, dest="nms_iou_threshold")
    parser.add_argument("--eval-iou-threshold", type=float, dest="eval_iou_threshold")
    parser.add_argument("--min-visibility", type=float, dest="min_visibility")
    parser.add_argument("--alpha", type=float, dest="alpha")
    parser.add_argument("--class-names", dest="class_names", type=_comma_list,
                        help="comma-separated class names")
    parser.add_argument("--normality-scope", dest="normality_scope",
                        choices=["pooled", "per-group"])
    parser.add_argument("--posthoc", dest="posthoc",
                        choices=["always", "on-significant"])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vceval",
        description="Tiling, detector-head decoding, AP30/F1 scoring and "
                    "cross-scale statistical comparison for aerial detection runs.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tile", help="plan tiles and remap annotations")
    p.add_argument("--manifest", required=True, help="image manifest CSV")
    p.add_argument("--labels-dir", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--tile-size", type=int, default=None,
                   help="tile side in pixels (default: config input_size)")
    p.add_argument("--policy", choices=["pad-edge", "drop-partial"], default="pad-edge")
    _add_override_flags(p)

    p = sub.add_parser("split", help="seeded train/test split of manifest ids")
    p.add_argument("--manifest", required=True, help="image or tile manifest CSV")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--ratio-train", type=int, default=4)
    p.add_argument("--ratio-test", type=int, default=1)
    p.add_argument("--seed", type=int, default=None)
    _add_override_flags(p)

    p = sub.add_parser("decode", help="decode raw head tensors into detection files")
    p.add_argument("--tensors-dir", required=True)
    p.add_argument("--out-dir", required=True)
    _add_override_flags(p)

    p = sub.add_parser("eval", help="score detections against labels")
    p.add_argument("--detections-dir", required=True)
    p.add_argument("--labels-dir", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--run-id", required=True)
    p.add_argument("--group", default=None,
                   help="observation group label (default: input size)")
    p.add_argument("--observations", default=None,
                   help="observation CSV to append to (default: <out-dir>/observations.csv)")
    _add_override_flags(p)

    p = sub.add_parser("compare", help="normality-gated group comparison of a metric")
    p.add_argument("--observations", required=True)
    p.add_argument("--metric", required=True)
    p.add_argument("--out-dir", required=True)
    _add_override_flags(p)

    p = sub.add_parser("report", help="human-readable roll-up of observations")
    p.add_argument("--observations", required=True)
    p.add_argument("--comparisons", nargs="*", default=[],
                   help="comparison JSON files to include")
    p.add_argument("--out", default=None, help="output text path (default: stdout)")
    _add_override_flags(p)

    return parser


_COMMANDS = {
    "tile": cmd_tile,
    "split": cmd_split,
    "decode": cmd_decode,
    "eval": cmd_eval,
    "compare": cmd_compare,
    "report": cmd_report,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        fields = {f.name for f in dataclasses.fields(HarnessConfig)}
        overrides = {k: v for k, v in vars(args).items() if k in fields}
        config = load_config(args.config, overrides)
        return _COMMANDS[args.command](args, config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (VCEvalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
