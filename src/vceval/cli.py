"""Command-line harness: tile -> split -> decode -> eval -> compare -> report.

Every command resolves its configuration from defaults, an optional JSON
config file (--config or the VC_EVAL_CONFIG environment variable), and
per-flag overrides, in that order. File writes are whole-file atomic
(write to a temp file, then rename). Exit codes: 0 success, 2 malformed
or missing input data, 3 bad configuration or usage.
"""

from __future__ import annotations

import argparse
import contextlib
import fcntl
import json
import math
import os
import sys
import tempfile
from typing import Iterator, Optional, Sequence

import numpy as np

from . import __version__, _kernels
from . import stats as statsmod
from .boxes import DetectionArrays, LabelArrays, nms
from .config import CONFIG_ENV_VAR, HarnessConfig, load_config
from .dataio import (
    AnnotatedImage,
    parse_detection_texts,
    parse_label_file,
    parse_label_texts,
    read_csv_table,
    read_image_manifest,
    read_tensor,  # noqa: F401 -- unused, kept importable from cli for perfbench/tests
    read_tensor_view,
    split_dataset,
    write_csv_table,
    write_detection_file,
    write_label_file,
)
from .errors import ConfigError, NoCriticalValue, ShapeMismatch, VCEvalError
from .metrics import evaluate, write_metric_csv, write_pr_curve_csv
from .netops import ANCHORS_PER_SCALE, SCALES, decode_heads, grid_shape
from .tiler import (
    PAD_EDGE,
    PADDING_POLICIES,
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
    # a missing image label file means no annotations, a missing directory a typo
    if not os.path.isdir(args.labels_dir):
        raise VCEvalError(f"labels directory {args.labels_dir} is not a directory")
    tile_size = config.input_size
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
    _echo_config(args.out_dir, config)
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


def _read_stems(stems: list[str], paths_of, read) -> Iterator[tuple]:
    """(stem, paths, items, error) for each stem in turn: its paths,
    ``paths_of(stem)``, and ``read(path, k)`` of its k-th path, in order.
    When a read fails, the last tuple holds the items read before it and
    the error; otherwise the error is None."""
    for stem in stems:
        paths = paths_of(stem)
        items = []
        try:
            for k, path in enumerate(paths):
                items.append(read(path, k))
        except (VCEvalError, OSError) as exc:
            yield stem, paths, items, exc
            return
        yield stem, paths, items, None


def _gate_head(path: str, side: int, config: HarnessConfig, gate: np.float32) -> tuple:
    """Read one scale's ``.vct`` file, check it against the grid side and
    the class count, and gate its float32 objectness logits: the gated
    cells, widened to float64, with their anchor, row and column (see
    _kernels.gate_cells)."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        name = os.path.basename(path)  # <stem>.s<k>.vct
        raise VCEvalError(f"{name.rsplit('.', 2)[0]}: missing scale file {name}") from None
    with _naming(path):
        values = read_tensor_view(data)
        c, h, w = values.shape
        if h != side or w != side:
            raise ShapeMismatch(
                f"grid {h}x{w}, expected {side}x{side} for input size {config.input_size}"
            )
        num_classes = c // ANCHORS_PER_SCALE - 5
        if num_classes != len(config.class_names):
            raise ShapeMismatch(
                f"{num_classes} classes in tensor, config names {len(config.class_names)}"
            )
    return _kernels.gate_cells(values.reshape(ANCHORS_PER_SCALE, -1, h, w), gate)


def cmd_decode(args: argparse.Namespace, config: HarnessConfig) -> int:
    """Decode the stems in batches of consecutive stems (see
    _kernels.batched, sized by gated cells).

    One decode covers every gated cell of a batch, each cell with its own
    scale's anchors and stride. The first decoded box that breaks a rule is
    raised, naming its ``.vct`` file and its row in that head; then a failed
    read of the batch's last stem. Otherwise one NMS runs over the batch,
    each tile's class ids offset by its place in it so that boxes of two
    tiles never meet, and each tile's ``.det.txt`` is written. So after an
    error, every earlier batch's files exist and none of the failing one's.
    """
    grids = grid_shape(config.input_size)
    stems = _decode_stems(args.tensors_dir)
    if not stems:
        raise VCEvalError(f"no .s0/.s1/.s2 .vct tensor files in {args.tensors_dir}")
    os.makedirs(args.out_dir, exist_ok=True)
    # score <= objectness, so a cell whose objectness is below either
    # threshold fails; gate on the float32 logit before any widening
    gate = _kernels.logit_gate(max(config.score_threshold, config.objectness_threshold),
                               np.dtype(np.float32))
    anchors = np.array(config.anchors)[[range(first, first + ANCHORS_PER_SCALE)
                                        for _, first in SCALES]]  # (scale, anchor, 2)
    strides = np.array([stride for stride, _ in SCALES], dtype=np.float64)
    k = len(config.class_names)
    stem_heads = _read_stems(
        stems, lambda stem: [os.path.join(args.tensors_dir, stem + s) for s in SCALE_SUFFIXES],
        lambda path, i: _gate_head(path, grids[i], config, gate))
    for batch in _kernels.batched(stem_heads, lambda item: sum(len(h[0]) for h in item[2])):
        heads = [head for _, _, gated, _ in batch for head in gated]
        if not heads:  # the batch is one stem whose first read failed
            raise batch[-1][3]
        scale = np.arange(len(heads)) % len(SCALES)
        dets, head, fault = decode_heads(heads, anchors[scale], strides[scale],
                                         config.score_threshold, config.objectness_threshold)
        if fault:
            paths = [path for _, paths, gated, _ in batch for path in paths[:len(gated)]]
            with _naming(paths[fault[0]]):
                raise fault[1]
        if batch[-1][3]:
            raise batch[-1][3]
        dets.class_id += head // len(SCALES) * k
        dets = nms(dets, config.nms_iou_threshold)
        tile = dets.class_id // k
        rows = np.argsort(tile, kind="stable")  # each tile's rows in its own scan order
        ends = np.cumsum(np.bincount(tile, minlength=len(batch)))
        for (stem, _, _, _), part in zip(batch, np.split(rows, ends[:-1])):
            local = DetectionArrays(dets.score[part], dets.class_id[part] % k, dets.xywh[part])
            _write_text(os.path.join(args.out_dir, stem + ".det.txt"), write_detection_file(local))
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


def _append_observations(path: str, rows: list[tuple[str, str, str, float]],
                         write_first=None) -> None:
    """Append rows under an exclusive flock on the observation file, so
    concurrent writers neither lose rows nor write the header twice, and
    refuse a (run id, metric) pair that the file holds: no run counts twice.
    ``write_first()``, when given, runs under the lock once the rows are
    known to be new and before they are appended, so a refused run writes
    nothing and the rows follow the files they come from."""
    while True:
        with open(path, "a", encoding="utf-8") as locked:  # creates, never truncates
            fcntl.flock(locked, fcntl.LOCK_EX)
            # a writer that held the lock may have renamed a new file over
            # the one locked here; lock that one instead
            if not os.path.samestat(os.fstat(locked.fileno()), os.stat(path)):
                continue
            existing = _read_text(path)
            with _naming(path):
                _, header, old_rows = read_csv_table(existing, "observation file")
                if existing and header != OBSERVATION_HEADER.split(","):
                    raise VCEvalError("does not look like an observation file")
                # stripped, as stats.parse_observations reads them
                taken = {(row[0].strip(), row[1].strip()) for _, row in old_rows}
                for run_id, metric, _, _ in rows:
                    if (run_id.strip(), metric) in taken:
                        raise VCEvalError(f"run id {run_id!r} already has a {metric} row")
            if write_first:
                write_first()
            lines = existing if existing else OBSERVATION_HEADER + "\n"
            if not lines.endswith("\n"):  # a last row without its newline
                lines += "\n"
            _write_text(path, lines + write_csv_table(
                (run_id, metric, group, f"{value:.6f}") for run_id, metric, group, value in rows))
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


def _read_eval_inputs(args: argparse.Namespace, stems: list[str], extent: int) -> tuple[dict, dict]:
    """The detections and the labels of each stem, by stem.

    The files are read in the order of a stem-by-stem parse, each stem's
    ``.det.txt`` before its label file, and parsed a batch of consecutive
    stems at a time (see _kernels.batched, sized by detection lines): one
    pass over the batch's detection texts, one over its label texts. The
    first error is the one the stem-by-stem parse meets first; a file that
    cannot be read is reported once the files read before it have parsed.
    """
    dets_by_image, gts_by_image = {}, {}
    items = _read_stems(stems, lambda stem: (os.path.join(args.detections_dir, stem + ".det.txt"),
                                             os.path.join(args.labels_dir, stem + ".txt")),
                        lambda path, _: _read_text(path))
    for batch in _kernels.batched(items, lambda item: item[2][0].count("\n") if item[2] else 0):
        dets, det_fault = parse_detection_texts([texts[0] for _, _, texts, _ in batch if texts])
        labels, label_fault = parse_label_texts(
            [texts[1] for _, _, texts, _ in batch if len(texts) == 2], extent, extent)
        # (stem, file) of each fault: a stem's detections come before its labels
        faults = [(fault[0], kind, fault[1])
                  for kind, fault in enumerate((det_fault, label_fault)) if fault]
        if faults:
            k, kind, error = min(faults, key=lambda f: f[:2])
            with _naming(batch[k][1][kind]):
                raise error
        if batch[-1][3]:
            raise batch[-1][3]
        stems_read = [stem for stem, _, _, _ in batch]
        dets_by_image.update(zip(stems_read, dets))
        gts_by_image.update(zip(stems_read, labels))
    return dets_by_image, gts_by_image


def cmd_eval(args: argparse.Namespace, config: HarnessConfig) -> int:
    stems = _paired_stems(args.detections_dir, args.labels_dir)
    _check_tile_size(args.labels_dir, config.input_size)
    dets_by_image, gts_by_image = _read_eval_inputs(args, stems, config.input_size)
    report = evaluate(dets_by_image, gts_by_image, config.eval_iou_threshold)
    os.makedirs(args.out_dir, exist_ok=True)
    group = args.group if args.group is not None else str(config.input_size)

    def write_run_files():
        _write_text(
            os.path.join(args.out_dir, "metrics.csv"),
            write_metric_csv(report, args.run_id, config.input_size),
        )
        _write_text(os.path.join(args.out_dir, "pr_curves.csv"), write_pr_curve_csv(report.curves))
        _echo_config(args.out_dir, config)

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
    _append_observations(observations, obs_rows, write_run_files)
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
        table = statsmod.load_observation_table(text, args.metric)
        try:
            report = statsmod.compare_pipeline(
                table,
                alpha=config.alpha,
                normality_scope=config.normality_scope,
                posthoc=config.posthoc,
            )
        except NoCriticalValue as exc:
            raise VCEvalError(f"metric {args.metric}: {exc}") from None
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


def _file_name_part(value: str) -> str:
    """A metric name, part of the comparison files' names: no / or NUL."""
    if "/" in value or "\0" in value:
        raise argparse.ArgumentTypeError("must not hold / or NUL")
    return value


def _one_line(value: str) -> str:
    """An observation field: no line break, as csv would not quote a bare CR."""
    if "\n" in value or "\r" in value:
        raise argparse.ArgumentTypeError("must not hold a line break")
    return value


# The argparse keywords of the override flag of each config field, named
# --<field> with dashes; HarnessConfig checks each value, whichever way it came.
_OVERRIDE_FLAGS = {
    **dict.fromkeys(("input_size", "seed"), {"type": int}),
    **dict.fromkeys(("score_threshold", "objectness_threshold", "nms_iou_threshold",
                     "eval_iou_threshold", "min_visibility", "alpha"), {"type": float}),
    "class_names": {"type": _comma_list, "help": "comma-separated class names"},
    "normality_scope": {"choices": statsmod.NORMALITY_SCOPES},
    "posthoc": {"choices": statsmod.POSTHOC_MODES},
}


def _add_overrides(parser: argparse.ArgumentParser, *fields: str) -> None:
    """--config, and the override flag of each config field the command reads."""
    parser.add_argument("--config", help=f"JSON config path (default: ${CONFIG_ENV_VAR})")
    for field in fields:
        parser.add_argument("--" + field.replace("_", "-"), **_OVERRIDE_FLAGS[field])


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of every command or, given ``command``, one that holds
    only that command's subparser and parses its command lines as the
    whole parser does, with the same help, usage and error output."""
    parser = argparse.ArgumentParser(
        prog="vceval",
        description="Tiling, detector-head decoding, AP30/F1 scoring and "
                    "cross-scale statistical comparison for aerial detection runs.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    # the metavar keeps every command in the usage line of an error
    metavar = {"metavar": "{" + ",".join(_COMMANDS) + "}"} if command else {}
    sub = parser.add_subparsers(dest="command", required=True, **metavar)

    if command in (None, "tile"):
        p = sub.add_parser("tile", help="plan tiles and remap annotations")
        p.add_argument("--manifest", required=True, help="image manifest CSV")
        p.add_argument("--labels-dir", required=True)
        p.add_argument("--out-dir", required=True)
        p.add_argument("--tile-size", type=int, dest="input_size", metavar="TILE_SIZE",
                       help="tile side in pixels (default: config input_size)")
        p.add_argument("--policy", choices=PADDING_POLICIES, default=PAD_EDGE)
        _add_overrides(p, "min_visibility")

    if command in (None, "split"):
        p = sub.add_parser("split", help="seeded train/test split of manifest ids")
        p.add_argument("--manifest", required=True, help="image or tile manifest CSV")
        p.add_argument("--out-dir", required=True)
        p.add_argument("--ratio-train", type=int, default=4)
        p.add_argument("--ratio-test", type=int, default=1)
        _add_overrides(p, "seed")

    if command in (None, "decode"):
        p = sub.add_parser("decode", help="decode raw head tensors into detection files")
        p.add_argument("--tensors-dir", required=True)
        p.add_argument("--out-dir", required=True)
        _add_overrides(p, "input_size", "score_threshold", "objectness_threshold",
                       "nms_iou_threshold", "class_names")

    if command in (None, "eval"):
        p = sub.add_parser("eval", help="score detections against labels")
        p.add_argument("--detections-dir", required=True)
        p.add_argument("--labels-dir", required=True)
        p.add_argument("--out-dir", required=True)
        p.add_argument("--run-id", required=True, type=_one_line)
        p.add_argument("--group", default=None, type=_one_line,
                       help="observation group label (default: input size)")
        p.add_argument("--observations", default=None,
                       help="observation CSV to append to (default: <out-dir>/observations.csv)")
        _add_overrides(p, "input_size", "eval_iou_threshold", "class_names")

    if command in (None, "compare"):
        p = sub.add_parser("compare", help="normality-gated group comparison of a metric")
        p.add_argument("--observations", required=True)
        p.add_argument("--metric", required=True, type=_file_name_part)
        p.add_argument("--out-dir", required=True)
        _add_overrides(p, "alpha", "normality_scope", "posthoc")

    if command in (None, "report"):
        p = sub.add_parser("report", help="human-readable roll-up of observations")
        p.add_argument("--observations", required=True)
        p.add_argument("--comparisons", nargs="*", default=[],
                       help="comparison JSON files to include")
        p.add_argument("--out", default=None, help="output text path (default: stdout)")
        _add_overrides(p)

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
    argv = sys.argv[1:] if argv is None else list(argv)
    # a command line that starts with a command needs only its subparser
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    try:
        args = build_parser(command).parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, a code kept here for bad data
        return 3 if exc.code == 2 else exc.code
    try:
        overrides = {k: v for k, v in vars(args).items() if k in _OVERRIDE_FLAGS}
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
