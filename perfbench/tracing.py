"""Per-layer spans and counts for one vceval CLI invocation.

``Tracer.install()`` wraps the public functions listed in ``TARGETS`` from
outside the package. ``cli`` binds several of them by name (``from .dataio
import read_tensor``) and holds the ``cmd_*`` handlers in a dispatch dict, so
every module global and every dict value in a ``vceval`` module that is the
original function is replaced, not only the defining module's attribute. A
target missing from the package is reported in ``absent`` instead of failing.

Spans (id, layer, start, end, parent) stay in memory until ``dump()``.
A layer's self time is its span's duration minus the time its wrapped child
spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time


def _kept(args, kwargs, result):
    return {"kept": int(result is not None)}


def _boxes(args, kwargs, result):
    return {"boxes": len(result)}


def _bytes(args, kwargs, result):
    return {"bytes": len(args[0])}


def _decode(args, kwargs, result):
    a, _, h, w = args[0].shape
    return {"cells": a * h * w, "candidates": len(result[1])}


def _nms(args, kwargs, result):
    return {"in": len(args[0]), "kept": len(result)}


def _dets_in(args, kwargs, result):
    return {"dets": len(args[0])}


def _dets_out(args, kwargs, result):
    return {"dets": len(result)}


def _matches(args, kwargs, result):
    counts = result[1].values()
    return {"tp": sum(c.tp for c in counts), "fp": sum(c.fp for c in counts),
            "fn": sum(c.fn for c in counts)}


def _pairs(args, kwargs, result):
    return {"pairs": int(result.size)}


def _curve_rows(args, kwargs, result):
    return {"rows": sum(len(c.points) for c in args[0].values())}


def _branch(args, kwargs, result):
    return {result.branch: 1}


# (module, function, layer, counter). Layer names drop the leading
# underscore of ``_kernels`` because metric names must start with a letter.
TARGETS = (
    ("vceval.tiler", "remap_to_tile", "tiler.remap_to_tile", _kept),
    ("vceval.dataio", "parse_label_file", "dataio.parse_label_file", _boxes),
    ("vceval.dataio", "write_label_file", "dataio.write_label_file", None),
    ("vceval.dataio", "read_tensor", "dataio.read_tensor", _bytes),
    ("vceval._kernels", "decode_grid", "kernels.decode_grid", _decode),
    ("vceval.netops", "decode_head", "netops.decode_head", None),
    ("vceval.boxes", "nms", "boxes.nms", None),
    ("vceval._kernels", "nms_keep", "kernels.nms_keep", _nms),
    ("vceval.dataio", "write_detection_file", "dataio.write_detection_file", _dets_in),
    ("vceval.dataio", "parse_detection_file", "dataio.parse_detection_file", _dets_out),
    ("vceval.metrics", "match_detections", "metrics.match_detections", _matches),
    ("vceval._kernels", "iou_matrix", "kernels.iou_matrix", _pairs),
    ("vceval.metrics", "evaluate", "metrics.evaluate", None),
    ("vceval.metrics", "write_pr_curve_csv", "metrics.write_pr_curve_csv", _curve_rows),
    ("vceval.stats", "load_observation_table", "stats.load_observation_table", None),
    ("vceval.stats", "shapiro_wilk", "stats.shapiro_wilk", None),
    ("vceval.stats", "one_way_anova", "stats.one_way_anova", None),
    ("vceval.stats", "tukey_hsd", "stats.tukey_hsd", None),
    ("vceval.stats", "kruskal_wallis", "stats.kruskal_wallis", None),
    ("vceval.stats", "dunn_test", "stats.dunn_test", None),
    ("vceval.stats", "compare_pipeline", "stats.compare_pipeline", _branch),
    ("vceval.distributions", "studentized_range_crit",
     "distributions.studentized_range_crit", None),
    ("vceval.distributions", "studentized_range_cdf",
     "distributions.studentized_range_cdf", None),
    ("vceval.cli", "cmd_tile", "cli.tile", None),
    ("vceval.cli", "cmd_split", "cli.split", None),
    ("vceval.cli", "cmd_decode", "cli.decode", None),
    ("vceval.cli", "cmd_eval", "cli.eval", None),
    ("vceval.cli", "cmd_compare", "cli.compare", None),
    ("vceval.cli", "cmd_report", "cli.report", None),
    ("vceval.cli", "_read_text", "cli._read_text", None),
    ("vceval.cli", "_write_text", "cli._write_text", None),
)

# Reported per-layer metrics: name -> (unit, better, end-to-end metric it
# should move, workload where its layer dominates).
_ALL = ("dense-lowscore", "study-3x5")
LAYER_METRICS = {
    "tiler.remap_to_tile.calls": ("count", "lower", "tile_s", _ALL),
    "tiler.remap_to_tile.s": ("s", "lower", "tile_s", _ALL),
    "tiler.remap_to_tile.kept": ("count", "higher", "tile_s", _ALL),
    "dataio.parse_label_file.s": ("s", "lower", "tile_s", _ALL),
    "dataio.parse_label_file.boxes": ("count", "higher", "tile_s", _ALL),
    "dataio.write_label_file.s": ("s", "lower", "tile_s", _ALL),
    "dataio.read_tensor.s": ("s", "lower", "decode_s", ("study-3x5",)),
    "dataio.read_tensor.bytes": ("bytes", "lower", "decode_s", ("study-3x5",)),
    "kernels.decode_grid.s": ("s", "lower", "decode_s", ("study-3x5",)),
    "kernels.decode_grid.cells": ("count", "lower", "decode_s", ("study-3x5",)),
    "kernels.decode_grid.candidates": ("count", "higher", "decode_s", ("study-3x5",)),
    "netops.decode_head.self_s": ("s", "lower", "decode_s", ("study-3x5",)),
    "boxes.nms.self_s": ("s", "lower", "decode_s", ("dense-lowscore",)),
    "kernels.nms_keep.s": ("s", "lower", "decode_s", ("dense-lowscore",)),
    "kernels.nms_keep.in": ("count", "lower", "decode_s", ("dense-lowscore",)),
    "kernels.nms_keep.kept": ("count", "higher", "decode_s", ("dense-lowscore",)),
    "dataio.write_detection_file.s": ("s", "lower", "decode_s", ("dense-lowscore",)),
    "dataio.write_detection_file.dets": ("count", "higher", "decode_s", ("dense-lowscore",)),
    "dataio.parse_detection_file.s": ("s", "lower", "eval_s", ("dense-lowscore",)),
    "dataio.parse_detection_file.dets": ("count", "higher", "eval_s", ("dense-lowscore",)),
    "metrics.match_detections.self_s": ("s", "lower", "eval_s", ("dense-lowscore",)),
    "metrics.match_detections.tp": ("count", "higher", "eval_s", ("dense-lowscore",)),
    "metrics.match_detections.fp": ("count", "lower", "eval_s", ("dense-lowscore",)),
    "metrics.match_detections.fn": ("count", "lower", "eval_s", ("dense-lowscore",)),
    "kernels.iou_matrix.s": ("s", "lower", "eval_s", ("dense-lowscore",)),
    "kernels.iou_matrix.calls": ("count", "lower", "eval_s", ("dense-lowscore", "study-3x5")),
    "kernels.iou_matrix.pairs": ("count", "lower", "eval_s", ("dense-lowscore",)),
    "metrics.evaluate.self_s": ("s", "lower", "eval_s", ("dense-lowscore",)),
    "metrics.write_pr_curve_csv.s": ("s", "lower", "eval_s", ("dense-lowscore",)),
    "metrics.write_pr_curve_csv.rows": ("count", "lower", "eval_s", ("dense-lowscore",)),
    "stats.load_observation_table.s": ("s", "lower", "compare_s", ("study-3x5",)),
    "stats.shapiro_wilk.s": ("s", "lower", "compare_s", ("study-3x5",)),
    "stats.shapiro_wilk.calls": ("count", "lower", "compare_s", ("study-3x5",)),
    "stats.one_way_anova.self_s": ("s", "lower", "compare_s", ("study-3x5",)),
    "stats.tukey_hsd.self_s": ("s", "lower", "compare_s", ("study-3x5",)),
    "stats.kruskal_wallis.self_s": ("s", "lower", "compare_s", ("study-3x5",)),
    "stats.dunn_test.self_s": ("s", "lower", "compare_s", ("study-3x5",)),
    "stats.compare_pipeline.parametric": ("count", "higher", "compare_s", ("study-3x5",)),
    "stats.compare_pipeline.nonparametric": ("count", "higher", "compare_s", ("study-3x5",)),
    "distributions.studentized_range_crit.calls": ("count", "lower", "compare_s", ("study-3x5",)),
    "distributions.studentized_range_crit.self_s": ("s", "lower", "compare_s", ("study-3x5",)),
    "distributions.studentized_range_cdf.calls": ("count", "lower", "compare_s", ("study-3x5",)),
    "distributions.studentized_range_cdf.s": ("s", "lower", "compare_s", ("study-3x5",)),
    **{f"cli.{stage}.self_s": ("s", "lower", f"{stage}_s" if stage in
                               ("tile", "decode", "eval", "compare") else "wall_s", _ALL)
       for stage in ("tile", "split", "decode", "eval", "compare", "report")},
    "cli._read_text.s": ("s", "lower", "wall_s", _ALL),
    "cli._write_text.s": ("s", "lower", "wall_s", _ALL),
    "cli._write_text.calls": ("count", "lower", "wall_s", _ALL),
    "trace.overhead_s": ("s", "lower", "wall_s", _ALL),
}


class Tracer:
    def __init__(self):
        self.layers: list[str] = []
        self.spans: list[tuple[int, int, float, float, int]] = []
        self.counts: dict[str, dict[str, int]] = {}
        self.absent: list[str] = []
        self.count_errors: set[str] = set()
        self._stack: list[int] = []
        self._next_id = 0

    def _wrap(self, fn, layer_idx: int, counter):
        layer = self.layers[layer_idx]
        counts = self.counts.setdefault(layer, {"calls": 0})
        spans, stack, perf = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                spans.append((span_id, layer_idx, start, end, parent))
            counts["calls"] += 1
            if counter is not None:
                try:
                    for key, n in counter(args, kwargs, result).items():
                        counts[key] = counts.get(key, 0) + n
                except Exception:  # a changed signature must not fail the run
                    self.count_errors.add(layer)
            return result

        return traced

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "vceval" or name.startswith("vceval."))]
        for module_name, attr, layer, counter in TARGETS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                self.absent.append(layer)
                continue
            self.layers.append(layer)
            wrapper = self._wrap(original, len(self.layers) - 1, counter)
            for module in modules:
                namespace = vars(module)
                for key, value in list(namespace.items()):
                    if value is original:
                        namespace[key] = wrapper
                    elif type(value) is dict:
                        for k, v in list(value.items()):
                            if v is original:
                                value[k] = wrapper

    def summary(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, counts, inclusive ``s`` and ``self_s``."""
        child_time: dict[int, float] = {}
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        out = {layer: {**self.counts[layer], "s": 0.0, "self_s": 0.0}
               for layer in self.layers}
        for span_id, layer_idx, start, end, _ in self.spans:
            stats = out[self.layers[layer_idx]]
            stats["s"] += end - start
            stats["self_s"] += end - start - child_time.get(span_id, 0.0)
        return out

    def dump(self, path: str, invocation: str) -> None:
        with open(path, "w") as fh:
            json.dump({"invocation": invocation, "layers": self.layers,
                       "fields": ["id", "layer", "start", "end", "parent"],
                       "spans": self.spans}, fh, separators=(",", ":"))
