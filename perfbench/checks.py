"""Output checks for each CLI stage of a benchmark pass.

Each check reads the files a stage wrote and returns a list of problems
(empty when the output is right). Expected values come from the generator's
``Plan``; the comparison statistics are recomputed with scipy.
"""

from __future__ import annotations

import csv
import glob
import json
import math
import os

from scipy import stats as sps

from generate import ALPHA, CLASS_NAMES, DetectorRun

TOLERANCE = 1e-6


def _lines(path: str) -> list[str]:
    with open(path) as fh:
        return [line for line in fh.read().splitlines() if line.strip()]


def tile(out_dir: str, n_tiles: int, n_objects: int) -> list[str]:
    problems = []
    rows = _lines(os.path.join(out_dir, "tiles.csv"))[1:]
    if len(rows) != n_tiles:
        problems.append(f"tile: {len(rows)} tiles in manifest, expected {n_tiles}")
    labels = sum(len(_lines(os.path.join(out_dir, r.split(",")[0] + ".txt"))) for r in rows)
    if labels != n_objects:
        problems.append(f"tile: {labels} tile labels kept, expected {n_objects}")
    return problems


def split(out_dir: str, n_ids: int) -> list[str]:
    train = _lines(os.path.join(out_dir, "train.txt"))
    test = _lines(os.path.join(out_dir, "test.txt"))
    if set(train) & set(test) or len(train) + len(test) != n_ids:
        return [f"split: {len(train)} train + {len(test)} test ids do not partition {n_ids}"]
    if len(test) != int(n_ids / 5 + 0.5):
        return [f"split: {len(test)} test ids, expected {int(n_ids / 5 + 0.5)} at 4:1"]
    return []


def _lines_per_class(det_dir: str) -> dict[int, int]:
    per_class: dict[int, int] = {}
    for path in glob.glob(os.path.join(det_dir, "*.det.txt")):
        for line in _lines(path):
            if not line.startswith("#"):
                c = int(line.split()[0])
                per_class[c] = per_class.get(c, 0) + 1
    return per_class


def decode(out_dir: str, run: DetectorRun, n_tiles: int) -> list[str]:
    problems = []
    files = glob.glob(os.path.join(out_dir, "*.det.txt"))
    if len(files) != n_tiles:
        problems.append(f"decode: {len(files)} detection files, expected {n_tiles}")
    lines = sum(_lines_per_class(out_dir).values())
    expected = run.expect.lines
    if expected is not None and lines != expected:
        problems.append(f"decode {run.run_id}: {lines} detections, expected {expected}")
    if expected is None and lines < sum(run.expect.tp.values()):
        problems.append(f"decode {run.run_id}: {lines} detections, fewer than the planted hits")
    return problems


def eval_(eval_dir: str, det_dir: str, observations: str, run: DetectorRun) -> list[str]:
    exp = run.expect
    fp = exp.fp
    if fp is None:
        per_class = _lines_per_class(det_dir)
        fp = {c: per_class.get(c, 0) - exp.tp[c] for c in exp.tp}
    problems = []
    with open(os.path.join(eval_dir, "metrics.csv")) as fh:
        got = {int(r["class"]): r for r in csv.DictReader(fh)}
    for c in exp.tp:
        want = (exp.tp[c], fp[c], exp.fn[c])
        row = got.get(c)
        have = (int(row["tp"]), int(row["fp"]), int(row["fn"])) if row else None
        if have != want:
            problems.append(f"eval {run.run_id} class {c}: tp/fp/fn {have}, expected {want}")
    with open(observations) as fh:
        rows = {r["metric"]: float(r["value"]) for r in csv.DictReader(fh)
                if r["run_id"] == run.run_id}
    for metric, value in exp.observations.items():
        if metric not in rows or abs(rows[metric] - value) > TOLERANCE:
            problems.append(f"eval {run.run_id}: {metric} = {rows.get(metric)}, "
                            f"constructed {value:.9f}")
    return problems


def compare(observations: str, out_dir: str, metric: str, branch: str) -> list[str]:
    """The branch taken and the omnibus statistic must match scipy on the
    same observations, and the branch must be the one fixed by construction."""
    groups: dict[str, list[float]] = {}
    with open(observations) as fh:
        for r in csv.DictReader(fh):
            if r["metric"] == metric:
                groups.setdefault(r["group"], []).append(float(r["value"]))
    samples = list(groups.values())
    pooled = [v for g in samples for v in g]
    normal = sps.shapiro(pooled).pvalue >= ALPHA
    if normal:
        omnibus = sps.f_oneway(*samples)
    else:
        omnibus = sps.kruskal(*samples)
    with open(os.path.join(out_dir, f"comparison_{metric}.json")) as fh:
        got = json.load(fh)
    problems = []
    scipy_branch = "parametric" if normal else "nonparametric"
    if not got["branch"] == scipy_branch == branch:
        problems.append(f"compare {metric}: branch {got['branch']}, scipy {scipy_branch}, "
                        f"constructed {branch}")
    stat, p = got["omnibus"]["statistic"], got["omnibus"]["p_value"]
    if not math.isclose(stat, omnibus.statistic, rel_tol=TOLERANCE):
        problems.append(f"compare {metric}: statistic {stat!r}, scipy {omnibus.statistic!r}")
    if abs(p - omnibus.pvalue) > TOLERANCE:
        problems.append(f"compare {metric}: p {p!r}, scipy {omnibus.pvalue!r}")
    return problems


def report(path: str, metrics: list[str]) -> list[str]:
    with open(path) as fh:
        text = fh.read()
    missing = [m for m in metrics if f"comparison {m}: branch=" not in text]
    summary = [m for m in ("map30", "f1max") + tuple(f"ap30_{n}" for n in CLASS_NAMES)
               if f"metric {m}:" not in text]
    return [f"report: no section for {m}" for m in missing + summary]
