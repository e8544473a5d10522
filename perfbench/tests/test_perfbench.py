"""Tests of the benchmark itself.

Run from the repository root (takes a few minutes, it drives the real CLI):

    python3 -m pytest perfbench/tests -q

Everything is written under ``.bench_build/perfbench/tests`` in the checkout.
"""

import glob
import hashlib
import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import generate  # noqa: E402
import run  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402


@pytest.fixture
def work():
    path = os.path.join(run.WORK, "tests")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _digest(root: str) -> dict[str, str]:
    out = {}
    for path in sorted(glob.glob(os.path.join(root, "**", "*"), recursive=True)):
        if os.path.isfile(path):
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return out


@pytest.mark.parametrize("workload", generate.WORKLOADS)
def test_generator_same_seed_same_bytes(work, workload):
    generate.generate(workload, 5, os.path.join(work, "a"))
    first = _digest(os.path.join(work, "a"))
    shutil.rmtree(os.path.join(work, "a"))
    generate.generate(workload, 5, os.path.join(work, "a"))
    assert _digest(os.path.join(work, "a")) == first
    shutil.rmtree(os.path.join(work, "a"))
    generate.generate(workload, 6, os.path.join(work, "a"))
    other = _digest(os.path.join(work, "a"))
    assert other.keys() == first.keys()
    assert other != first


def _stage(stages, name):
    return next((argv, check) for stage, argv, check in stages if stage == name)


def test_eval_check_flags_a_deleted_hit(work):
    plan = generate.generate("dense-lowscore", 2, os.path.join(work, "inputs"))
    pass_dir = os.path.join(work, "pass")
    os.makedirs(pass_dir)
    shutil.copyfile(plan.history, os.path.join(pass_dir, "observations.csv"))
    stages = run._stages(plan, pass_dir)
    server = run.StageServer(os.path.join(work, "server.log"))
    try:
        for name in ("tile", "decode", "eval"):
            argv, check = _stage(stages, name)
            record = run.invoke(server, name, argv, os.path.join(work, f"{name}.json"), False)
            assert record["problems"] == []
            assert check() == []
        _drop_best_line(argv[argv.index("--detections-dir") + 1])
        record = run.invoke(server, "eval", argv, os.path.join(work, "eval2.json"), False)
    finally:
        server.stop()
    assert record["problems"] == []
    problems = check()
    assert any("tp/fp/fn" in p for p in problems)
    assert any("map30" in p for p in problems)


def _drop_best_line(det_dir):
    """Drop the best-scoring line of one tile: a planted hit, as every
    background response scores below the lowest planted one."""
    best = {}
    for path in glob.glob(os.path.join(det_dir, "*.det.txt")):
        with open(path) as fh:
            lines = fh.read().splitlines()
        best[path] = max(lines, key=lambda line: float(line.split()[1]))
    path = max(best, key=lambda p: float(best[p].split()[1]))
    with open(path) as fh:
        lines = fh.read().splitlines()
    lines.remove(best[path])
    with open(path, "w") as fh:
        fh.write("".join(line + "\n" for line in lines))


def _paired_metrics(workload: str) -> list[str]:
    return [name for name, (unit, _, _, on) in LAYER_METRICS.items()
            if workload in on and name != "trace.overhead_s"]


def test_traced_counts_repeat_for_one_seed():
    first, _ = run.run("dense-lowscore", 3, 0, trace=True)
    second, details = run.run("dense-lowscore", 3, 0, trace=True)
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == set(LAYER_METRICS)
    counts = [n for n, (unit, _, _, _) in LAYER_METRICS.items() if unit != "s"]
    assert {n: first["metrics"][n] for n in counts} == {n: second["metrics"][n] for n in counts}
    assert all(first["metrics"][n]["value"] > 0 for n in _paired_metrics("dense-lowscore"))
    assert details["absent_layers"] == []


def test_traced_layers_nonzero_where_they_dominate():
    line, details = run.run("study-3x5", 4, 0, trace=True)
    assert line["correct"]
    zero = [n for n in _paired_metrics("study-3x5") if not line["metrics"][n]["value"] > 0]
    assert zero == []
    assert details["absent_layers"] == []


def test_tracer_patches_every_binding_and_reports_absent_names():
    code = f"""
import sys
sys.path[:0] = [{run.SRC!r}, {run.HERE!r}]
import vceval.cli, vceval.dataio, vceval.tiler
del vceval.tiler.remap_to_tile
from tracing import Tracer
tracer = Tracer()
tracer.install()
assert tracer.absent == ["tiler.remap_to_tile"], tracer.absent
assert vceval.cli.read_tensor is vceval.dataio.read_tensor
assert hasattr(vceval.dataio.read_tensor, "__wrapped__")
assert vceval.cli._COMMANDS["decode"] is vceval.cli.cmd_decode
assert hasattr(vceval.cli.cmd_decode, "__wrapped__")
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(generate.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (name, unit, better) for name, (unit, better, _, _) in LAYER_METRICS.items()]


def test_refuses_to_run_without_sources(work):
    bare = os.path.join(work, "bare")
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copyfile(os.path.join(run.ROOT, "BENCHMARK.json"), os.path.join(bare, "BENCHMARK.json"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "study-3x5",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
