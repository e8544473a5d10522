"""vceval benchmark: seeded workloads driven through the real CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload dense-lowscore --seed 1 --seconds 60 --trace 0

Each pass runs every stage of the workload as its own ``vceval`` process,
one at a time, as a user running the commands would; per-process caches
therefore start cold. The processes are forked from a ``stage.py serve``
process that has only imported ``vceval.cli``, so a pass does not pay an
interpreter start and import per stage, and ``stage.py`` times each command
inside its process, around ``vceval.cli.main``. The import a user pays on
every command is timed apart, in a fresh interpreter once per pass. Passes
repeat while the next one is likely to end within ``--seconds``; every
stage output is checked against the outcome the generator fixed by
construction.

``--trace 0`` reports the end-to-end metrics: medians over passes of the
summed stage seconds, and the median of the per-pass import times.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones plus the tracing overhead
(``trace.overhead_s``, traced minus untraced ``wall_s``).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Provenance, per-pass figures and
the failure list go to ``.bench_build/perfbench/<run>/result.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Optional

import checks
from generate import WORKLOADS, Plan, generate
from tracing import LAYER_METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
STAGE = os.path.join(HERE, "stage.py")
STAGE_TIMEOUT_S = 150
TIMED_STAGES = ("tile", "decode", "eval", "compare")
END_TO_END = {"setup_s": "s", **{f"{s}_s": "s" for s in TIMED_STAGES},
              "wall_s": "s", "peak_rss_mb": "MB"}


def _stages(plan: Plan, d: str) -> list[tuple[str, list[str], object]]:
    """(stage, vceval argv, output check) for one pass, in order."""
    inputs = plan.inputs
    obs = os.path.join(d, "observations.csv")
    out = []
    for size in sorted(plan.tiles):
        tiles = os.path.join(d, f"tiles{size}")
        out.append(("tile", ["tile", "--manifest", os.path.join(inputs, "images.csv"),
                             "--labels-dir", os.path.join(inputs, "labels"),
                             "--out-dir", tiles, "--tile-size", str(size)],
                    lambda tiles=tiles, n=plan.tiles[size]: checks.tile(tiles, n, plan.objects)))
    split_size = 416
    splits = os.path.join(d, "splits")
    out.append(("split", ["split", "--manifest", os.path.join(d, f"tiles{split_size}", "tiles.csv"),
                          "--out-dir", splits, "--ratio-train", "4", "--ratio-test", "1",
                          "--seed", "7"],
                lambda: checks.split(splits, plan.tiles[split_size])))
    for run in plan.runs:
        size = str(run.size)
        dets = os.path.join(d, f"dets-{run.run_id}")
        scored = os.path.join(d, f"eval-{run.run_id}")
        out.append(("decode", ["decode", "--tensors-dir", run.tensors_dir, "--out-dir", dets,
                               "--input-size", size, *plan.decode_flags],
                    lambda dets=dets, run=run: checks.decode(dets, run, plan.tiles[run.size])))
        out.append(("eval", ["eval", "--detections-dir", dets,
                             "--labels-dir", os.path.join(d, f"tiles{size}"),
                             "--out-dir", scored, "--run-id", run.run_id,
                             "--observations", obs, "--input-size", size],
                    lambda scored=scored, dets=dets, run=run: checks.eval_(scored, dets, obs, run)))
    cmp_dir = os.path.join(d, "compare")
    for metric, branch in plan.compares:
        out.append(("compare", ["compare", "--observations", obs, "--metric", metric,
                                "--out-dir", cmp_dir],
                    lambda metric=metric, branch=branch: checks.compare(obs, cmp_dir, metric, branch)))
    report = os.path.join(d, "report.txt")
    comparisons = [os.path.join(cmp_dir, f"comparison_{m}.json") for m, _ in plan.compares]
    out.append(("report", ["report", "--observations", obs, "--comparisons", *comparisons,
                           "--out", report],
                lambda: checks.report(report, [m for m, _ in plan.compares])))
    return out


def _child_env() -> dict[str, str]:
    # a user's VC_EVAL_CONFIG or kernel override would change what runs
    return {k: v for k, v in os.environ.items() if not k.startswith("VC_EVAL_")}


class StageServer:
    """One ``stage.py serve`` process, which forks a cold ``vceval`` process
    per command. Killed, and started anew on the next command, when a
    command hangs."""

    def __init__(self, log_path: str):
        self.log_path = log_path
        self.proc: Optional[subprocess.Popen] = None

    def run(self, record_path: str, traced: bool, argv: list[str]) -> Optional[int]:
        """Exit code of the command; None when it hung or the server died."""
        if self.proc is None:
            with open(self.log_path, "a") as log:
                self.proc = subprocess.Popen(
                    [sys.executable, STAGE, "serve", SRC], cwd=ROOT, env=_child_env(),
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=log, text=True,
                    start_new_session=True)
        request = {"record": record_path, "trace": int(traced), "argv": argv}
        try:
            self.proc.stdin.write(json.dumps(request) + "\n")
            self.proc.stdin.flush()
            ready, _, _ = select.select([self.proc.stdout], [], [], STAGE_TIMEOUT_S)
            line = self.proc.stdout.readline() if ready else ""
        except OSError:
            line = ""
        if not line:
            self.stop(kill=True)
            return None
        return json.loads(line)["status"]

    def stop(self, kill: bool = False) -> None:
        """End the server and any command it runs, and wait for them."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        if not kill:
            try:
                proc.stdin.close()
                proc.wait(timeout=STAGE_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired):
                kill = True
        if kill:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        for pipe in (proc.stdin, proc.stdout):
            try:
                pipe.close()
            except OSError:
                pass


def invoke(server: StageServer, stage: str, argv: list[str], record_path: str,
           traced: bool) -> dict:
    """Run one vceval command; its record plus ``problems`` when it did not
    exit 0."""
    code = server.run(record_path, traced, argv)
    if code is None:
        return {"stage": stage, "problems": [f"{stage}: no exit within {STAGE_TIMEOUT_S} s"]}
    try:
        with open(record_path) as fh:
            record = json.load(fh)
    except (OSError, ValueError):
        record = {"rc": code}
    record["stage"] = stage
    record["problems"] = []
    if code != 0 or record["rc"] != 0:
        try:
            with open(record_path[: -len(".json")] + ".log") as fh:
                tail = fh.read().strip().splitlines()[-1:]
        except OSError:
            tail = []
        record["problems"] = [f"{stage}: exit {record['rc']} {tail}"]
    return record


def measure_setup() -> dict:
    """Record of a fresh interpreter importing vceval.cli and numpy."""
    record = {"stage": "setup", "problems": []}
    try:
        proc = subprocess.run([sys.executable, STAGE, "setup", SRC], cwd=ROOT,
                              env=_child_env(), capture_output=True, text=True,
                              timeout=STAGE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        record["problems"] = [f"setup: no exit within {STAGE_TIMEOUT_S} s"]
    else:
        if proc.returncode == 0:
            record["setup_s"] = json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
        else:
            tail = proc.stderr.strip().splitlines()[-1:]
            record["problems"] = [f"setup: exit {proc.returncode} {tail}"]
    record["ok"] = not record["problems"]
    return record


def run_pass(server: StageServer, plan: Plan, pass_dir: str, records_dir: str,
             traced: bool) -> list[dict]:
    """Run and check every stage of one pass; one record per invocation."""
    shutil.rmtree(pass_dir, ignore_errors=True)
    os.makedirs(pass_dir)
    os.makedirs(records_dir, exist_ok=True)
    if plan.history:
        shutil.copyfile(plan.history, os.path.join(pass_dir, "observations.csv"))
    records = []
    for i, (stage, argv, check) in enumerate(_stages(plan, pass_dir)):
        record = invoke(server, stage, argv,
                        os.path.join(records_dir, f"{i:02d}-{stage}.json"), traced)
        if not record["problems"]:
            try:
                record["problems"] = check()
            except (OSError, ValueError, KeyError, TypeError) as exc:
                record["problems"] = [f"{stage}: output unreadable: {exc!r}"]
        record["ok"] = not record["problems"]
        records.append(record)
    return records


def _pass_figures(records: list[dict]) -> dict[str, float]:
    timed = [r for r in records if "stage_s" in r]
    out = {f"{s}_s": sum(r["stage_s"] for r in timed if r["stage"] == s) for s in TIMED_STAGES}
    out["wall_s"] = sum(r["stage_s"] for r in timed)
    out["peak_rss_mb"] = max((r["peak_rss_mb"] for r in timed), default=0.0)
    return out


def _layer_figures(records: list[dict]) -> tuple[dict[str, float], set[str]]:
    totals: dict[str, float] = {}
    absent: set[str] = set()
    for r in records:
        absent.update(r.get("absent", ()))
        for layer, stats in r.get("layers", {}).items():
            for stat, value in stats.items():
                key = f"{layer}.{stat}"
                totals[key] = totals.get(key, 0) + value
    out = {name: totals.get(name, 0) for name in LAYER_METRICS if name != "trace.overhead_s"}
    return out, absent


def _provenance(plan: Plan, records: list[dict]) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    first = next((r for r in records if "backend" in r), {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        "python": first.get("python", platform.python_version()),
        "numpy": first.get("numpy"),
        "vceval": first.get("vceval"),
        "backend": first.get("backend"),
        "git_commit": commit,
        "workload": plan.workload,
        "seed": plan.seed,
        "sizes": plan.sizes,
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Generate the inputs, run passes for ``seconds``; (result line, details)."""
    work = os.path.join(WORK, f"{workload}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(work, ignore_errors=True)
    plan = generate(workload, seed, os.path.join(work, "inputs"))
    server = StageServer(os.path.join(work, "server.log"))
    passes: list[tuple[bool, list[dict]]] = []
    durations: list[float] = []
    start = time.perf_counter()
    try:
        while True:
            began = time.perf_counter()
            traced = trace and len(passes) % 2 == 1
            # the stages skip the import; a fresh interpreter times it
            records = [] if traced else [measure_setup()]
            records += run_pass(server, plan, os.path.join(work, "pass"),
                                os.path.join(work, "records", f"pass{len(passes)}"), traced)
            passes.append((traced, records))
            durations.append(time.perf_counter() - began)
            # start no pass that would likely end after the deadline
            left = seconds - (time.perf_counter() - start)
            if left < statistics.median(durations) and (not trace or len(passes) >= 2):
                break
    finally:
        server.stop()

    all_records = [r for _, records in passes for r in records]
    failures = [p for r in all_records for p in r["problems"]]
    plain = [_pass_figures(records) for traced, records in passes if not traced]
    metrics: dict[str, dict] = {}
    if trace:
        layered = [_layer_figures(records) for traced, records in passes if traced]
        absent = set().union(*(a for _, a in layered))
        for name in LAYER_METRICS:
            if name == "trace.overhead_s":
                traced_wall = [_pass_figures(rs)["wall_s"] for t, rs in passes if t]
                value = statistics.median(traced_wall) - statistics.median(
                    p["wall_s"] for p in plain)
            else:
                value = statistics.median(figures[name] for figures, _ in layered)
            metrics[name] = {"value": value, "unit": LAYER_METRICS[name][0]}
    else:
        absent = set()
        setup = [r["setup_s"] for traced, records in passes if not traced
                 for r in records if "setup_s" in r]
        for name, unit in END_TO_END.items():
            if name == "setup_s":
                value = statistics.median(setup) if setup else 0.0
            else:
                value = statistics.median(p[name] for p in plain)
            metrics[name] = {"value": value, "unit": unit}

    line = {"correct": not failures, "attempted": len(all_records),
            "failed": sum(not r["ok"] for r in all_records), "metrics": metrics}
    details = {
        "provenance": _provenance(plan, all_records),
        "seconds": seconds,
        "trace": trace,
        "passes": [{"traced": t, "figures": _pass_figures(rs)} for t, rs in passes],
        "failed_frac": line["failed"] / line["attempted"],
        "failures": failures,
        "absent_layers": sorted(absent),
        "result": line,
    }
    with open(os.path.join(work, "result.json"), "w") as fh:
        json.dump(details, fh, indent=2)
    shutil.rmtree(os.path.join(work, "inputs"), ignore_errors=True)
    shutil.rmtree(os.path.join(work, "pass"), ignore_errors=True)
    return line, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "vceval", "cli.py")):
        print(f"error: no vceval sources under {SRC}", file=sys.stderr)
        return 2
    line, details = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("provenance " + json.dumps(details["provenance"], sort_keys=True))
    for problem in details["failures"][:20]:
        print("failed " + problem)
    if details["absent_layers"]:
        print("absent " + " ".join(details["absent_layers"]))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
