"""Byte identity of the pipeline's outputs on two seeded benchmark workloads.

The inputs come from ``perfbench/generate.py`` (imported, never modified).
``tile``, ``decode`` and ``eval`` run in process as the benchmark runs them,
and the outputs are hashed per kind: for each kind, the sha256 of the
sorted ``<relative path> <sha256 of the file>`` lines of every file of that
kind. The seed-1 digests were taken before evaluation became columnar and
the seed-2 digests before decode did; CHANGES.md says how.
"""

import contextlib
import hashlib
import io
import os
import shutil

import pytest

from vceval import cli

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
KINDS = (".det.txt", "metrics.csv", "pr_curves.csv", "observations.csv")

EXPECTED = {
    ("dense-lowscore", 1): {
        ".det.txt": "7f0003f1119695ec529440667284e35754157ab7ad291008bc6626ce59df9d85",
        "metrics.csv": "5dcb41c67ffa278e89cb9f7c1b22608333e56c1f9b5ed2afad3fac978515d744",
        "pr_curves.csv": "1bc6eb5baaeebffd6a0a3364139b58f40af7d719c54a91cb72e67673c7f68e68",
        "observations.csv": "90d1739d05f72c0f7413dc5939ac3757784ac2bcdb6d496af829efbb2f549006",
    },
    ("dense-lowscore", 2): {
        ".det.txt": "ddaae2c9a87f1f3b1ed2f8364771b591591b49e879bec436fec049357c3a0ac8",
        "metrics.csv": "797d9458c1086fa053b3e620b931c1f7b633bd85249655918441a6bd7bf2987a",
        "pr_curves.csv": "4132af34e661d075a8306a977d65b0cedef35fb5539c2c5b81417965cc4502b2",
        "observations.csv": "76a2251f24bb8878eaf2ce7d606f034657757bada228c107508d5073b8ffb5b4",
    },
    ("study-3x5", 1): {
        ".det.txt": "23f63e5f639c538342a295a19859786e31371d79ac30792c84405a2628e0d82c",
        "metrics.csv": "c215c972755e755cf5b69a498a7c3a33bff7ea56f3f8606c4a43769e39a6fc6c",
        "pr_curves.csv": "52133766756acbecb38a56a855a607942a3ec1ff7c5151b314e0128408d833b6",
        "observations.csv": "e02d1693de7ad2fc4b3664b78c992902079b733697f53fb1f30fd61147677fa7",
    },
    ("study-3x5", 2): {
        ".det.txt": "cc15d6cdb02949243a3f6add5d99f02caca5625bc03e2853638207e00593bd6d",
        "metrics.csv": "f7f97d1cc3619c62e51b391a751f115aceb211c3fadc3420bc18a4b93c57be3e",
        "pr_curves.csv": "5188c4627464a1d4a31171ccf91059cf017705ec74dddd18ff3edbbaa12e77fe",
        "observations.csv": "56a36e942372f14db393b353dc76e793403dd52e86029ef76d6a63b2e975e7a5",
    },
}


def run_workload(generate, workload: str, seed: int, work: str) -> dict[str, str]:
    """Generate the inputs, run every tile, decode and eval stage of the
    workload under ``work``, and return the digest of each output kind."""
    plan = generate.generate(workload, seed, os.path.join(work, "inputs"))
    out = os.path.join(work, "out")
    os.makedirs(out)
    observations = os.path.join(out, "observations.csv")
    if plan.history:
        shutil.copyfile(plan.history, observations)
    stages = [
        ["tile", "--manifest", os.path.join(plan.inputs, "images.csv"),
         "--labels-dir", os.path.join(plan.inputs, "labels"),
         "--out-dir", os.path.join(out, f"tiles{size}"), "--tile-size", str(size)]
        for size in sorted(plan.tiles)
    ]
    for run in plan.runs:
        dets = os.path.join(out, f"dets-{run.run_id}")
        stages.append(["decode", "--tensors-dir", run.tensors_dir, "--out-dir", dets,
                       "--input-size", str(run.size), *plan.decode_flags])
        stages.append(["eval", "--detections-dir", dets,
                       "--labels-dir", os.path.join(out, f"tiles{run.size}"),
                       "--out-dir", os.path.join(out, f"eval-{run.run_id}"),
                       "--run-id", run.run_id, "--observations", observations,
                       "--input-size", str(run.size)])
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in stages:
            assert cli.main(argv) == 0, argv
    lines = {kind: [] for kind in KINDS}
    for root, _, files in os.walk(out):
        for name in files:
            kind = next((k for k in KINDS if name.endswith(k)), None)
            if kind is not None:
                path = os.path.join(root, name)
                with open(path, "rb") as fh:
                    lines[kind].append(
                        f"{os.path.relpath(path, out)} {hashlib.sha256(fh.read()).hexdigest()}\n"
                    )
    return {
        kind: hashlib.sha256("".join(sorted(found)).encode()).hexdigest()
        for kind, found in lines.items()
    }


@pytest.fixture(scope="module")
def generate():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(PERFBENCH)
        import generate as module
    return module


@pytest.mark.parametrize("workload, seed", sorted(EXPECTED))
def test_outputs_are_byte_identical(generate, tmp_path, workload, seed):
    assert run_workload(generate, workload, seed, str(tmp_path)) == EXPECTED[workload, seed]
