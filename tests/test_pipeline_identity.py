"""Byte identity of the pipeline's outputs on two seeded benchmark workloads.

The inputs come from ``perfbench/generate.py`` (imported, never modified).
``tile``, ``decode``, ``eval``, ``compare`` and ``report`` run in process as
the benchmark runs them, and the outputs are hashed per kind: for each kind,
the sha256 of the sorted ``<relative path> <sha256 of the file>`` lines of
every file of that kind. ``report`` runs inside the output directory with a
relative observation path, because ``report.txt`` quotes that path. The
seed-1 detection and evaluation digests were taken before evaluation became
columnar, the seed-2 ones before decode did, and the tile, comparison and
report digests before the input rules were merged; CHANGES.md says how.
"""

import contextlib
import hashlib
import io
import os
import shutil

import pytest

from vceval import cli

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
KINDS = (".det.txt", "metrics.csv", "pr_curves.csv", "observations.csv", "tiles.csv",
         "report.txt")


def kind_of(path: str):
    """The kind of an output file, from its path relative to the output
    directory; None for a file that is not hashed."""
    name = os.path.basename(path)
    if path.startswith("tiles") and name.endswith(".txt"):
        return "tile .txt"
    if name.startswith("comparison_"):
        return "comparison_*" + os.path.splitext(name)[1]
    return next((k for k in KINDS if name.endswith(k)), None)


EXPECTED = {
    ("dense-lowscore", 1): {
        ".det.txt": "7f0003f1119695ec529440667284e35754157ab7ad291008bc6626ce59df9d85",
        "metrics.csv": "5dcb41c67ffa278e89cb9f7c1b22608333e56c1f9b5ed2afad3fac978515d744",
        "pr_curves.csv": "1bc6eb5baaeebffd6a0a3364139b58f40af7d719c54a91cb72e67673c7f68e68",
        "observations.csv": "90d1739d05f72c0f7413dc5939ac3757784ac2bcdb6d496af829efbb2f549006",
        "tile .txt": "4b8e609a141d71b91f204764c700f4179c1d2d24340a199c50b6cda10c2d04eb",
        "tiles.csv": "a2a583dd1531cc1cfbbb141e34f27b82b5a8ecc2f2d4dbfe66bd60b1f3051f58",
        "comparison_*.json": "cc88d419b3f138a465a20af7712d254fcd1df2b08e4dba62da9eb40d9d94acb8",
        "comparison_*.csv": "14b49782c97c40b58fc90ccb47d8a9c84482b2ed1b2d064be90433e089e9011f",
        "report.txt": "b32be4bddea92b70bd3fb63497dcf93caec4bd215d7b187d128537253c542721",
    },
    ("dense-lowscore", 2): {
        ".det.txt": "ddaae2c9a87f1f3b1ed2f8364771b591591b49e879bec436fec049357c3a0ac8",
        "metrics.csv": "797d9458c1086fa053b3e620b931c1f7b633bd85249655918441a6bd7bf2987a",
        "pr_curves.csv": "4132af34e661d075a8306a977d65b0cedef35fb5539c2c5b81417965cc4502b2",
        "observations.csv": "76a2251f24bb8878eaf2ce7d606f034657757bada228c107508d5073b8ffb5b4",
        "tile .txt": "1c033c981c07860478331bd31bc85b4f1f905a2ba8780ce58d7d58839749ca5b",
        "tiles.csv": "a2a583dd1531cc1cfbbb141e34f27b82b5a8ecc2f2d4dbfe66bd60b1f3051f58",
        "comparison_*.json": "2cb562c8127742d67c423e7f7d0248ebc69083dfd90597501cab88444a8226ef",
        "comparison_*.csv": "fa6071b3c25af4ae245c01f2c96fea1e3033925bea8a33655c8243f91b629a69",
        "report.txt": "49f336395ad9c46fb98d2589e6c0d0e660f855884226a4b0711f0abca2125c77",
    },
    ("study-3x5", 1): {
        ".det.txt": "23f63e5f639c538342a295a19859786e31371d79ac30792c84405a2628e0d82c",
        "metrics.csv": "c215c972755e755cf5b69a498a7c3a33bff7ea56f3f8606c4a43769e39a6fc6c",
        "pr_curves.csv": "52133766756acbecb38a56a855a607942a3ec1ff7c5151b314e0128408d833b6",
        "observations.csv": "e02d1693de7ad2fc4b3664b78c992902079b733697f53fb1f30fd61147677fa7",
        "tile .txt": "5f2728053ae84f8148af4ecf79c0872bf213d7bccc0abad4bc286e98e862f7df",
        "tiles.csv": "9dea901132d772bb24dd51d37443b615efe20903cdf1acf8f5f7d18ccd5ebb68",
        "comparison_*.json": "fec337d1cd29aff4acdcb3749e752ff325a6e45eedb21d9bbcd471a0816f75b1",
        "comparison_*.csv": "07c44a133b55ebb88b26ffe895298a7bc5c41172929a342ff7751b0ef841dce1",
        "report.txt": "55633b076dc49493f15b430dba7e21a661ba965b65fe420cb5ea4854ec5344eb",
    },
    ("study-3x5", 2): {
        ".det.txt": "cc15d6cdb02949243a3f6add5d99f02caca5625bc03e2853638207e00593bd6d",
        "metrics.csv": "f7f97d1cc3619c62e51b391a751f115aceb211c3fadc3420bc18a4b93c57be3e",
        "pr_curves.csv": "5188c4627464a1d4a31171ccf91059cf017705ec74dddd18ff3edbbaa12e77fe",
        "observations.csv": "56a36e942372f14db393b353dc76e793403dd52e86029ef76d6a63b2e975e7a5",
        "tile .txt": "79c379eeaf30477dab658aa8be8fb93d0d5706791cc35460518daf9242adfea4",
        "tiles.csv": "9dea901132d772bb24dd51d37443b615efe20903cdf1acf8f5f7d18ccd5ebb68",
        "comparison_*.json": "039f29c7c0e245107f1f2d31d76cca3805fd63998191cd44c142c536f658dc5d",
        "comparison_*.csv": "c04a21e9f79dbdaa8df62bdc0b49de9673aac1d79169de1441ce14330a7face1",
        "report.txt": "92f461785e2efda532626fafe5e0d830c11f0529e21a840147f6ea96465cc936",
    },
}


def run_workload(generate, workload: str, seed: int, work: str) -> dict[str, str]:
    """Generate the inputs, run every tile, decode, eval, compare and report
    stage of the workload under ``work``, and return the digest of each
    output kind."""
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
    cmp_dir = os.path.join(out, "compare")
    stages += [["compare", "--observations", observations, "--metric", metric,
                "--out-dir", cmp_dir] for metric, _ in plan.compares]
    report = ["report", "--observations", "observations.csv", "--comparisons",
              *(os.path.join(cmp_dir, f"comparison_{m}.json") for m, _ in plan.compares),
              "--out", "report.txt"]
    cwd = os.getcwd()
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in stages:
            assert cli.main(argv) == 0, argv
        os.chdir(out)
        try:
            assert cli.main(report) == 0, report
        finally:
            os.chdir(cwd)
    lines = {}
    for root, _, files in os.walk(out):
        for name in files:
            path = os.path.join(root, name)
            kind = kind_of(os.path.relpath(path, out))
            if kind is not None:
                with open(path, "rb") as fh:
                    lines.setdefault(kind, []).append(
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
