"""Byte identity of the pipeline's outputs on two seeded benchmark workloads
and on one frame whose boxes lie across tile edges.

The inputs come from ``perfbench/generate.py`` (imported, never modified).
``tile``, ``decode``, ``eval``, ``compare`` and ``report`` run in process as
the benchmark runs them, and the outputs are hashed per kind: for each kind,
the sha256 of the sorted ``<relative path> <sha256 of the file>`` lines of
every file of that kind. ``report`` runs inside the output directory with a
relative observation path, because ``report.txt`` quotes that path. The
seed-1 detection and evaluation digests were taken before evaluation became
columnar, the seed-2 ones before decode did, the tile, comparison CSV and
report digests before the input rules were merged, the comparison JSON
digests after the unit range CDF became one table per k, the dense-lowscore
seed-3 ones before NMS searched only pairs that can reach the threshold,
and the study-3x5 seed-3 and straddle-frame ones before tiling became
columnar; CHANGES.md says how. The benchmark generator never puts a tile
edge through a box, so only the straddle frame reaches the clip and the
visibility floor.
"""

import contextlib
import hashlib
import io
import os
import random
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
        "comparison_*.json": "706de20deae8f086ef9dde81a33c7f02fdcc8a8b31fa26f0dc981ab328ea286b",
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
        "comparison_*.json": "76ecf0933d006835e97e5c8bf48df155c1b84f4e348d4f080b8625b44157494e",
        "comparison_*.csv": "fa6071b3c25af4ae245c01f2c96fea1e3033925bea8a33655c8243f91b629a69",
        "report.txt": "49f336395ad9c46fb98d2589e6c0d0e660f855884226a4b0711f0abca2125c77",
    },
    ("dense-lowscore", 3): {
        ".det.txt": "fafcc097af02c7de2f5aacb38561649dac72db597cc710375fbd88cd676ad2e1",
        "metrics.csv": "e9cd2be3a0bb8d7a0b80cde0b4ce73c0296f081ee87873369af6f08e82467c6f",
        "pr_curves.csv": "bc69bff2c4076461249392d4ae6164c30bb080d3eb1b52e28098106f8ead64c5",
        "observations.csv": "4833dead752a752f012dd8237a92429f4c9cfef360f9bf17ea389dc27385c8dd",
        "tile .txt": "94819abbb2c90ad4b4aca83f516b36ed7a8d8aaf2b28ae25b6dd731eb7b670c3",
        "tiles.csv": "a2a583dd1531cc1cfbbb141e34f27b82b5a8ecc2f2d4dbfe66bd60b1f3051f58",
        "comparison_*.json": "ba43bd257420332887547c239629babaa5e89f7e0652856451e539605ecf057b",
        "comparison_*.csv": "9e636445bed93b921102773a062efa0f56ef5ed5a82af297c38678bb1f3a2418",
        "report.txt": "ea022587d6e34c9cf1ba07920d77aa2a4705f11803a79523dd825e4346bdccb9",
    },
    ("study-3x5", 1): {
        ".det.txt": "23f63e5f639c538342a295a19859786e31371d79ac30792c84405a2628e0d82c",
        "metrics.csv": "c215c972755e755cf5b69a498a7c3a33bff7ea56f3f8606c4a43769e39a6fc6c",
        "pr_curves.csv": "52133766756acbecb38a56a855a607942a3ec1ff7c5151b314e0128408d833b6",
        "observations.csv": "e02d1693de7ad2fc4b3664b78c992902079b733697f53fb1f30fd61147677fa7",
        "tile .txt": "5f2728053ae84f8148af4ecf79c0872bf213d7bccc0abad4bc286e98e862f7df",
        "tiles.csv": "9dea901132d772bb24dd51d37443b615efe20903cdf1acf8f5f7d18ccd5ebb68",
        "comparison_*.json": "ad0e28870641fd543ad5ca879bd56c77c9e2ec803f4f6f53ffbed4bf177cfe29",
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
        "comparison_*.json": "82ce3da8f60eae34c2ca11aa1b20207f37f5a0f3db78c5c9c32e18d02d3ced11",
        "comparison_*.csv": "c04a21e9f79dbdaa8df62bdc0b49de9673aac1d79169de1441ce14330a7face1",
        "report.txt": "92f461785e2efda532626fafe5e0d830c11f0529e21a840147f6ea96465cc936",
    },
    ("study-3x5", 3): {
        ".det.txt": "8a9514b8fea3330f674200e7742b842b2fae125855cf34d1dc436a2dbe4df817",
        "metrics.csv": "5e0d156c1375515c4a6f3bb9582c0fe45b4a5143812d9429c0df4e86590b87e3",
        "pr_curves.csv": "3719dea53bed11b49a3e24d9f3aaa8579762ea3f3c07ed60b3b87a241487f11e",
        "observations.csv": "4c17abebf90ee1463f55eff54f11bd0175b3d9fc20d016f3118877f3234d8c7f",
        "tile .txt": "b5a9cd1c822b00d624c00d6e5d979a8a09f83bb5de4c97bd61c4a4e8daaad657",
        "tiles.csv": "9dea901132d772bb24dd51d37443b615efe20903cdf1acf8f5f7d18ccd5ebb68",
        "comparison_*.json": "680fb2f1e567cf71b82be6d2608a20eb97e53ae3bb4a75c8755cb04502e0f05d",
        "comparison_*.csv": "12c98f593314039edbd26492e35db4968ee9e2c0f0336bd9d148c1d5a05ded2f",
        "report.txt": "7a9cd6103676ec9ba1c54c59778bebf4361e8a30d40a8dc18e126aef65328591",
    },
}


# the digests of run_straddle under each policy
STRADDLE = {
    "pad-edge": {
        ".det.txt": "cb64a0e8adf7f7c3e67dab295b23edb2caf6c18e075fa167fe416e34543a8d6d",
        "metrics.csv": "12154b468944505dad96d622b32ac399acd6e7a602929511fa208422e0a3bf39",
        "pr_curves.csv": "be90a631dd3625c6ab0273f1e75f75d347ffbb7f986d784743ff2fd0825dd901",
        "observations.csv": "1a52de34bf841582418c12e99ab94200a61a18849584fe1cf85b284749e6edd8",
        "tile .txt": "cea0ec096727010a599f4b993deea4aae353660beb5a258c50ba2695ca38adb7",
        "tiles.csv": "68103907015c600e544ca738d7e07b95240b24c82c2cba6cb94694f20991697c",
    },
    "drop-partial": {
        ".det.txt": "c6330701be9d608447b8e45863a2fd9b6a55d0f21d7bce1cf0ec674bc5c25235",
        "metrics.csv": "989d75125fe0642b5b8b281f13315766cd526f374704afb4d3b5dd79c01662d0",
        "pr_curves.csv": "72f72e80704490f93559ad499311efed8c2523c7b5aa0d013a0632d4bb213481",
        "observations.csv": "9aad242d4bb611a66a6c15de62e1798e4d6e8b2c439e4ad14990f66191bd53ae",
        "tile .txt": "b2211a53458a1a8e9ac809f9c6d991cf3f3e2b7aebfa9509ab2fe5793e3176d6",
        "tiles.csv": "b5d9fd1b40b567936d4089872ff65ca9c06213d6a5c1e804ecba79864f693791",
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
    return digests(out)


def digests(out: str) -> dict[str, str]:
    """The digest of each kind of output file under ``out``."""
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


def straddle_frame(inputs: str) -> None:
    """A 1000x700 frame (an image manifest and one label file) whose 48
    boxes mostly lie across the 416 px tile edges, with about 30 % on one
    side, some 900 px wide across three columns, and some below the one
    row of 416 px tiles that drop-partial keeps."""
    rng = random.Random(8)
    extent_w, extent_h = 1000, 700
    lines = []
    while len(lines) < 48:
        w = rng.choice([10.0, 24.0, 900.0, rng.uniform(5.0, 120.0)])
        h = rng.choice([10.0, rng.uniform(5.0, 80.0)])
        share = rng.choice([0.3, 0.29, 0.31, 0.5, 0.7, rng.random()])
        x = rng.choice([416.0, 832.0]) - w * share
        y = rng.choice([416.0 - h * share, rng.uniform(0.0, extent_h - h)])
        cx, cy = (x + w / 2.0) / extent_w, (y + h / 2.0) / extent_h
        if cx <= 1.0 and cy <= 1.0:
            lines.append(f"{len(lines) % 2} {cx!r} {cy!r} {w / extent_w!r} {h / extent_h!r}\n")
    os.makedirs(os.path.join(inputs, "labels"))
    with open(os.path.join(inputs, "images.csv"), "w") as fh:
        fh.write(f"image_id,width,height\nframe,{extent_w},{extent_h}\n")
    with open(os.path.join(inputs, "labels", "frame.txt"), "w") as fh:
        fh.write("".join(lines))


def detections_for(tiles: str, dets: str, tile_size: int) -> None:
    """One detection file per tile label file: each label moved by up to
    3 px and scaled by 0.8-1.2 with a drawn score, and two false
    positives."""
    rng = random.Random(9)
    os.makedirs(dets)
    for name in sorted(os.listdir(tiles)):
        if not name.endswith(".txt"):
            continue
        rows = []
        with open(os.path.join(tiles, name)) as fh:
            for line in fh:
                class_id, *box = line.split()
                cx, cy, w, h = (float(v) * tile_size for v in box)
                w, h = w * rng.uniform(0.8, 1.2), h * rng.uniform(0.8, 1.2)
                rows.append((int(class_id), rng.random(), cx - w / 2.0 + rng.uniform(-3, 3),
                             cy - h / 2.0 + rng.uniform(-3, 3), w, h))
        for _ in range(2):
            rows.append((rng.randint(0, 1), rng.random(), rng.uniform(0, 380),
                         rng.uniform(0, 380), rng.uniform(4, 36), rng.uniform(4, 36)))
        with open(os.path.join(dets, name[: -len(".txt")] + ".det.txt"), "w") as fh:
            fh.write("".join("%d %.6f %.6f %.6f %.6f %.6f\n" % r for r in rows))


def run_straddle(policy: str, work: str) -> dict[str, str]:
    """Tile the straddle frame at 416 px under ``policy``, decode nothing
    (detections_for writes the detections), evaluate, and return the
    digest of each output kind."""
    inputs, out = os.path.join(work, "inputs"), os.path.join(work, "out")
    straddle_frame(inputs)
    tiles = os.path.join(out, "tiles")
    dets = os.path.join(out, "dets")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["tile", "--manifest", os.path.join(inputs, "images.csv"),
                         "--labels-dir", os.path.join(inputs, "labels"), "--out-dir", tiles,
                         "--tile-size", "416", "--policy", policy]) == 0
        detections_for(tiles, dets, 416)
        assert cli.main(["eval", "--detections-dir", dets, "--labels-dir", tiles,
                         "--out-dir", os.path.join(out, "eval"), "--run-id", "straddle"]) == 0
    return digests(out)


@pytest.fixture(scope="module")
def generate():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(PERFBENCH)
        import generate as module
    return module


@pytest.mark.parametrize("workload, seed", sorted(EXPECTED))
def test_outputs_are_byte_identical(generate, tmp_path, workload, seed):
    assert run_workload(generate, workload, seed, str(tmp_path)) == EXPECTED[workload, seed]


@pytest.mark.parametrize("policy", sorted(STRADDLE))
def test_boxes_across_tile_edges_give_the_same_bytes(tmp_path, policy):
    assert run_straddle(policy, str(tmp_path)) == STRADDLE[policy]
