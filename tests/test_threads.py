"""Seeded CLI outputs are byte-identical across BLAS thread counts.

Each thread count runs the whole command list in one fresh interpreter,
because OpenBLAS reads OPENBLAS_NUM_THREADS once, when numpy loads it.
The data are 66-d with a few thousand rows so that the covariance and
scatter products are large enough for OpenBLAS to split them over threads.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import posepriors

KINDS = (
    {"kind": "normal", "mu": 0.2, "sigma": 0.4},
    {"kind": "gamma", "alpha": 2.0, "beta": 2.0, "sign": -1, "shift": 0.1},
    {"kind": "mixture", "mu1": -0.5, "sigma1": 0.2, "mu2": 0.5, "sigma2": 0.3, "w1": 0.5},
)

RUN_COMMANDS = """
import json, sys
from posepriors.cli import main
for argv in json.loads(sys.argv[1]):
    rc = main(argv)
    if rc != 0:
        raise SystemExit(f"{argv} exited {rc}")
"""


def _commands(root: Path, out: Path) -> list[list[str]]:
    poses, small = str(out / "poses.csv"), str(out / "small.csv")
    cmds = [
        ["gen", "--spec", str(root / "spec.json"), "--seed", "7", "--out", poses],
        ["gen", "--spec", str(root / "small.json"), "--seed", "8", "--out", small],
    ]
    for family in ("mvn", "gamma", "box"):
        cmds.append(["fit", "--model", family, "--data", poses,
                     "--out", str(out / f"{family}.json")])
    cmds += [
        ["fit", "--model", "gmm", "--k", "3", "--seed", "0", "--max-iter", "8",
         "--data", poses, "--out", str(out / "gmm.json")],
        ["analyze", "--data", poses, "--count", "2000", "--seed", "1",
         "--out", str(out / "analyze.json"), "--hist-out", str(out / "hist.csv")],
        ["train-vae", "--data", small, "--epochs", "1", "--batch", "8", "--latent", "4",
         "--hidden", "16,16", "--seed", "2", "--out", str(out / "vae.json")],
        # Mini-batches of 256 rows make the batched products large enough to thread.
        ["train-vae", "--data", poses, "--epochs", "1", "--batch", "256", "--hidden", "64,64",
         "--latent", "8", "--seed", "4", "--out", str(out / "vae-256.json")],
    ]
    for family in ("gmm", "mvn", "vae"):
        cmds.append(["eval", "--model", str(out / f"{family}.json"), "--data", poses,
                     "--out", str(out / f"eval-{family}.json")])
    for family in ("vae", "gmm", "mvn"):
        cmds.append(["grad-check", "--model", str(out / f"{family}.json"), "--count", "20",
                     "--seed", "3", "--out", str(out / f"gradcheck-{family}.json")])
    for family in ("mvn", "gmm", "vae"):
        cmds.append(["recover", "--obs", str(root / "obs.json"), "--model",
                     str(out / f"{family}.json"), "--out", str(out / f"recover-{family}.json")])
    return cmds


def _run(root: Path, threads: int) -> Path:
    out = root / f"threads-{threads}"
    out.mkdir()
    src = str(Path(posepriors.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", RUN_COMMANDS, json.dumps(_commands(root, out))],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return out


def test_cli_outputs_identical_for_one_and_two_blas_threads(tmp_path):
    dims = [KINDS[i % len(KINDS)] for i in range(66)]
    (tmp_path / "spec.json").write_text(json.dumps({"dims": dims, "count": 3000}))
    (tmp_path / "small.json").write_text(json.dumps({"dims": dims, "count": 16}))
    # One 66-d observation with the first joint (three angles) occluded.
    values = [0.05 * ((7 * i) % 11 - 5) for i in range(66)]
    (tmp_path / "obs.json").write_text(json.dumps(
        {"values": values, "noise_sigma": 0.2, "mask": [i >= 3 for i in range(66)]}))
    one, two = _run(tmp_path, 1), _run(tmp_path, 2)
    names = sorted(p.name for p in one.iterdir())
    assert names == sorted(p.name for p in two.iterdir())
    assert len(names) == 19
    differ = [n for n in names if (one / n).read_bytes() != (two / n).read_bytes()]
    assert differ == []
