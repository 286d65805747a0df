"""The 8-user command-line flow writes the bytes recorded here.

``generate --users 8``, ``extract``, ``train --iterations 3 --dev-eval``,
``train --iterations 1`` at the library sizes 46/23, and ``evaluate
--model --baseline --sffs --sffs-k 1 --sffs-pairs 24`` run in process on
a temporary directory. The sha256 of every output is
pinned for one platform fingerprint, because the bits depend on the
numpy and BLAS builds, the CPU features they dispatch on and the BLAS
thread count. On another fingerprint the exact check skips and names
the fields that differ; the tolerance check runs everywhere.
"""
import csv
import hashlib
import os
import platform
from pathlib import Path

import numpy as np
import pytest
import scipy

from sigver import cli

RECORDED_ON = {
    "numpy": "2.4.6",
    "scipy": "1.17.1",
    "numpy_blas": "scipy-openblas 0.3.31.188.0",
    "scipy_blas": "scipy-openblas 0.3.30",
    "numpy_simd": "AVX512_ICL,AVX512_SPR,X86_V3,X86_V4",
    "machine": "x86_64",
    "blas_threads": "1",
}

# output (a file, or a directory tree) -> sha256
SHA256 = {
    "corpus": "e595db8b80501ea88eeaa762ce9f353e719a1e098b6a8ae997880f1493cf351d",
    "features": "ddf686faf4952cc694e479ddf44d135865a2e9f9ec7518f1e24c65bfcfb4faed",
    "model/model.npz": "ce5023fdf3aee0e2a15ec3958c7d6b8fc91e5cb4c94ffee176990464ec134462",
    "model/training_log.csv": "b63d533d78c72b5476bec73665279559ccd6cabd7c7dd13a98f18fddf06fe839",
    # the library sizes, where OpenBLAS's row-count effects are largest
    "model46/model.npz": "342314cc287eb998f1ee5e8510e705cba6a1c7f7f25eb22f169a591ab25de42d",
    "eval/results.csv": "925aac23b2c9191083412c09f882f56ca6457d4bba6c42f6ea9ff6d77dc8b920",
    "eval/det.csv": "d6d24bc849ad8f55deb497e01a2b041f5917b46e4267d8b9ec83e7605ba3cef4",
    "eval/sffs_report.txt": "278054f2eccc534d10397409375316ae677825431e7a50d5450c40d23738010f",
}

# results.csv (system, protocol) -> (eer_percent, threshold)
RESULTS = {
    ("proposed", "1vs1"): (50.0000, 0.487425),
    ("proposed", "4vs1"): (50.0000, 0.489508),
    ("baseline", "1vs1"): (8.3333, -0.00346133),
    ("baseline", "4vs1"): (8.3333, -0.00365669),
}
# model.npz weight array -> (sum, L2 norm)
WEIGHTS = {
    "branch_W_f": (0.7564611354722659, 2.3700798109902896),
    "branch_W_i": (0.1926791400715071, 2.3811012693458697),
    "branch_W_o": (0.9786025235501952, 2.396729476014896),
    "branch_W_c": (-1.9396282229400785, 2.341000416640548),
    "branch_b_f": (16.15917874216426, 4.040728340675275),
    "branch_b_i": (0.30645922408399073, 0.10805938640256062),
    "branch_b_o": (0.26126971987066944, 0.10056171738304816),
    "branch_b_c": (-0.010993333496755391, 0.058725919289307975),
    "merge_W_f": (-0.7645039351354073, 1.7067679887830587),
    "merge_W_i": (-0.18110284438315094, 1.757744222748452),
    "merge_W_o": (-0.38067715569146354, 1.7993530619289075),
    "merge_W_c": (-0.6163533106844228, 1.6975831271050374),
    "merge_b_f": (8.055921506051313, 2.8484686250504145),
    "merge_b_i": (0.05765666574251062, 0.03913277246325152),
    "merge_b_o": (0.05707268684590443, 0.03926190722571742),
    "merge_b_c": (0.007625633004952212, 0.01824318203946417),
    "head_w": (-0.6691993828014311, 0.7725168460583781),
    "head_b": (-0.007531682020448593, 0.007531682020448593),
}
# a last-bit change moves no EER; each tolerance is about one unit of the
# last digit results.csv prints (4 decimals, 6 significant digits), and
# the weights allow far more drift than a reordered BLAS sum gives
EER_ABS = 1e-3
THRESHOLD_REL = 2e-5
WEIGHT_ABS = 1e-9


def fingerprint() -> dict:
    def blas(module) -> str:
        try:
            dep = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{dep['name']} {dep['version']}"
        except (TypeError, KeyError):
            return "unknown"

    try:
        from numpy._core import _multiarray_umath as umath
        simd = ",".join(sorted(f for f in umath.__cpu_dispatch__
                               if umath.__cpu_features__.get(f)))
    except (ImportError, AttributeError):
        simd = "unknown"
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np),
        "scipy_blas": blas(scipy),
        "numpy_simd": simd,
        "machine": platform.machine(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def sha256(path: Path) -> str:
    """Digest of a file, or of a tree's relative paths and file digests."""
    if path.is_file():
        return hashlib.sha256(path.read_bytes()).hexdigest()
    h = hashlib.sha256()
    for p in sorted(path.rglob("*")):
        if p.is_file():
            h.update(p.relative_to(path).as_posix().encode() + b"\0")
            h.update(hashlib.sha256(p.read_bytes()).digest())
    return h.hexdigest()


@pytest.fixture(scope="module")
def flow(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("pinned")
    corpus = out / "corpus"
    for argv in (
        ["generate", "--users", 8, "--out", corpus],
        ["extract", "--data", corpus, "--out", out / "features"],
        ["train", "--data", corpus, "--iterations", 3, "--dev-eval",
         "--out", out / "model"],
        ["train", "--data", corpus, "--iterations", 1, "--branch-hidden", 46,
         "--merge-hidden", 23, "--out", out / "model46"],
        ["evaluate", "--data", corpus, "--model", out / "model" / "model.npz",
         "--baseline", "--sffs", "--sffs-k", 1, "--sffs-pairs", 24,
         "--out", out / "eval"],
    ):
        assert cli.main([str(a) for a in argv]) == 0
    return out


def test_flow_writes_the_pinned_bytes(flow):
    here = fingerprint()
    differ = [k for k in RECORDED_ON if here[k] != RECORDED_ON[k]]
    if differ:
        pytest.skip("exact bytes are pinned for another platform; differs in "
                    + ", ".join(f"{k} ({here[k]} != {RECORDED_ON[k]})" for k in differ))
    got = {name: sha256(flow / name) for name in SHA256}
    assert [n for n in SHA256 if got[n] != SHA256[n]] == [], got


def test_flow_matches_within_tolerance(flow):
    with open(flow / "eval" / "results.csv") as fh:
        rows = {(r["system"], r["protocol"]): (float(r["eer_percent"]), float(r["threshold"]))
                for r in csv.DictReader(fh)}
    assert rows.keys() == RESULTS.keys()
    for key, (eer, threshold) in RESULTS.items():
        assert rows[key][0] == pytest.approx(eer, rel=0, abs=EER_ABS), key
        assert rows[key][1] == pytest.approx(threshold, rel=THRESHOLD_REL), key
    with np.load(flow / "model" / "model.npz") as data:
        got = {name: (float(data[name].sum()), float(np.linalg.norm(data[name])))
               for name in data.files if name not in ("format", "config")}
    assert got.keys() == WEIGHTS.keys()
    for name, stats in WEIGHTS.items():
        assert got[name] == pytest.approx(stats, rel=0, abs=WEIGHT_ABS), name
