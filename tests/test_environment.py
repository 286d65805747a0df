"""Checks that need a fresh Python process: the BLAS thread pin that
``import sigver`` sets before numpy loads, and the pytest settings in
``pyproject.toml``."""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sigver import cli

ROOT = Path(__file__).resolve().parents[1]


def child_env(**overrides) -> dict:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, **overrides)
    return {k: v for k, v in env.items() if v is not None}


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one core: BLAS runs one thread anyway")
def test_model_does_not_depend_on_blas_threads(tmp_path):
    # at the library sizes, threaded OpenBLAS sums the weight gradients
    # in a different order and the model differs in its last bits
    corpus = tmp_path / "corpus"
    assert cli.main(["generate", "--users", "5", "--max-duration", "1.8",
                     "--out", str(corpus)]) == 0
    digests = []
    for name, threads in [("unset", None), ("one", "1")]:
        out = tmp_path / name
        result = subprocess.run(
            [sys.executable, "-m", "sigver.cli", "train", "--data", str(corpus),
             "--iterations", "1", "--branch-hidden", "46", "--merge-hidden", "23",
             "--out", str(out)],
            cwd=tmp_path, env=child_env(OPENBLAS_NUM_THREADS=threads),
            capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        assert "warning" not in result.stderr
        digests.append(hashlib.sha256((out / "model.npz").read_bytes()).hexdigest())
    assert digests[0] == digests[1]


def test_explicit_thread_count_warns_once(tmp_path, monkeypatch, capsys):
    results = tmp_path / "results.csv"
    results.write_text("system,protocol,eer_percent\nproposed,1vs1,5.0\n")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    assert cli.main(["report", str(results)]) == 0
    assert capsys.readouterr().err == (
        "warning: OPENBLAS_NUM_THREADS=4; results can differ in the last bits "
        "from the one-thread default\n")


def test_failing_property_test_reports_its_example(tmp_path):
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n < 3\n")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), str(tmp_path / "test_fails.py")],
        cwd=tmp_path, env=child_env(), capture_output=True, text=True, timeout=300)
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
