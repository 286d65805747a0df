"""The build and load of the compiled kernels (``sigver.kernels``).

Each loader check runs in fresh processes against a copy of the package
whose ``__pycache__`` starts empty, so the library that the test session
itself loaded is never rebuilt or removed.
"""
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sigver import cli, kernels
from sigver.lstm import init_lstm, lstm_backward_steps, lstm_forward_steps

PACKAGE = Path(kernels.__file__).parent

# a small backward pass; prints the library path and the gradients' digest
BACKWARD = """
import hashlib
import numpy as np
from sigver import kernels
from sigver.lstm import init_lstm, lstm_backward_steps, lstm_forward_steps
rng = np.random.default_rng(7)
_, _, cache = lstm_forward_steps(init_lstm(8, 5, rng), rng.normal(size=(6, 3, 5)),
                                 np.array([6, 2, 4]))
dpre = lstm_backward_steps(cache, rng.normal(size=(3, 6, 8)))
print(kernels.library_path(), hashlib.sha256(dpre.tobytes()).hexdigest())
"""


def expected_backward() -> str:
    rng = np.random.default_rng(7)
    _, _, cache = lstm_forward_steps(init_lstm(8, 5, rng), rng.normal(size=(6, 3, 5)),
                                     np.array([6, 2, 4]))
    return hashlib.sha256(lstm_backward_steps(cache, rng.normal(size=(3, 6, 8))).tobytes()
                          ).hexdigest()


@pytest.fixture()
def cold_copy(tmp_path) -> Path:
    """A copy of the package with no built library; its parent directory
    goes on PYTHONPATH."""
    root = tmp_path / "src"
    shutil.copytree(PACKAGE, root / "sigver", ignore=shutil.ignore_patterns("__pycache__"))
    return root


def run(root: Path, args: list, cwd: Path, **env) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          timeout=300, env={**os.environ, "PYTHONPATH": str(root), **env})


def built(root: Path) -> list:
    return sorted(p.name for p in (root / "sigver" / "__pycache__").glob("_kernels-*"))


def test_flags_keep_numpy_bits():
    assert "-ffp-contract=off" in kernels.FLAGS
    command = {*kernels.compiler(), *kernels.FLAGS}
    assert not command & {"-ffast-math", "-Ofast", "-march=native"}


def test_source_builds_without_warnings(tmp_path):
    proc = subprocess.run([*kernels.compiler(), *kernels.FLAGS, "-Wall", "-Wextra", "-Werror",
                           "-o", str(tmp_path / "k.so"), str(kernels.SOURCE)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_missing_compiler_fails_training_with_one_error_line(cold_copy, tmp_path):
    cc = kernels.compiler()[0]
    if os.path.isabs(cc):
        pytest.skip(f"the compiler {cc} is an absolute path: an empty PATH still finds it")
    corpus = tmp_path / "corpus"
    assert cli.main(["generate", "--users", "4", "--min-duration", "0.3",
                     "--max-duration", "0.4", "--out", str(corpus)]) == 0
    proc = run(cold_copy, ["-m", "sigver.cli", "train", "--data", str(corpus),
                           "--dev-users", "2", "--iterations", "1", "--out", "model"],
               cwd=tmp_path, PATH="")
    assert proc.returncode == 1, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    assert f"C compiler {cc!r} not found" in lines[0]
    assert built(cold_copy) == []


def test_warm_cache_loads_without_compiling(cold_copy, tmp_path):
    first = run(cold_copy, ["-c", BACKWARD], cwd=tmp_path)
    assert first.returncode == 0, first.stderr
    path, digest = first.stdout.split()
    before = Path(path).stat()
    # with no PATH a compile would fail; a rebuild would replace the file
    second = run(cold_copy, ["-c", BACKWARD], cwd=tmp_path, PATH="")
    assert second.returncode == 0, second.stderr
    assert second.stdout.split() == [path, digest]
    after = Path(path).stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    assert built(cold_copy) == [Path(path).name]
    assert digest == expected_backward()


def test_processes_building_at_once_each_load_a_whole_library(cold_copy, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(cold_copy)}
    procs = [subprocess.Popen([sys.executable, "-c", BACKWARD], cwd=tmp_path, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
             for _ in range(2)]
    outputs = [proc.communicate(timeout=300) for proc in procs]
    for proc, (out, err) in zip(procs, outputs):
        assert proc.returncode == 0, err
        assert out.split()[1] == expected_backward()
    assert built(cold_copy) == [Path(outputs[0][0].split()[0]).name]
