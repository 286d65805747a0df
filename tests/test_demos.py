"""Run the demo scripts, so a change to the library cannot leave them stale.

``04_evaluation.py`` (about a minute) and ``plot_det.py`` (needs
matplotlib) are left out.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", [
    "01_synthetic_corpus.py",
    "02_time_functions.py",
    "03_training_run.py",
    "05_dtw_and_selection.py",
])
def test_demo_runs(tmp_path, script):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1")
    args = [sys.executable, str(ROOT / "demos" / script)]
    if script == "01_synthetic_corpus.py":
        args.append(str(tmp_path / "corpus"))
    result = subprocess.run(args, cwd=tmp_path, env=env, capture_output=True,
                            text=True, timeout=300)
    assert result.returncode == 0, result.stderr
