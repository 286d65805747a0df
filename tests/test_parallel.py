"""fork_map: the caller's share, the children it starts, and their errors."""
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sigver import parallel
from sigver.parallel import fork_map


def test_caller_computes_share_zero_beside_one_child_per_extra_cpu(monkeypatch):
    started = []
    start = multiprocessing.process.BaseProcess.start

    def counting_start(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(parallel, "usable_cpus", lambda: 3)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counting_start)
    caller = os.getpid()
    pids = fork_map(lambda k: os.getpid(), 8)
    assert len(started) == parallel.usable_cpus() - 1
    assert [k for k, pid in enumerate(pids) if pid == caller] == [0, 3, 6]
    children = sorted({pid for pid in pids if pid != caller})
    assert len(children) == 2
    assert [pids[k] for k in (1, 4, 7)] == [pids[1]] * 3
    assert [pids[k] for k in (2, 5)] == [pids[2]] * 2
    assert multiprocessing.active_children() == []


def test_results_come_back_in_piece_order(monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    assert fork_map(lambda k: k * k, 7) == [k * k for k in range(7)]
    assert fork_map(lambda k: k, 1) == [0]
    assert fork_map(lambda k: k, 0) == []
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("failing,raised", [((1, 2), 1), ((0, 3), 0), ((3,), 3)],
                         ids=["child-lower", "caller-lower", "child-only"])
def test_lowest_failing_piece_wins(monkeypatch, failing, raised):
    """With two CPUs the caller runs the even pieces and the child the odd
    ones; when both fail, the lower index's exception is raised, as the
    in-process loop would raise it."""
    def piece(k):
        if k in failing:
            raise ValueError(f"piece {k} failed")
        return k

    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    with pytest.raises(ValueError) as local:
        fork_map(piece, 6)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    with pytest.raises(ValueError) as forked:
        fork_map(piece, 6)
    assert str(forked.value) == str(local.value) == f"piece {raised} failed"
    assert multiprocessing.active_children() == []


def test_child_that_dies_without_a_result_is_reported(monkeypatch):
    caller = os.getpid()

    def piece(k):
        if os.getpid() != caller:
            os._exit(3)
        return k

    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    with pytest.raises(ChildProcessError, match="exited with code 3 before returning"):
        fork_map(piece, 4)
    assert multiprocessing.active_children() == []


def test_forked_children_do_not_repeat_buffered_stdout(tmp_path):
    """A line the caller printed but did not flush appears exactly once."""
    script = (
        "import numpy as np\n"
        "from sigver import dtw, parallel, siamese\n"
        "from test_siamese import three_window_pairs\n"
        "parallel.usable_cpus = lambda: 2\n"
        "print('printed before the forks')\n"
        "gen = np.random.default_rng(3)\n"
        "cfg = siamese.ModelConfig(n_features=23, branch_hidden=4, merge_hidden=3)\n"
        "model = siamese.init_model(cfg, gen)\n"
        "scores = siamese.score_pairs(model, *three_window_pairs(gen))\n"
        "dtw.CHUNK_CELLS = 700\n"
        "pairs = [(gen.normal(size=(n, 3)), gen.normal(size=(n + 4, 3))) for n in range(5, 25)]\n"
        "distances = dtw.dtw_distances(pairs)\n"
        "print(scores.size, distances.size)\n")
    tests = Path(__file__).resolve().parent
    src = Path(parallel.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(tests)])}
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "printed before the forks\n212 20\n"
