"""fork_map and Worker: the rule for forking, the caller's share, the
children they start, and their errors."""
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from sigver import parallel
from sigver.parallel import Worker, fork_map, may_fork


def test_may_fork_needs_two_cpus_fork_no_daemon_and_no_other_thread(monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    assert may_fork()
    with monkeypatch.context() as m:
        m.setattr(parallel, "usable_cpus", lambda: 1)
        assert not may_fork()
    with monkeypatch.context() as m:
        m.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert not may_fork()
    with monkeypatch.context() as m:
        m.setattr(multiprocessing.current_process(), "daemon", True)
        assert not may_fork()
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(60,))
    other.start()
    try:
        assert not may_fork()
    finally:
        release.set()
        other.join(60)
    assert may_fork()


class Recorder:
    """A Worker target: its calls report the process that ran them."""

    worker = None  # the Worker that runs this target's calls

    def pid(self, tag):
        return tag, os.getpid()

    def steps(self, n):
        for _ in range(n):
            self.worker.wait()
        return n

    def fail(self, message):
        raise KeyError(message)

    def die(self):
        os._exit(7)


@pytest.fixture
def recorder():
    target = Recorder()
    target.worker = Worker(target)
    return target.worker


@pytest.mark.parametrize("cpus", [1, 2])
def test_worker_runs_calls_in_order_where_may_fork_says(recorder, monkeypatch, cpus):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
    with recorder:
        for tag in "abc":
            recorder.submit("pid", tag)
        for _ in range(5):
            recorder.post()
        recorder.submit("steps", 5)
        results = [recorder.result() for _ in range(4)]
        if cpus == 2:
            assert len(multiprocessing.active_children()) == 1
    assert [tag for tag, _ in results[:3]] == ["a", "b", "c"]
    pids = {pid for _, pid in results[:3]}
    assert len(pids) == 1 and (pids == {os.getpid()}) == (cpus == 1)
    assert results[3] == 5
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus", [1, 2])
def test_worker_error_is_raised_with_its_type_and_message(recorder, monkeypatch, cpus):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
    with pytest.raises(KeyError, match="no such entry"):
        with recorder:
            recorder.submit("pid", "a")
            recorder.submit("fail", "no such entry")
            assert recorder.result()[0] == "a"
            recorder.result()
    assert multiprocessing.active_children() == []


def test_worker_that_dies_is_a_child_process_error(recorder, monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    with pytest.raises(ChildProcessError, match="exited with code 7 before returning"):
        with recorder:
            recorder.submit("die")
            recorder.result()
    assert multiprocessing.active_children() == []


def test_worker_is_ended_when_the_block_raises(recorder, monkeypatch):
    """A call still waiting for posts does not keep the block from ending."""
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    with pytest.raises(RuntimeError, match="caller failed"):
        with recorder:
            recorder.submit("steps", 3)
            recorder.post()
            raise RuntimeError("caller failed")
    assert multiprocessing.active_children() == []


def test_worker_ignores_interrupts_its_caller_handles(recorder, monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    with recorder:
        recorder.submit("pid", "a")
        child = recorder.result()[1]
        os.kill(child, signal.SIGINT)
        recorder.submit("pid", "b")
        assert recorder.result() == ("b", child)
    assert multiprocessing.active_children() == []


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
