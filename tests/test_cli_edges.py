"""Edge values for every CLI option end in exit 0, 1 or 2, never a traceback.

Every dest of every subcommand, read from ``cli.build_parser``, gets one or
two values from ``EDGE_VALUES`` on top of a small valid base command
against an 8-user corpus. A failure prints one ``error:`` line and leaves
no ``--out`` behind. argparse's own rejections print its usage synopsis
before that line.

The cases run through ``cli.main`` in one child process that imports
sigver once: run as a script, this module is that child. The child caps
its own address space (``RLIMIT_AS``), so a size the machine cannot hold
fails at once, and gives each case an alarm. It starts no threads, since
``fork_map`` runs in-process while other threads run. The parent starts
the child in its own session and kills the whole group when the child
overruns or finishes, so no forked worker outlives the test.
"""
import argparse
import contextlib
import io
import json
import os
import re
import resource
import signal
import subprocess
import sys
import traceback
import warnings
from pathlib import Path

import pytest

from sigver import cli, kernels

BIG = str(2**63)  # one past the largest C long
HUGE = str(10**21)
ARABIC_3 = "٣"  # int() reads it as 3
EDGE_VALUES = ("0", "-1", BIG, HUGE, "nan", "inf", "", ARABIC_3)

CASES = {
    "generate": {
        "config": ("", ARABIC_3), "seed": ("-1", BIG), "users": ("-1", BIG),
        "sessions": ("0", BIG), "genuine_per_session": ("0", HUGE),
        "forgeries": ("-1", BIG), "noise": ("nan", "inf"), "jitter": ("-1", "inf"),
        "min_duration": ("0", "nan"), "max_duration": (HUGE, "inf"),
        "out": ("", ARABIC_3),
    },
    "extract": {
        "config": (ARABIC_3,), "data": ("", ARABIC_3), "manifest": ("", ARABIC_3),
        "raw": ("0", ARABIC_3), "out": (ARABIC_3,),
    },
    "train": {
        "config": (ARABIC_3,), "seed": ("-1", BIG), "data": ("", ARABIC_3),
        "manifest": ("",), "dev_users": ("-1", HUGE), "iterations": ("0", BIG),
        "batch_size": ("0", BIG), "learning_rate": ("nan", "inf"),
        "branch_hidden": ("-1", HUGE), "merge_hidden": ("0", BIG),
        "time_stride": ("0", BIG), "optimizer": ("", ARABIC_3),
        "patience": ("-1", BIG), "clip_norm": ("nan", "inf"),
        "stop_below_cost": ("nan", "inf"), "dev_eval": ("", ARABIC_3),
        "out": ("", ARABIC_3),
    },
    "evaluate": {
        "config": ("",), "data": (ARABIC_3,), "manifest": (ARABIC_3,),
        "dev_users": ("-1", HUGE), "model": ("", ARABIC_3), "baseline": ("0",),
        "sffs": ("0", ARABIC_3), "sffs_k": ("0", BIG), "sffs_pairs": ("-1", HUGE),
        "columns": ("", ARABIC_3), "band": (HUGE, BIG), "det_points": ("0", HUGE),
        "out": ("", ARABIC_3),
    },
    "report": {"config": (ARABIC_3,), "results": ("", ARABIC_3), "out": ("", ARABIC_3)},
}

# Legal values whose run time grows with the value without bound. A cap on
# them is a policy of its own that the CLI has not chosen, so they do not run.
UNBOUNDED = "legal and unbounded in time: no cap on counts is chosen yet"
EXCLUDED = {
    ("generate", "users", BIG): UNBOUNDED,
    ("generate", "sessions", BIG): UNBOUNDED,
    ("generate", "genuine_per_session", HUGE): UNBOUNDED,
    ("generate", "forgeries", BIG): UNBOUNDED,
    ("train", "iterations", BIG): UNBOUNDED,
    ("train", "patience", BIG): UNBOUNDED,
}

# results.json key of the child's kernels library, beside the case ids
LIBRARY = "kernels-library"

# Sizes past the capped address space, beside the list: numpy's MemoryError
ALLOCATIONS = [("generate", "max_duration", "1e9"), ("train", "branch_hidden", "100000")]

# A small valid command per subcommand; a case appends its option, which wins.
BASE = {
    "generate": ["generate", "--users", "1", "--max-duration", "1.6"],
    "extract": ["extract", "--data", "{corpus}"],
    "train": ["train", "--data", "{corpus}", "--dev-users", "2", "--iterations", "1"],
    "evaluate": ["evaluate", "--data", "{corpus}", "--model", "{model}", "--baseline"],
    "report": ["report", "{results}"],
}
SFFS = ["--sffs", "--sffs-k", "1", "--sffs-pairs", "8"]
# short signatures (32-40 samples) keep the DTW of the SFFS cases cheap
CORPUS = ["generate", "--users", "8", "--min-duration", "0.3", "--max-duration", "0.4"]
CASE_SECONDS = 15
CHILD_SECONDS = 240
ADDRESS_SPACE = 2 * 2**30


def actions(command: str) -> dict:
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a for a in sub.choices[command]._actions if a.dest != "help"}


def case_list() -> list:
    return [(command, dest, value) for command, dests in CASES.items()
            for dest, values in dests.items() for value in values
            if (command, dest, value) not in EXCLUDED]


def case_id(case) -> str:
    command, dest, value = case
    name = {BIG: "2**63", HUGE: "10**21", "": "empty", ARABIC_3: "arabic-3"}
    return f"{command}-{dest}-{name.get(value, value)}"


def case_argv(case, case_dir: Path, paths: dict) -> tuple[list, str]:
    """The case's argv and its --out value."""
    command, dest, value = case
    action = actions(command)[dest]
    argv = [a.format(**paths) for a in BASE[command]]
    if command == "evaluate" and dest.startswith("sffs_"):
        argv += SFFS
    out = value if dest == "out" else "out"
    if isinstance(action, argparse._StoreTrueAction):
        cfg = case_dir / "flag.cfg"
        cfg.write_text(f"{dest} = {value}\n")
        argv += ["--config", str(cfg)]
    elif not action.option_strings:
        argv = [value if a == paths[dest] else a for a in argv]
    elif dest != "out":
        argv += [action.option_strings[0], value]
    return [*argv, "--out", out], out


class CaseTimeout(BaseException):
    """A case ran past its alarm."""


def _on_alarm(signum, frame):
    raise CaseTimeout(f"no exit within {CASE_SECONDS} s")


def run_case(argv: list) -> tuple[object, str]:
    """(exit status, stderr) of ``cli.main(argv)``, as the console script
    would end; an escaped exception is a traceback on stderr."""
    err = io.StringIO()
    signal.alarm(CASE_SECONDS)
    try:  # a fresh warnings registry: each case warns as a new process would
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    except (Exception, CaseTimeout):
        code = "traceback"
        err.write(traceback.format_exc())
    finally:
        signal.alarm(0)
    return code, err.getvalue()


def child(work: Path) -> None:
    resource.setrlimit(resource.RLIMIT_AS,
                       (ADDRESS_SPACE, resource.getrlimit(resource.RLIMIT_AS)[1]))
    signal.signal(signal.SIGALRM, _on_alarm)
    paths = {"corpus": str(work / "corpus"), "model": str(work / "model" / "model.npz"),
             "results": str(work / "results" / "results.csv")}
    for argv in ([*CORPUS, "--out", paths["corpus"]],
                 [*BASE["train"], "--out", str(work / "model")],
                 [*BASE["evaluate"], "--out", str(work / "results")]):
        code, err = run_case([a.format(**paths) for a in argv])
        if code != 0:
            raise RuntimeError(f"set-up {argv[0]} ended {code}: {err}")
    results = {LIBRARY: library_identity()}
    for n, case in enumerate(case_list() + ALLOCATIONS):
        case_dir = work / f"case{n}"
        case_dir.mkdir()
        os.chdir(case_dir)
        argv, out = case_argv(case, case_dir, paths)
        existed = Path(out).exists()
        code, err = run_case(argv)
        results[case_id(case)] = {"argv": argv, "code": code, "stderr": err,
                                  "out_left": not existed and Path(out).exists()}
    (work / "results.json").write_text(json.dumps(results))


def library_identity() -> list:
    """Path, inode and modification time of the kernels library."""
    path = kernels.library_path()
    return [str(path), path.stat().st_ino, path.stat().st_mtime_ns]


@pytest.fixture(scope="module")
def parent_library() -> list:
    """The kernels library that this process built or found on import."""
    return library_identity()


@pytest.fixture(scope="module")
def edge_results(tmp_path_factory, parent_library):
    work = tmp_path_factory.mktemp("edges")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(Path(cli.__file__).parents[1]),
                                                       os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen([sys.executable, __file__, str(work)], env=env,
                            start_new_session=True, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    try:
        output, _ = proc.communicate(timeout=CHILD_SECONDS)
    except subprocess.TimeoutExpired:
        output = f"the child ran past {CHILD_SECONDS} s"
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    assert proc.returncode == 0, output
    return json.loads((work / "results.json").read_text())


def test_every_dest_has_edge_cases():
    """A new option needs cases; every value comes from the fixed list."""
    for command, dests in CASES.items():
        assert set(dests) == set(actions(command)), command
        for values in dests.values():
            assert 1 <= len(values) <= 2 and set(values) <= set(EDGE_VALUES)
    assert sum(map(len, CASES.values())) == 49
    for command, dest, value in EXCLUDED:
        assert value in CASES[command][dest]


@pytest.mark.parametrize("case", case_list(), ids=case_id)
def test_edge_value_ends_cleanly(case, edge_results):
    result = edge_results[case_id(case)]
    code, err = result["code"], result["stderr"]
    assert code in (0, 1, 2), (result["argv"], err)
    assert "Traceback" not in err
    if code == 0:
        return
    lines = err.splitlines()
    if err.startswith("usage: sigver"):  # argparse: synopsis, then its error line
        assert lines[-1].startswith(f"sigver {case[0]}: error: ")
        assert not any("error:" in line for line in lines[:-1])
    else:
        assert len(lines) == 1 and lines[0].startswith(("error: ", "usage error: ")), err
    assert not result["out_left"], result["argv"]


def test_child_loads_the_library_the_parent_built(edge_results, parent_library):
    """The child compiles nothing, so no compiler runs under its cap."""
    assert edge_results[LIBRARY] == parent_library


@pytest.mark.parametrize("case", ALLOCATIONS, ids=case_id)
def test_unallocatable_size_is_one_error_line(case, edge_results):
    result = edge_results[case_id(case)]
    assert result["code"] == 1
    assert re.fullmatch(r"error: Unable to allocate \S+ GiB for an array .*\n",
                        result["stderr"]), result["stderr"]
    assert not result["out_left"]


if __name__ == "__main__":
    child(Path(sys.argv[1]))
