"""Independent pieces of work on every usable CPU, by fork.

``fork_map(fn, n)`` returns ``[fn(0), ..., fn(n - 1)]``. With two or more
pieces and usable CPUs it forks one process per extra CPU and computes
its own share meanwhile; piece k belongs to share k mod workers, and
share 0 is the caller's. A piece runs the same code on the same arrays
wherever it runs, so its result has the same bits. The children inherit
``fn`` and everything it reads through fork; only their results travel,
through a pipe. Every child is gone when ``fork_map`` returns or raises.
"""
from __future__ import annotations

import multiprocessing
import os
import threading


def usable_cpus() -> int:
    """CPUs this process may run on (``taskset -c 0`` makes it 1)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_share(fn, share: int, workers: int, n: int) -> tuple[list, int | None, object]:
    """Results of the share's pieces in order, up to its first failure:
    (results, failing index or None, exception or None)."""
    results = []
    for k in range(share, n, workers):
        try:
            results.append(fn(k))
        except Exception as exc:
            return results, k, exc
    return results, None, None


def _child(fn, share: int, workers: int, n: int, conn) -> None:
    conn.send(_run_share(fn, share, workers, n))
    conn.close()


def fork_map(fn, n: int) -> list:
    """``[fn(0), ..., fn(n - 1)]``, computed by the caller and forked children.

    The pieces run in-process, in order, with fewer than two pieces or
    usable CPUs, without ``fork``, in a daemonic process and while other
    threads run: a lock one of them holds at the fork would stay locked
    in the child. The children are daemons, so they never fork again.
    When pieces raise, the exception of the lowest failing index is
    raised, the one the in-process loop would raise; a child that dies
    without a result raises a ``ChildProcessError`` (an ``OSError``) with
    its exit code.
    """
    workers = min(n, usable_cpus())
    if (workers < 2 or "fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon
            or threading.active_count() > 1):
        return [fn(k) for k in range(n)]
    ctx = multiprocessing.get_context("fork")
    children = []
    try:
        for share in range(1, workers):
            recv, send = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_child, args=(fn, share, workers, n, send),
                                daemon=True)
            child.start()  # its Popen flushes stdio first, so nothing prints twice
            send.close()
            children.append((child, recv))
        outcomes = [_run_share(fn, 0, workers, n)]
        for child, recv in children:
            try:
                outcomes.append(recv.recv())
            except EOFError:
                child.join()
                raise ChildProcessError(f"a worker process exited with code "
                                        f"{child.exitcode} before returning its "
                                        "results") from None
        failures = [(k, exc) for _, k, exc in outcomes if k is not None]
        if failures:
            raise min(failures, key=lambda f: f[0])[1]
    except BaseException:
        for child, _ in children:
            child.terminate()
        raise
    finally:
        for child, recv in children:
            child.join()
            recv.close()
    results = [None] * n
    for share, (share_results, _, _) in enumerate(outcomes):
        results[share::workers] = share_results
    return results
