"""Work on every usable CPU, by fork.

One mechanism forks: ``Worker(target)`` runs the methods of one object
in one forked process, in the order its caller asks for them, while the
caller goes on with its own work. Calls and results travel through a
pipe, one message each; a semaphore counts finer steps of progress from
the caller (``post``, ``wait``), and bulk data goes through memory that
both sides mapped before the fork. Training uses one as a pipeline of two
stages.

A Worker forks under one rule (``may_fork``): two or more usable CPUs,
the ``fork`` start method, and a caller that is neither a daemonic
process nor running other threads (a lock one of them holds at the fork
would stay locked in the child). Otherwise its calls run in-process, in
order. A piece of work runs the same code on the same arrays wherever it
runs, so its result has the same bits.

``fork_map(fn, n)`` returns ``[fn(0), ..., fn(n - 1)]``, for independent
pieces: one Worker per extra CPU, each running one share, while the
caller computes its own. Piece k belongs to share k mod workers, and
share 0 is the caller's. The children inherit ``fn`` and everything it
reads through fork; only their results travel. Each Worker is closed
as soon as it has its share, so a child exits once it has sent its
results, while the caller still works. Every child is gone when
``fork_map`` returns or raises.
"""
from __future__ import annotations

import multiprocessing
import os
import signal
import threading
from contextlib import ExitStack
from functools import partial
from types import SimpleNamespace


def usable_cpus() -> int:
    """CPUs this process may run on (``taskset -c 0`` makes it 1)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def may_fork() -> bool:
    """Whether work may go to forked processes (see the module docstring).

    Forked processes are daemons, so they never fork again.
    """
    return (usable_cpus() >= 2
            and "fork" in multiprocessing.get_all_start_methods()
            and not multiprocessing.current_process().daemon
            and threading.active_count() == 1)


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


def _exited(process) -> ChildProcessError:
    process.join()
    return ChildProcessError(f"a worker process exited with code {process.exitcode} "
                             "before returning its results")


def fork_map(fn, n: int) -> list:
    """``[fn(0), ..., fn(n - 1)]``, computed by the caller and forked children.

    The pieces run in-process, in order, with fewer than two pieces or
    when ``may_fork`` says no. When pieces raise, the exception of the
    lowest failing index is raised, the one the in-process loop would
    raise; a child that dies without a result raises a
    ``ChildProcessError`` (an ``OSError``) with its exit code.
    """
    workers = min(n, usable_cpus())
    if workers < 2 or not may_fork():
        return [fn(k) for k in range(n)]
    shares = SimpleNamespace(run=partial(_run_share, fn, workers=workers, n=n))
    with ExitStack() as stack:
        children = [stack.enter_context(Worker(shares)) for _ in range(1, workers)]
        for share, child in enumerate(children, 1):
            child.submit("run", share)
            child.close()  # so it ends while the caller computes share 0
        outcomes = [shares.run(0)] + [child.result() for child in children]
    failures = [(k, exc) for _, k, exc in outcomes if k is not None]
    if failures:  # raised after the block, so the children end cleanly
        raise min(failures, key=lambda f: f[0])[1]
    results = [None] * n
    for share, (share_results, _, _) in enumerate(outcomes):
        results[share::workers] = share_results
    return results


class Worker:
    """Calls of ``target``'s methods, run in order by one forked process.

    ``submit(name, *args)`` asks for ``getattr(target, name)(*args)``, and
    ``result()`` returns the value of the oldest call not yet collected or
    raises its exception, with the same type and message. Entering the
    ``with`` block forks the process when ``may_fork`` allows it; it
    starts each call as soon as the call arrives, so the call overlaps
    with whatever the caller does until it asks for the result. Otherwise
    a call runs in-process when its result is asked for. The target shares
    the caller's data only through the call arguments, the results, and
    memory mapped before the fork.

    ``post`` counts one step of the caller's progress and ``wait``, called
    by the target, takes one, blocking until there is one; in-process
    both do nothing, since a call runs only after every post it waits
    for. Between calls the process blocks on its pipe. Leaving the block
    ends the process: after its last call, or at once when the block
    raises. ``close()`` says that no call follows, so the process ends
    after its last call without waiting for the block, which then only
    joins it. A process that dies before sending a result raises a
    ``ChildProcessError`` in ``result``. The process ignores SIGINT: its
    caller handles the interrupt and ends it.
    """

    def __init__(self, target) -> None:
        self.target = target
        self._pending: list = []  # calls not yet run, in-process
        self._process = self._conn = self._posts = None
        self._closed = False

    def __enter__(self) -> Worker:
        self._closed = False
        if may_fork():
            ctx = multiprocessing.get_context("fork")
            self._posts = ctx.Semaphore(0)
            self._conn, child_end = ctx.Pipe()
            self._process = ctx.Process(target=self._serve, args=(child_end,), daemon=True)
            self._process.start()  # its Popen flushes stdio first
            child_end.close()
        return self

    def close(self) -> None:
        if self._process is not None and not self._closed:
            try:
                self._conn.send(None)
            except OSError:  # it is gone already; ``result`` says so
                pass
        self._closed = True

    def __exit__(self, exc_type, exc, tb) -> None:
        process = self._process
        if process is None:
            return
        try:
            if exc_type is None:
                self.close()
            else:
                process.terminate()
        finally:
            self._process = None
            process.join()
            self._conn.close()

    def _serve(self, conn) -> None:
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller ends this process
        self._conn.close()  # so that the caller's exit shows here as EOF
        while True:
            try:
                call = conn.recv()
            except EOFError:
                return
            if call is None:
                return
            name, args = call
            try:
                outcome = (True, getattr(self.target, name)(*args))
            except Exception as exc:
                outcome = (False, exc)
            conn.send(outcome)

    def submit(self, name: str, *args) -> None:
        if self._process is None:
            self._pending.append((name, args))
        else:
            self._conn.send((name, args))

    def result(self):
        if self._process is None:
            name, args = self._pending.pop(0)
            return getattr(self.target, name)(*args)
        try:
            ok, value = self._conn.recv()
        except (EOFError, ConnectionResetError):  # reset: it died with calls unread
            raise _exited(self._process) from None
        if not ok:
            raise value
        return value

    def post(self) -> None:
        if self._process is not None:
            self._posts.release()

    def wait(self) -> None:
        if self._process is None:
            return
        while not self._posts.acquire(timeout=1.0):
            if not multiprocessing.parent_process().is_alive():
                os._exit(1)  # orphaned: nobody will post again
