"""Independent tasks in forked worker processes.

Each task gets its own forked child, which reads its inputs from the
parent's memory as they stood at the fork, so only the result crosses back:
pickled, through a pipe. A spawned worker would import sncv afresh and be
sent every train set instead. Fork needs a parent without Python threads,
which sncv never starts; OpenBLAS's own thread pool is fork-safe.

The calling process caps numpy's OpenBLAS at one thread before its first
fork, and keeps the cap: its children inherit it, so none of them starts a
thread. A child that set the cap itself would restart OpenBLAS's pool, whose
one new thread busy-waits on the core the other worker needs. The second
thread buys no wall time, and the bits do not depend on it, so the results
are the in-process bits; pickling keeps floats exact.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import pickle
import select
import signal

import numpy as np

MAX_WORKERS = 2
PIPE_READ = 1 << 16  # a Linux pipe's default capacity


@functools.cache
def _blas_threads():
    """The thread-count getter and setter of numpy's bundled OpenBLAS, or None
    without them."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


def _child(task, item, pipe: int):
    """Run task(item) in a forked child, write (ok, result or error) to the
    pipe and exit, never returning to the caller's code."""
    status = 1
    try:
        try:
            out = (True, task(item))
        except BaseException as err:  # raised again in the parent
            out = (False, err)
        with os.fdopen(pipe, "wb") as fh:
            pickle.dump(out, fh)
        status = 0
    finally:
        os._exit(status)


def run_tasks(task, items: list, labels: list[str], costs: list[float]) -> list:
    """[task(item) for item in items], each item in its own forked child, with
    at most MAX_WORKERS, and no more than this process's CPUs, running at once;
    the largest cost starts first and the next starts as a child ends. This
    process stays capped at one OpenBLAS thread from the first call on, and
    its children inherit the cap. Without an OpenBLAS thread cap, one child
    runs at a time, since an uncapped task may use every CPU.

    A task's ValueError is raised again as "label: error", and a child that
    ends without a result is such an error too. Once an item fails, no later
    item starts, and the first failure in item order is raised. No child
    outlives the call.
    """
    n_workers = min(MAX_WORKERS, len(items), len(os.sched_getaffinity(0)))
    blas = _blas_threads()
    if blas is None:
        n_workers = 1
    elif blas[0]() != 1:
        blas[1](1)  # only if not yet capped: setting it restarts OpenBLAS's pool
    todo = sorted(range(len(items)), key=lambda i: -costs[i])
    results, failures, running = {}, {}, {}
    try:
        while todo or running:
            while todo and len(running) < n_workers:
                i = todo.pop(0)
                r, w = os.pipe()
                pid = os.fork()
                if pid == 0:
                    os.close(r)
                    _child(task, items[i], w)
                os.close(w)
                running[r] = (i, pid, [])
            for r in select.select(list(running), [], [])[0]:
                i, pid, chunks = running[r]
                chunks.append(os.read(r, PIPE_READ))
                if chunks[-1]:
                    continue
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                del running[r]
                os.close(r)
                ok, out = pickle.loads(b"".join(chunks)) if code == 0 else (False, ValueError(
                    f"worker process ended by {signal.Signals(-code).name}" if code < 0 else
                    f"worker process exited with status {code}"))
                if ok:
                    results[i] = out
                else:
                    failures[i] = out
                    todo = [j for j in todo if j < min(failures)]
    finally:
        for r, (_, pid, _) in running.items():
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            os.close(r)
    if failures:
        first = min(failures)
        if isinstance(failures[first], ValueError):
            raise ValueError(f"{labels[first]}: {failures[first]}") from failures[first]
        raise failures[first]
    return [results[i] for i in range(len(items))]
