"""The forked task runner: item order, failures, and when it does not fork."""

import os
import signal

import numpy as np
import pytest

from sncv import workers


def test_results_come_back_in_item_order_with_their_own_pid(forks):
    items = [3, 1, 4, 1, 5]
    out = workers.run_tasks(lambda x: (x * x, os.getpid()), items, labels=list("abcde"),
                            costs=items)
    assert [square for square, _ in out] == [9, 1, 16, 1, 25]
    assert len(forks) == 5
    assert os.getpid() not in {pid for _, pid in out}


def test_a_large_result_crosses_the_pipe_exactly(forks):
    # several pipe buffers' worth of float64s
    out = workers.run_tasks(lambda seed: np.random.default_rng(seed).standard_normal(300_000),
                            [1, 2], labels=["a", "b"], costs=[1, 1])
    for seed, got in zip([1, 2], out):
        np.testing.assert_array_equal(got, np.random.default_rng(seed).standard_normal(300_000))


def no_fork():
    raise AssertionError("os.fork called")


@pytest.mark.parametrize("case", ["one item", "one CPU", "no OpenBLAS cap"])
def test_runs_in_process_without_a_fork(monkeypatch, case):
    monkeypatch.setattr(os, "fork", no_fork)
    items = [2, 3]
    if case == "one item":
        items = [2]
    elif case == "one CPU":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    else:
        monkeypatch.setattr(workers, "_blas_thread_cap", lambda: None)
    out = workers.run_tasks(lambda x: (x, os.getpid()), items, labels=["a", "b"][:len(items)],
                            costs=items)
    assert out == [(x, os.getpid()) for x in items]


def test_a_killed_child_is_a_failure_naming_its_item(forks):
    def task(x):
        if x == "b":
            os.kill(os.getpid(), signal.SIGKILL)
        return x

    with pytest.raises(ValueError, match=r"^fit b: worker process ended by SIGKILL$"):
        workers.run_tasks(task, ["a", "b"], labels=["fit a", "fit b"], costs=[1, 1])


def test_an_error_that_is_not_a_value_error_is_raised_as_it_is(forks):
    def task(x):
        if x == 2:
            raise MemoryError("Unable to allocate 7.11 PiB for an array")
        return x

    with pytest.raises(MemoryError, match=r"^Unable to allocate 7\.11 PiB for an array$"):
        workers.run_tasks(task, [1, 2], labels=["a", "b"], costs=[1, 1])


def test_a_result_that_does_not_pickle_is_a_failure(forks):
    with pytest.raises(ValueError, match=r"^b: worker process exited with status 1$"):
        workers.run_tasks(lambda x: (lambda: x) if x == 2 else x, [1, 2], labels=["a", "b"],
                          costs=[1, 1])
