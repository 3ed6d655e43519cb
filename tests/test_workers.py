"""The forked task runner: item order, failures, one child at a time, and
children that start no OpenBLAS thread."""

import os
import signal
import time

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


def threads_after_a_product(seed):
    """This process's thread count after a product large enough (2000 x 8 @
    8 x 32) for an uncapped OpenBLAS to thread it."""
    rng = np.random.default_rng(seed)
    rng.standard_normal((2000, 8)) @ rng.standard_normal((8, 32))
    return len(os.listdir("/proc/self/task"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/task") or workers._blas_threads() is None,
                    reason="needs /proc/self/task and numpy's OpenBLAS thread-count symbols")
def test_no_child_starts_an_openblas_thread(forks):
    # a child that set the cap itself would restart OpenBLAS's pool: one more
    # thread, busy-waiting on the core the other worker needs
    for plan in range(3):
        assert workers.run_tasks(threads_after_a_product, [1, 2, 3], labels=list("abc"),
                                 costs=[1, 1, 1]) == [1, 1, 1]
    assert workers._blas_threads()[0]() == 1


def in_process(task, items, labels, costs):
    """The reference for run_tasks: [task(item) for item in items] in this
    process, with a ValueError labelled as run_tasks labels it."""
    results = []
    for item, label in zip(items, labels):
        try:
            results.append(task(item))
        except ValueError as err:
            raise ValueError(f"{label}: {err}") from err
    return results


def timed_square(x):
    start = time.monotonic()
    time.sleep(0.05)
    return x * x, os.getpid(), start, time.monotonic()


def fail_odd(x):
    if x % 2:
        raise ValueError(f"{x} is odd")
    return x


@pytest.mark.parametrize("case", ["one item", "one CPU", "no OpenBLAS cap"])
def test_one_child_at_a_time_gives_the_in_process_results_and_failure(forks, monkeypatch,
                                                                      case):
    items = [2, 3, 4]
    if case == "one item":
        items = [2]
    elif case == "one CPU":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    else:
        monkeypatch.setattr(workers, "_blas_threads", lambda: None)
    labels = list("abc"[:len(items)])
    out = workers.run_tasks(timed_square, items, labels, costs=items)
    assert [sq for sq, *_ in out] == [sq for sq, *_ in in_process(timed_square, items, labels,
                                                                   items)]
    pids = {pid for _, pid, _, _ in out}
    assert len(forks) == len(pids) == len(items)
    assert os.getpid() not in pids
    spans = sorted((start, end) for *_, start, end in out)
    assert all(end <= start for (_, end), (start, _) in zip(spans, spans[1:]))
    # the largest odd item fails first, yet the failure raised is the first in item order
    items = [item + 1 for item in items]
    with pytest.raises(ValueError) as reference:
        in_process(fail_odd, items, labels, items)
    with pytest.raises(ValueError) as forked:
        workers.run_tasks(fail_odd, items, labels, costs=items)
    assert str(forked.value) == str(reference.value)
    assert str(forked.value.__cause__) == str(reference.value.__cause__)


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
