"""cpus.run: results in task order, one pinned thread per CPU, the caller's
mask restored, the first failure re-raised, and serial work on one CPU."""

import os
import threading
import time

import pytest

from signscribe import cpus

needs_affinity = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs os.sched_setaffinity and at least two CPUs in the mask",
)


def where() -> tuple[int, frozenset]:
    """The calling thread and its affinity mask."""
    return threading.get_ident(), frozenset(os.sched_getaffinity(0))


@needs_affinity
def test_results_in_task_order_from_one_pinned_thread_per_cpu():
    mask = os.sched_getaffinity(0)
    threads_before = threading.active_count()

    def task(i):
        def run():
            time.sleep(0.002 * (8 - i))  # later tasks finish sooner
            return i, where()

        return run

    results = cpus.run([task(i) for i in range(8)])
    assert [i for i, _ in results] == list(range(8))
    masks = {thread: cpu_mask for _, (thread, cpu_mask) in results}
    assert all(len(m) == 1 and m <= mask for m in masks.values())
    assert len(set(masks.values())) == len(masks)  # no two threads share a CPU
    assert os.sched_getaffinity(0) == mask
    assert threading.active_count() == threads_before


@needs_affinity
@pytest.mark.parametrize("error", [ValueError("first"), KeyboardInterrupt()])
def test_first_failure_stops_the_others_and_is_raised(error):
    mask = os.sched_getaffinity(0)
    threads_before = threading.active_count()
    ran = []

    def fail():
        raise error

    def record(i):
        def run():
            time.sleep(0.02)  # releases the lock, so the failing task raises first
            ran.append(i)

        return run

    with pytest.raises(type(error)) as info:
        cpus.run([fail] + [record(i) for i in range(1, 10)])
    assert info.value is error
    # each other thread finishes at most the task it was running
    assert len(ran) <= len(mask) - 1
    assert os.sched_getaffinity(0) == mask
    assert threading.active_count() == threads_before


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
def test_one_cpu_runs_the_tasks_in_order_on_the_caller():
    mask = os.sched_getaffinity(0)
    one = {min(mask)}
    order = []

    def task(i):
        def run():
            order.append(i)
            return where()

        return run

    os.sched_setaffinity(0, one)
    try:
        results = cpus.run([task(i) for i in range(4)])
        assert os.sched_getaffinity(0) == one
    finally:
        os.sched_setaffinity(0, mask)
    assert order == [0, 1, 2, 3]
    assert results == [(threading.get_ident(), frozenset(one))] * 4
