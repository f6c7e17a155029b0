"""Run a few independent pieces of numeric work at once, one thread per CPU.

numpy's GEMMs and ufunc loops (scipy's ``erf`` among them) release the
interpreter lock, so two threads can compute at once. They only do when the
kernel places them on different CPUs, and on a small VM it often does not:
two unpinned busy threads may share one CPU while another sits idle. So each
thread here is pinned to its own CPU of the caller's affinity mask.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Sequence


def run(tasks: Sequence[Callable[[], object]]) -> list:
    """Each task's result, in task order, computed on the CPUs of the caller's mask.

    One thread per CPU of the calling thread's affinity mask (at most one per
    task) takes tasks in order until none is left; the caller is one of these
    threads. Each thread is pinned to its own CPU, and the caller gets its
    mask back on every exit. The first task to raise, ``KeyboardInterrupt``
    included, stops the other threads after their current task, and its
    exception is raised here once they have all finished. With one CPU in the
    mask, or on a platform without ``os.sched_setaffinity``, the tasks run in
    order on the caller.
    """
    if not hasattr(os, "sched_setaffinity"):
        return [task() for task in tasks]
    mask = os.sched_getaffinity(0)  # pid 0: the calling thread's own mask
    cpus = sorted(mask)[: len(tasks)]
    if len(cpus) < 2:
        return [task() for task in tasks]
    results: list = [None] * len(tasks)
    failures: list[BaseException] = []
    lock = threading.Lock()
    order = iter(range(len(tasks)))

    def work(cpu: int) -> None:
        try:
            os.sched_setaffinity(0, {cpu})
            while not failures:
                with lock:
                    i = next(order, None)
                if i is None:
                    return
                results[i] = tasks[i]()
        except BaseException as exc:  # handed to the caller, which re-raises it
            failures.append(exc)

    helpers = [threading.Thread(target=work, args=(cpu,)) for cpu in cpus[1:]]
    try:
        for helper in helpers:
            helper.start()
        work(cpus[0])
    finally:
        for helper in helpers:
            while helper.is_alive():
                try:
                    helper.join()
                except BaseException as exc:  # Ctrl-C while waiting: stop, then keep waiting
                    failures.append(exc)
        os.sched_setaffinity(0, mask)
    if failures:
        raise failures[0]
    return results
