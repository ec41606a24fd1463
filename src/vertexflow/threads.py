"""One thread runner for independent tasks: the sampler streams, the rank-1 terms of a
contraction split and the subgraphs of a conditioning loop.

``run_tasks`` runs task 0 on the calling thread and the rest on the calling thread and
min(tasks, CPUs) - 1 helper threads, each taking the next task not yet started.  CPUs
are the ones this process may run on (``cpus``), not the host's.  Every task runs in
its own copy of the caller's context (``contextvars.copy_context``): a helper thread
starts from an empty one, which would lose numpy's error state (an ``np.errstate`` is a
ContextVar since numpy 2) and every open ``qmoments.shared_grids`` scope.  numpy
releases the GIL in its kernels, so the tasks run in parallel.
"""

from __future__ import annotations

import os
import threading
from contextvars import copy_context


def cpus() -> int:
    """The number of CPUs this process may run on: its affinity mask where the platform
    has one, else ``os.cpu_count()``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_tasks(tasks) -> list:
    """[task() for task in tasks], each in its own copy of the caller's context.

    Task 0 runs on the calling thread; min(len(tasks), ``cpus()``) - 1 helper threads
    and the calling thread take the rest in order, each the next task as it finishes
    one, so at most that many tasks run at once, and on one CPU every task runs inline
    and no thread starts.  Every task runs even if another raises; the error of the
    first task in task order then reaches the caller, once no helper is left running.
    """
    tasks = list(tasks)
    contexts = [copy_context() for _ in tasks]
    results, errors = [None] * len(tasks), [None] * len(tasks)
    pending, lock = iter(range(1, len(tasks))), threading.Lock()

    def run(i):
        try:
            results[i] = contexts[i].run(tasks[i])
        except Exception as exc:
            errors[i] = exc

    def drain():
        while True:
            with lock:
                i = next(pending, None)
            if i is None:
                return
            run(i)

    helpers = [threading.Thread(target=drain) for _ in range(min(len(tasks), cpus()) - 1)]
    for helper in helpers:
        helper.start()
    try:
        if tasks:
            run(0)
        drain()
    finally:
        with lock:  # an interrupt of the calling thread lets the helpers finish what they hold
            for _ in pending:
                pass
        for helper in helpers:
            helper.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results
