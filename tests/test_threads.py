"""The thread runner: context, CPU count, errors and task order."""

import os
import threading
import warnings
from contextvars import ContextVar

import numpy as np
import pytest

from vertexflow import qmoments, threads
from vertexflow.threads import cpus, run_tasks


def _on_a_helper(task):
    """Two tasks for ``run_tasks`` with ``task`` as task 1: task 0 waits until task 1 has
    run, so a helper thread runs it."""
    done = threading.Event()

    def first():
        assert done.wait(10), "no helper ran task 1"
        return threading.get_ident()

    def second():
        try:
            return threading.get_ident(), task()
        finally:
            done.set()

    return [first, second]


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(threads, "cpus", lambda: 2)


def test_a_helper_keeps_the_callers_numpy_error_state(two_cpus):
    # a thread starts from an empty context, where numpy's error state is the default
    # "warn": a plain thread pool warns here, and -W error::RuntimeWarning fails it
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with np.errstate(all="ignore"):
            caller, (helper, value) = run_tasks(_on_a_helper(lambda: np.array([1e308]) * 10))
    assert caller != helper
    assert np.isinf(value).all()


def test_a_helper_sees_the_callers_shared_grids_scope(two_cpus):
    with qmoments.shared_grids():
        scope = qmoments._SHARED.get()
        _, (_, seen) = run_tasks(_on_a_helper(qmoments._SHARED.get))
    assert scope is not None and seen is scope


def test_each_task_runs_in_its_own_copy_of_the_context(two_cpus):
    var = ContextVar("var", default=0)

    def bump():
        var.set(var.get() + 1)
        return var.get()

    var.set(5)
    assert run_tasks([bump] * 4) == [6] * 4
    assert var.get() == 5


def test_cpus_counts_the_cpus_the_process_may_use(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert cpus() == 2


def test_one_cpu_runs_every_task_inline(monkeypatch):
    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(threads.threading, "Thread", no_thread)
    assert run_tasks([threading.get_ident] * 29) == [threading.get_ident()] * 29


def test_errors_reach_the_caller_in_task_order(two_cpus):
    ran = []

    def task(i):
        def run():
            ran.append(i)
            if i in (1, 3):
                raise ValueError(i)
            return i

        return run

    with pytest.raises(ValueError) as err:
        run_tasks([task(i) for i in range(6)])
    assert err.value.args == (1,)
    assert sorted(ran) == list(range(6))
    assert run_tasks([task(i) for i in (0, 2, 4)]) == [0, 2, 4]
    assert run_tasks([]) == []
