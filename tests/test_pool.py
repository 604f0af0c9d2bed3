import multiprocessing
import os
import threading
import time

import pytest

import vsmtune.pool as pool_module


def _child_pool():
    """In a forked child: whether it started its own pool, and that pool's answer to a task."""
    inherited = pool_module._pool
    executor = pool_module.executor()
    return (inherited is not None and executor is not inherited[1],
            pool_module.executor() is executor,
            executor.submit(os.getpid).result(timeout=10) == os.getpid())


def test_one_pool_per_process():
    executor = pool_module.executor()
    assert pool_module.executor() is executor
    assert executor._max_workers == pool_module.POOL_THREADS
    assert executor.submit(sum, [1, 2]).result(timeout=10) == 3


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_forked_child_starts_its_own_pool():
    # The parent's pool threads do not survive a fork; a child that reused
    # its executor would wait for its first task for ever.
    executor = pool_module.executor()
    executor.submit(int).result(timeout=10)
    with multiprocessing.get_context("fork").Pool(1) as workers:
        assert workers.apply_async(_child_pool).get(timeout=30) == (True, True, True)
    assert pool_module.executor() is executor


class Tracked:
    """Calls of ``fn`` that sleep first and record which started, which run and which ended."""

    def __init__(self, fn=lambda k: k, sleep=0.05):
        self.fn, self.sleep = fn, sleep
        self.lock = threading.Lock()
        self.started, self.running, self.ended = [], set(), []

    def __call__(self, k):
        with self.lock:
            self.started.append(k)
            self.running.add(k)
        try:
            time.sleep(self.sleep)
            return self.fn(k)
        finally:
            with self.lock:
                self.running.discard(k)
                self.ended.append(k)


def test_ordered_keeps_order():
    ended = []

    def call(k):
        # Later items sleep less, so their calls end first.
        time.sleep(0.01 * (5 - k))
        ended.append(k)
        return k * k

    assert list(pool_module.ordered(call, range(5))) == [0, 1, 4, 9, 16]
    assert ended != sorted(ended)


def test_ordered_raises_once_the_other_calls_have_ended():
    def fail_first(k):
        if k == 0:
            raise ValueError("first call failed")
        return k

    calls = Tracked(fail_first)
    results = pool_module.ordered(calls, range(8))
    with pytest.raises(ValueError, match="first call failed"):
        next(results)
    started = list(calls.started)
    # Every call that started has ended, and the rest were cancelled.
    assert calls.running == set() and sorted(calls.ended) == sorted(started)
    assert len(started) < 8
    time.sleep(0.1)
    assert calls.started == started
    assert list(results) == []


def test_ordered_closed_early_leaves_no_running_call():
    calls = Tracked()
    results = pool_module.ordered(calls, range(8))
    assert next(results) == 0
    results.close()
    started = list(calls.started)
    assert calls.running == set() and sorted(calls.ended) == sorted(started)
    assert len(started) < 8
    time.sleep(0.1)
    assert calls.started == started
