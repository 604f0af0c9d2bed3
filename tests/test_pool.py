import multiprocessing
import os

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
    assert executor._max_workers == 1
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
