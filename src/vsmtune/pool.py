"""The process's one thread pool, and when work may run on it.

numpy releases the interpreter lock inside BLAS and most array loops, so
Python threads that call single-threaded BLAS run in parallel: two of
them on 199-square GEMMs gave 1.7-2.3 times one thread's throughput on
2 CPUs. That pays only when a second CPU is free of BLAS
(``second_cpu_free``). A multithreaded BLAS already uses it, and on one
CPU the threads only interleave, so the gramian and simulation callers
keep a serial path for those cases, and both paths give the same bytes.

The pool is shared by ``objective.eval_objective`` (the dual gramian beside
the primal sum), ``simulator.compare_designs`` (one task per design) and
``cli._write_trajectories`` (every trajectory block, in every configuration).
The last two run a batch of calls through ``ordered``. ``concurrent.futures``
is imported when the pool is first used, so a process that never uses it
does not pay for the import.
"""

from __future__ import annotations

import os

POOL_THREADS = 2

# The variables that set the BLAS thread count, in the order OpenBLAS and MKL
# read them.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "GOTO_NUM_THREADS",
                     "OMP_NUM_THREADS")

_pool = None  # (pid, executor), started on first use


def second_cpu_free() -> bool:
    """Whether a second CPU is free of BLAS, so that work on the pool runs beside the caller.

    It needs two or more CPUs in the process's affinity mask, and BLAS
    pinned to one thread by the first of its thread variables that is set.
    """
    blas_threads = next((os.environ[v] for v in _BLAS_THREAD_VARS if os.environ.get(v)), "")
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return blas_threads.strip() == "1" and cpus > 1


def executor():
    """The process's one ``POOL_THREADS``-thread pool, a fresh one in a forked child.

    A forked child's copy of the parent's pool has no threads, so work
    submitted to it would never run.
    """
    global _pool
    if _pool is None or _pool[0] != os.getpid():
        from concurrent.futures import ThreadPoolExecutor

        _pool = (os.getpid(), ThreadPoolExecutor(max_workers=POOL_THREADS,
                                                 thread_name_prefix="vsmtune"))
    return _pool[1]


def ordered(fn, items):
    """Yield ``fn(item)`` for each of ``items`` in order, each call a task on the pool.

    Every call is submitted when the first result is asked for, and each
    result is dropped once yielded. If a call raises, or the generator is
    closed before its end, the calls that have not started are cancelled
    and the rest are waited for before the exception or the close goes on,
    so no call outlives the generator.
    """
    from concurrent.futures import wait

    tasks = []
    try:
        for item in items:
            tasks.append(executor().submit(fn, item))
        tasks.reverse()  # popped from the end, so each is dropped once its result is taken
        while tasks:
            yield tasks.pop().result()
    finally:
        for task in tasks:
            task.cancel()
        wait(tasks)
