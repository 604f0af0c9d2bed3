"""The process's one worker thread, and when work may run on it.

numpy releases the interpreter lock inside BLAS and most array loops, so
a worker thread that calls single-threaded BLAS runs beside the caller:
two threads on 199-square GEMMs gave 1.7-2.3 times one thread's
throughput on 2 CPUs. That pays only when a second CPU is free of BLAS
(``second_cpu_free``). A multithreaded BLAS already uses it, and on one
CPU the threads only interleave, so the caller keeps a serial path for
those cases, and both paths give the same bytes.

Its one user is ``objective.eval_objective``, which sums the dual gramian
on the worker beside the primal sum. ``concurrent.futures`` is imported
when the worker is first used, so a process that never uses it does not
pay for the import.
"""

from __future__ import annotations

import os

# The variables that set the BLAS thread count, in the order OpenBLAS and MKL
# read them.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "GOTO_NUM_THREADS",
                     "OMP_NUM_THREADS")

_pool = None  # (pid, executor), started on first use


def second_cpu_free() -> bool:
    """Whether a second CPU is free of BLAS, so that work on the worker runs beside the caller.

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
    """The process's one single-worker executor, a fresh one in a forked child.

    A forked child's copy of the parent's executor has no thread, so work
    submitted to it would never run.
    """
    global _pool
    if _pool is None or _pool[0] != os.getpid():
        from concurrent.futures import ThreadPoolExecutor

        _pool = (os.getpid(), ThreadPoolExecutor(max_workers=1, thread_name_prefix="vsmtune"))
    return _pool[1]
