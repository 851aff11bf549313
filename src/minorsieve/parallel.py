"""The one ordered parallel map behind every ``jobs`` argument.

``multiprocessing`` is imported only when a map starts a pool, so a
``jobs=1`` run never loads it.
"""

from __future__ import annotations

import os


def worker_count(jobs: int, tasks: int) -> int:
    """Workers for ``tasks`` items at a request of ``jobs``.

    Raises ValueError for ``jobs`` below 1; otherwise capped at the CPUs
    this process may run on and at the number of tasks.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count() or 1
    return max(1, min(jobs, cpus, tasks))


def parallel_map(func, items: list, jobs: int) -> list:
    """``[func(x) for x in items]``, spread over up to ``jobs`` workers."""
    workers = worker_count(jobs, len(items))
    if workers == 1:
        return [func(x) for x in items]
    from multiprocessing import get_context
    # fork: the package starts no threads, and a pool is made per order,
    # so spawn would re-import the package in every worker of every pool
    with get_context("fork").Pool(workers) as pool:
        return pool.map(func, items, chunksize=1)
