"""Deterministic work partitioning for the enumeration suites.

Results are always assembled in task order, so output is identical for
any worker count.
"""

import os


def parallel_map(func, tasks, jobs):
    """[func(t) for t in tasks], on at most jobs worker processes and
    never more than there are tasks or CPUs.  multiprocessing is imported
    only to start a pool, so a one-worker run does not load it."""
    tasks = list(tasks)
    jobs = min(jobs or 1, len(tasks), os.cpu_count() or 1)
    if jobs <= 1:
        return [func(t) for t in tasks]
    import multiprocessing

    ctx = multiprocessing.get_context("fork" if "fork" in multiprocessing.get_all_start_methods() else None)
    with ctx.Pool(jobs) as pool:
        return pool.map(func, tasks)
