"""Deterministic worker-pool mapping for independent simulation jobs.

Every ensemble in this package is a list of independent tasks reduced
in task order, so parallel execution cannot change any result; the pool
only changes wall-clock time.  Worker count resolution: explicit value,
else the QWTOPO_THREADS environment variable, else 1, at most
`os.cpu_count()`: a forked pool starts every worker at its first task.
"""

from __future__ import annotations

import os

ENV_THREADS = "QWTOPO_THREADS"


def thread_count(explicit=None) -> int:
    if explicit is not None:
        n = int(explicit)
    else:
        try:
            n = int(os.environ.get(ENV_THREADS, "1"))
        except ValueError:
            n = 1
    return max(1, min(n, os.cpu_count() or 1))


class WorkerPool:
    """Ordered map over tasks, serial for 1 worker, processes otherwise."""

    def __init__(self, threads=None):
        self.threads = thread_count(threads)
        self._executor = None

    def __enter__(self) -> "WorkerPool":
        if self.threads > 1:  # one-worker runs never load multiprocessing
            from concurrent.futures import ProcessPoolExecutor
            self._executor = ProcessPoolExecutor(max_workers=self.threads)
        return self

    def __exit__(self, *exc):
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None
        return False

    def map(self, fn, tasks):
        tasks = list(tasks)
        if self._executor is None or len(tasks) <= 1:
            return [fn(task) for task in tasks]
        chunk = max(1, len(tasks) // (4 * self.threads))
        return list(self._executor.map(fn, tasks, chunksize=chunk))
