"""Two methods of the retired worker pool, which no run reaches: every run
steps its batches in one process (`walk.over_batches`), and no package
module imports this one.  `bench/tracer.py` still wraps both by name.
"""


class WorkerPool:
    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return [fn(task) for task in tasks]
