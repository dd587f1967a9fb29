"""Scale measured times to a reference host speed.

On a shared host the speed of a core swings about twofold for seconds to
minutes at a time (measured: a fixed t=11 kernel call takes either about
185 us or about 360 us, on both CPUs, with no steal time reported), so
raw wall times of the same run spread by 20-35 % between runs.  The
benchmark therefore pins itself to one CPU, and while a repetition (or a
set-up interpreter, which inherits the CPU) runs, a thread times a fixed
numpy probe on that same CPU every 20 ms.  The measured time multiplied
by REF_PROBE_S / (mean probe time) is the time at the reference speed;
scaled wall times spread by 2-7 % between runs.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

import numpy as np

#: Probe time that defines the reference speed, about that of an
#: uncontended core of the host the benchmark was calibrated on.
REF_PROBE_S = 100e-6

_X = np.linspace(0.0, 1.0, 64)


def probe_s() -> float:
    """Time one fixed piece of small-array numpy work, the same mix of
    interpreter and ufunc overhead as qwtopo's kernels."""
    t0 = time.perf_counter()
    x = _X
    for _ in range(20):
        x = np.cos(x) * 0.5 + np.sin(x) * 0.5
    return time.perf_counter() - t0


def pin_to_one_cpu():
    """Run this process, and threads it starts later, on one CPU, so the
    probe sees the core the work runs on.  Forked children such as pool
    workers get every CPU back."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    os.register_at_fork(after_in_child=lambda: os.sched_setaffinity(0, cpus))


class SpeedSampler:
    """Samples probe_s() every `period` seconds while the with-block runs."""

    def __init__(self, period: float = 0.02):
        self.period = period
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.wait(self.period):
            self.samples.append(probe_s())

    def __enter__(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        if not self.samples:
            self.samples.append(probe_s())
        return False

    @property
    def mean_s(self) -> float:
        """Mean probe time over the block."""
        return statistics.fmean(self.samples)

    @property
    def spread(self) -> float:
        """Standard deviation of the probe times over their mean."""
        if len(self.samples) < 2:
            return 0.0
        return statistics.stdev(self.samples) / self.mean_s

    @property
    def scale(self) -> float:
        """Factor that turns a time measured in the block into a time at
        the reference speed."""
        return REF_PROBE_S / self.mean_s
