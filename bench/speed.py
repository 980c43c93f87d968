"""Machine-speed calibration.

On a shared machine the speed of a core drifts by a third or more over tens
of seconds, as neighbours come and go. The benchmark times a fixed kernel
next to every timed interval and rescales that interval to a reference
speed: reference seconds = wall seconds * reference kernel time / kernel
time. The kernel mixes what the pipeline spends its time on (interpreter
loops over dicts, JSON text, NumPy sorting) and uses nothing from chn2, so
no change to the package can move it. A job that runs on several threads is
calibrated by as many copies of the kernel running at once, because a
neighbour that slows one core slows a one-thread job and a two-thread job
differently.
"""

import json
import statistics
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# One kernel's time on the 2-core VM the benchmark was written on (x86-64,
# Python 3.11, NumPy 2.4) when it runs undisturbed; there, reference seconds
# read as wall seconds for one-thread jobs.
REFERENCE_S = 0.075

_ARRAY = np.random.default_rng(0).random(500_000)
_RECORDS = [[i, str(i), i / 7] for i in range(30_000)]


def _kernel(_=None) -> None:
    counts = {}
    for i in range(150_000):
        counts[i % 977] = counts.get(i % 977, 0) + i
    np.sort(_ARRAY)
    json.loads(json.dumps(_RECORDS))


def kernel_seconds(threads: int = 1) -> float:
    """Wall time of `threads` kernels started together."""
    t0 = time.perf_counter()
    if threads == 1:
        _kernel()
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(_kernel, range(threads)))
    return time.perf_counter() - t0


def calibrate(threads: int = 1) -> float:
    """Median of three kernel timings: one sample of the machine's speed."""
    return statistics.median(kernel_seconds(threads) for _ in range(3))


class SpeedClock:
    """Times jobs in wall and reference seconds.

    A job is a generator that pauses (yields) between its phases and returns
    its outputs. The clock samples the machine's speed before the job, at
    every pause and after it, and rescales each phase by the mean of the
    samples on either side, so a phase of a few seconds is judged by the
    speed of its own moment, not that of the whole job.
    """

    def __init__(self, threads: int = 1):
        self.threads = threads
        self.kernel_s = calibrate(threads)

    def rescale(self, wall: float) -> float:
        """Reference seconds of an interval of `wall` seconds that ended just now."""
        before, self.kernel_s = self.kernel_s, calibrate(self.threads)
        # Kernels on several threads share one interpreter lock, so their
        # undisturbed time is close to one kernel's time per thread.
        return wall * REFERENCE_S * self.threads / ((before + self.kernel_s) / 2)

    def run(self, job):
        """Drive the job to its end; returns (outputs, wall s, reference s)."""
        wall = reference = 0.0
        while True:
            t0 = time.perf_counter()
            try:
                next(job)
                outputs, finished = None, False
            except StopIteration as stop:
                outputs, finished = stop.value, True
            elapsed = time.perf_counter() - t0
            wall += elapsed
            reference += self.rescale(elapsed)
            if finished:
                return outputs, wall, reference
