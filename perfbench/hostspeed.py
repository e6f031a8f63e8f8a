"""Host speed, sampled while a command runs.

On a shared machine the speed of one core can change by up to 2x from one
minute to the next, because of work on other virtual machines, so the wall
time of the same command drifts with it.  A sampler thread times a fixed
pure-Python loop every ``PERIOD_S`` seconds while the command runs.  The
loop does not use the program, so a change to the program cannot move it.
It is timed in the thread's CPU time, which leaves out the time the thread
waits for the interpreter lock.  The process must be pinned to one CPU
(``pin_to_one_cpu``) so that the loop runs on the core the command runs on;
unpinned, the loop's time followed the command's only loosely.

The host's speed over an interval, relative to the reference, is the mean
of ``REFERENCE_S / loop time`` over the samples taken in it.  A wall time
measured over the interval, multiplied by that speed, is the time the same
work takes at the reference speed: the *reference time* that the benchmark
gates.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

PERIOD_S = 0.05
LOOP_REPS = 300
# About the loop's time on a quiet 2-vCPU x86_64 host; it only scales the
# reference times.
REFERENCE_S = 5e-4

_XS = [0.1 * i for i in range(32)]


def calibration_loop() -> float:
    """CPU time the calling thread spends on a fixed loop of float
    arithmetic on small lists."""
    t0 = time.thread_time()
    acc = 0.0
    for _ in range(LOOP_REPS):
        ys = [v * 1.0001 + 0.5 for v in _XS]
        acc += sum(ys) / len(ys)
    return time.thread_time() - t0


def pin_to_one_cpu():
    """Pin the calling thread, and the threads it starts later, to the
    lowest CPU it may run on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class HostSpeed:
    """Samples the calibration loop from a daemon thread until ``stop``."""

    def __init__(self):
        self.samples: list = []  # (time at the end of the loop, loop time)
        self._stopped = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()

    def _sample(self):
        while not self._stopped.wait(PERIOD_S):
            took = calibration_loop()
            self.samples.append((time.perf_counter(), took))

    def stop(self):
        """Stop sampling; take one sample now if none was taken."""
        self._stopped.set()
        self._thread.join()
        if not self.samples:
            took = calibration_loop()
            self.samples.append((time.perf_counter(), took))


def speed_of(samples: list, t0: float, t1: float) -> float:
    """Mean speed relative to the reference between ``t0`` and ``t1``, from
    ``(time, loop time)`` samples; from every sample when none fell in the
    interval."""
    took = [s for t, s in samples if t0 <= t <= t1] or [s for _, s in samples]
    return statistics.fmean(REFERENCE_S / s for s in took)
