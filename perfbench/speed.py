"""Machine-speed sampling for the end-to-end timings.

The benchmark runs on a few cores of a shared host, whose speed drifts by
tens of percent within seconds as other tenants come and go. The drift slows
the program's CPU work and a fixed piece of CPU work alike. So while an
operation runs, a thread of the harness times a short fixed slice of work
every ``PERIOD_S`` seconds, by its own CPU time, and the operation's times
are scaled by

    SLICE_REF_S / mean(slice times during the interval)

That gives the operation's time on a machine on which one slice takes
``SLICE_REF_S`` seconds. The slice is the benchmark's own code and does not
call the program, so a change to the program moves the scaled time as it
moves the raw one; the raw times are reported next to the scaled ones.

The slice mixes what the program spends its time on: interpreted Python with
float arithmetic and numpy calls on length-4 vectors, whose cost is the call
overhead, as in the per-step kernels. It takes about 2.5 ms every 100 ms, so
the sampler uses about 2.5 % of one core.
"""

from __future__ import annotations

import statistics
import threading
import time

import numpy as np

SLICE_REF_S = 0.0025  # the unit of the scaled times: a machine on which one slice takes this
SLICE_ITERATIONS = 200
PERIOD_S = 0.1


def slice_s() -> float:
    """CPU seconds of one slice of fixed work, timed on the calling thread."""
    t0 = time.thread_time_ns()
    w = np.array([0.8, -0.45, 0.3, 0.25])
    x = np.array([0.5, 0.5, -0.5, 0.5])
    s = 0.0
    for _ in range(SLICE_ITERATIONS):
        g = (float(w @ x) - 0.1) * x
        w = w - 0.001 * np.sign(g) * np.abs(g) ** 0.5
        for j in range(40):
            s += (j * 0.5) / (j + 1.0)
    elapsed = (time.thread_time_ns() - t0) / 1e9
    if not (np.isfinite(w).all() and s > 0):
        raise RuntimeError("speed slice went wrong")
    return elapsed


class SpeedSampler:
    """Times one slice at once and then one every ``PERIOD_S``, until stopped.

        with SpeedSampler() as sampler:
            ...                       # the operation
        sampler.mean_s(t0, t1)        # mean slice seconds between two now_ns() stamps
    """

    def __init__(self, clock=time.monotonic_ns):
        self._clock = clock
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self.samples: list[tuple[int, float]] = []  # (end of slice in ns, slice seconds)

    def _loop(self) -> None:
        while True:
            seconds = slice_s()
            self.samples.append((self._clock(), seconds))
            if self._stop.wait(PERIOD_S):
                return

    def __enter__(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def mean_s(self, start_ns: int, end_ns: int) -> float:
        """Mean slice seconds of the slices that ended in ``[start_ns, end_ns]``,
        or of all slices if none did."""
        inside = [s for t, s in self.samples if start_ns <= t <= end_ns]
        return statistics.mean(inside or [s for _, s in self.samples])


def scale(raw: float, mean_slice_s: float) -> float:
    """``raw`` seconds at the reference speed, given the mean slice time over them."""
    return raw * SLICE_REF_S / mean_slice_s
