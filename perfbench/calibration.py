"""A fixed machine-speed calibration, and the normalisation it allows.

The calibration is two loops that never change: one in pure Python (integer
arithmetic and dict stores, like the scenario engines' inner loops) and one
numpy kernel (a sort of a fixed array, like the visited-set merges).
:func:`calibrate` times both, best of three, before and after every run, and
the raw samples go into the run's detail record.

Each vCPU of the shared box this benchmark was built on flips between a fast
mode and slower ones, up to 2× apart, every few hundred milliseconds, and the
two vCPUs flip independently.  A slice timed before a repetition says little
about the seconds that follow, so :class:`SpeedSampler` samples the speed
*while* the measured code runs: a wall-clock timer interrupts the benchmark
process every ``SAMPLE_INTERVAL_S`` and times a short pass of the Python loop
on whichever vCPU the process is on just then.  A measured interval's
slowdown is the harmonic mean of the samples taken in it, so that dividing
its wall time by the slowdown gives the time the reference machine would
have taken.  Normalisation only rescales measurements; it never changes a
bound.  The raw figures stay in the detail record.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import Dict, List, Optional, Tuple

_CALIBRATION_ITERATIONS = 400_000
_SAMPLE_ITERATIONS = 1_000
_NUMPY_ELEMENTS = 1 << 20
_REPEATS = 3

#: Seconds between two speed samples (each costs about 1% of that).
SAMPLE_INTERVAL_S = 0.02
#: Seconds one speed sample takes on the reference machine: the 2-vCPU VM
#: the benchmark was built on, in its fast mode.
REFERENCE_SAMPLE_S = 0.000165
#: A measured interval too short to hold a sample borrows this many of the
#: samples nearest to it.
_NEAREST = 5


def _python_loop(iterations: int) -> int:
    table: Dict[int, int] = {}
    acc = 0
    for i in range(iterations):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[acc & 1023] = i
    return acc + len(table)


class SpeedSampler:
    """Samples machine speed from a ``SIGALRM`` timer while it is started.

    Only the main thread of one process may use it.  Pool workers forked
    meanwhile inherit the handler but not the timer, so they are not
    sampled; the samples follow the benchmark process across vCPUs.
    """

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []  # (start, seconds)
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        _python_loop(_SAMPLE_ITERATIONS)
        self.samples.append((start, time.perf_counter() - start))

    def start(self) -> "SpeedSampler":
        global _active
        _active = self
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def stop(self) -> None:
        global _active
        _active = None
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def __enter__(self) -> "SpeedSampler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def slowdown(self, start: float, end: float) -> float:
        """How many times slower than the reference the machine ran in
        ``[start, end]`` (``perf_counter`` stamps): the harmonic mean of the
        samples taken in it, or of the nearest ones if it holds none."""
        inside = [s for t, s in self.samples if start <= t <= end]
        if not inside:
            nearest = sorted(self.samples, key=lambda ts: max(start - ts[0], ts[0] - end))
            inside = [s for _, s in nearest[:_NEAREST]]
        return 1.0 / statistics.mean(REFERENCE_SAMPLE_S / s for s in inside)

    def summary(self) -> Dict[str, float]:
        """Count and quartiles of the raw sample times, for the detail record."""
        times = [s for _, s in self.samples]
        if len(times) < 2:
            return {"count": len(times)}
        q1, q2, q3 = statistics.quantiles(times, n=4)
        return {"count": len(times), "q1_s": q1, "median_s": q2, "q3_s": q3}


_active: Optional[SpeedSampler] = None


def mark() -> None:
    """Take one speed sample now, if a sampler is running.

    The timer samples every ``SAMPLE_INTERVAL_S``; an operation of a few
    milliseconds is bracketed by two marks instead, so that its slowdown
    comes from samples taken right next to it.
    """
    if _active is not None:
        _active._sample(None, None)


def calibrate() -> Dict[str, object]:
    """Best-of-three seconds of each loop, with every raw sample."""
    import numpy as np

    values = np.random.default_rng(0).integers(0, 1 << 62, _NUMPY_ELEMENTS, dtype=np.uint64)
    python_s: List[float] = []
    numpy_s: List[float] = []
    for _ in range(_REPEATS):
        start = time.perf_counter()
        _python_loop(_CALIBRATION_ITERATIONS)
        python_s.append(time.perf_counter() - start)
        start = time.perf_counter()
        np.sort(values)
        numpy_s.append(time.perf_counter() - start)
    return {
        "python_s": min(python_s),
        "numpy_s": min(numpy_s),
        "python_samples_s": python_s,
        "numpy_samples_s": numpy_s,
    }
