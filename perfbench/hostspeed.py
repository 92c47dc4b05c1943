"""Host-speed probe: a fixed piece of work timed while the program runs.

The benchmark runs on shared virtual machines whose speed drifts by 20-40%
over seconds to minutes, and Python loops, small numpy calls and BLAS
slow down together (their 5-second means correlate at 0.8-0.99). A
run's wall time therefore measures the host as much as the program.

``Sampler`` runs ``probe`` every ``PERIOD_S`` seconds of wall time, from
a SIGALRM handler in the main thread, while a timed call runs. The mean
probe time during a call says how fast the host was during that call,
and ``scale`` turns a measured time into the time it would have taken on
a host where the probe takes ``REFERENCE_MS``. The probe never touches
the program under test, so a change to the program moves the scaled time
exactly as it moves the wall time.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.05
# Probe time on a quiet host; about the median seen on the 2-core x86_64
# VM the benchmark was written on. Only the scale of reported times
# depends on it.
REFERENCE_MS = 0.85

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((96, 120))
_K = _A @ _A.T + np.eye(96)
_X = _rng.standard_normal(10)
_Y = _rng.standard_normal(10)


def probe() -> float:
    """Time one fixed mix of interpreter, small-numpy and BLAS work, the
    three kinds of work the workloads spend their time in."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(1500):
        s += i * 0.5
    for _ in range(60):
        np.exp(-np.dot(_X - _Y, _X - _Y))
    for _ in range(2):
        np.linalg.cholesky(_K)
        _A @ _A.T
    return time.perf_counter() - t0


class Sampler:
    """Context manager that probes the host every ``PERIOD_S`` seconds.

    ``times`` holds the probe durations; the time spent in probes is part
    of the wall time of the block and is subtracted by the caller.
    """

    def __init__(self):
        self.times = []
        self._previous = None

    def __enter__(self):
        self.times = []
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.times:
            # A block shorter than one period: probe right after it.
            self.times.append(probe())
        return False

    def _on_alarm(self, signum, frame):
        self.times.append(probe())


def scale(seconds: float, probe_times) -> float:
    """``seconds`` measured while the probe took ``probe_times``, rescaled
    to a host where the probe takes ``REFERENCE_MS``."""
    return seconds * (REFERENCE_MS / 1e3) / statistics.fmean(probe_times)
