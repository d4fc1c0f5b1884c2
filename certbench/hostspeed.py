"""Host-speed probe for timed certifications and set-up probes.

On a shared host the same certification can take 1.8x as long while a
neighbour loads the core; such spells come and go within seconds and their
share drifts over minutes, so whole 20 s runs can sit in one state, and raw
times of the same code differ by 20-50% from run to run.  CPU time slows as
much as wall time, so it does not help.  The probe measures the speed
instead: it times a fixed kernel (small dense pivots in Python and numpy,
like the LP code being measured) and rescales a measured time to the
reference speed, the speed at which the kernel takes REFERENCE_S.  The
kernel is the benchmark's own code, so a change to kkt2 cannot move it.

The rescaling is exact only for code that slows as much as the kernel.
Code that slows less (large numpy calls) is over-corrected in a slow spell,
so its reference time reads lower there than in a fast one; see "Host
speed" in BENCHMARK.md for how much.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.05
REFERENCE_S = 0.001

_TABLEAU = np.random.default_rng(0).standard_normal((24, 40))


def _kernel() -> None:
    for _ in range(2):
        T = _TABLEAU.copy()
        for row in range(12):
            col = int(np.argmax(np.abs(T[row])))
            T[row] /= T[row, col]
            for i in range(24):
                if i != row:
                    T[i] -= T[i, col] * T[row]


def kernel_time() -> float:
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def at_reference(seconds: float, kernel_s: float, elasticity: float = 1.0) -> float:
    """``seconds`` measured while the kernel took ``kernel_s``, at the
    reference speed, for code whose time grows as the kernel time to the
    power ``elasticity``."""
    return seconds * (REFERENCE_S / kernel_s) ** elasticity


class HostSpeedProbe:
    """Context manager: samples the kernel time at both ends of the block
    and, from a SIGALRM handler, every PERIOD_S seconds inside it.  The end
    samples mean that even a block shorter than PERIOD_S, or one spent in a
    single C call (the handler runs only between bytecodes), has a speed."""

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def _sample(self, _signum=None, _frame=None) -> None:
        self.samples.append(kernel_time())

    def __enter__(self) -> "HostSpeedProbe":
        self.samples = []
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def own_time(self) -> float:
        """Seconds the probe spent in its kernel during the last block."""
        return sum(self.samples)

    def reference_time(self, wall_s: float) -> float:
        """``wall_s`` of the last block, less the probe's own time, at the
        reference speed."""
        return at_reference(wall_s - self.own_time(), statistics.fmean(self.samples))
