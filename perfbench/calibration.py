"""Machine-speed correction for wall times taken on a shared, noisy machine.

On the 2-vCPU virtual machine this benchmark was built on, the speed of one
vCPU changes by up to 1.8x in phases lasting seconds to tens of seconds
(other guests sharing the host), and each vCPU changes on its own. Medians
of plain wall times over a 30 s run then differ by about 30% between runs,
wider than any useful regression bound.

``SpeedSampler`` interrupts the timed operation every ``PERIOD_S`` seconds of
wall time and runs a fixed reference kernel (small numpy contractions plus
Python object churn, the mix of the package's hot paths, but none of its
code). Each interval of the operation is scaled by REFERENCE_S divided by
the duration of the kernel run that closes it. The sum is the operation's
time in reference seconds: the wall time it would take when the kernel runs
in REFERENCE_S, its fast-state time on that machine. In a two-minute probe
the ratio of operation to kernel time varied by 2% between 5 s windows,
where the plain operation time varied by 37%.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.04
REFERENCE_S = 0.001  # about the kernel's time in the machine's fast state

_rng = np.random.default_rng(20141001)
_BASIS = _rng.standard_normal((24, 105))
_COEFFS = _rng.standard_normal((6, 24, 2))


class _Cell:
    __slots__ = ("key", "value")


def reference_kernel() -> float:
    """Fixed work whose speed tracks the machine's current state."""
    acc = 0.0
    for _ in range(4):
        pos = np.einsum("imd,mj->jid", _COEFFS, _BASIS)
        diff = pos[:, :, None, :] - pos[:, None, :, :]
        dist = np.sqrt((diff * diff).sum(-1)) + 1.0
        acc += float((dist**-2.0).sum())
    table = {}
    for i in range(500):
        cell = _Cell()
        cell.key = str(i)
        cell.value = i * 1.5
        table[cell.key] = cell
        if i % 7 == 0:
            table.pop(str(i - 7), None)
    return acc + len(table)


def kernel_seconds(runs: int = 25) -> float:
    """Median time of the reference kernel over runs back-to-back runs."""
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class SpeedSampler:
    """Context manager that times a block in wall and in reference seconds.

    After the block, ``wall_s`` is its wall time without the kernel runs and
    ``reference_s`` the same time corrected for machine speed.
    ``on_pause(seconds)``, when given, is told the length of each kernel run,
    so a tracer can leave it out of its spans.
    """

    def __init__(self, on_pause=None):
        self.on_pause = on_pause
        self.wall_s = 0.0
        self.reference_s = 0.0
        self._last = 0.0
        self._busy = False
        self._previous_handler = None

    def __enter__(self):
        self.wall_s = self.reference_s = 0.0
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        self._last = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self._close_interval()
        return False

    def _on_alarm(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        try:
            self._close_interval()
        finally:
            self._busy = False

    def _close_interval(self):
        start = time.perf_counter()
        reference_kernel()
        end = time.perf_counter()
        interval = start - self._last
        self.wall_s += interval
        self.reference_s += interval * REFERENCE_S / (end - start)
        self._last = end
        if self.on_pause is not None:
            self.on_pause(end - start)
