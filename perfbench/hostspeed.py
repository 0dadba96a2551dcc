"""Host speed, measured between operations by a fixed calibration kernel.

The benchmark's host is shared: other tenants slow every process on it
by up to 1.7x, in phases that last from seconds to over a minute, so raw
wall times of identical work vary more between runs than any bound a
regression check could use. The kernel below does a fixed amount of the
same kind of work the engine does (small complex einsums, axis moves,
interpreter-level loops) and uses no semiq code, so a change to the
engine cannot change it. Its time just before and just after an
operation gives the host's slowdown during that operation, and the
operation's wall time divided by that slowdown is its wall time at
reference speed: on a host where the kernel takes ``REFERENCE_S``.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# kernel time on an uncontended core of the 2-core x86-64 host the
# benchmark was defined on (Python 3.11, numpy 2.4)
REFERENCE_S = 0.010

_A = (np.arange(64).reshape(4, 4, 4) % 7 - 3) * (1 + 0.5j)
_B = (np.arange(16).reshape(4, 4) % 5 - 2) * (0.5 - 1j)


def kernel_seconds(reps: int = 1000) -> float:
    """Wall seconds of one fixed calibration kernel."""
    t0 = perf_counter()
    acc = 0
    for _ in range(reps):
        x = np.einsum("ijk,kl->ijl", _A, _B)
        x = x + np.moveaxis(x, -1, -2)
        for i in range(40):
            acc += i * i
    return perf_counter() - t0


class SpeedTrack:
    """Calibrations interleaved with operations, at most ``every`` seconds apart."""

    def __init__(self, every: float = 0.1):
        self.every = every
        self.marks = [(0, kernel_seconds())]   # (operations before it, seconds)
        self._since = 0.0

    def after(self, ops_done: int, wall: float) -> None:
        """Record that operation ``ops_done - 1`` took ``wall`` seconds."""
        self._since += wall
        if self._since >= self.every:
            self.marks.append((ops_done, kernel_seconds()))
            self._since = 0.0

    def adjust(self, walls: list) -> list:
        """Each wall time at reference speed, from the calibrations around it."""
        if self.marks[-1][0] < len(walls):
            self.marks.append((len(walls), kernel_seconds()))
        out = []
        k = 0
        for i, wall in enumerate(walls):
            while self.marks[k + 1][0] <= i:
                k += 1
            slowdown = (self.marks[k][1] + self.marks[k + 1][1]) / (2 * REFERENCE_S)
            out.append(wall / slowdown)
        return out
