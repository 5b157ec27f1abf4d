"""Machine-speed gauge: a fixed reference task timed between operations.

The benchmark's host is a few cores of a shared machine, and its speed
drifts by tens of percent over seconds to minutes as neighbours come and
go: on the reference machine (2 vCPUs of a shared Intel Xeon) the median
time of one tsagg operation over 40 s windows varied by 20 % between
windows, while the ratio of two different tsagg operations timed side by
side stayed within 2 %.  So wall times taken at different moments are not
comparable, but ratios to work done at the same moment are.

The gauge times a fixed reference task after every operation (for about
DUTY of the operation's own time) and scales the operation's wall time by

    REFERENCE_S / (mean reading within WINDOW_S of the operation)

which reads as seconds on the reference machine at its usual speed.  The
task imitates the program's mix -- Python control flow around small dense
numpy pivots -- and imports nothing from tsagg, so no change to the program
can change it.  Raw wall times are kept next to the scaled ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Typical ``reading()`` on the reference machine.  Only the unit of the
# scaled times depends on it: changing it would rescale every reported time
# by one factor, so it stays fixed.
REFERENCE_S = 0.040
WINDOW_S = 2.0   # readings this close to an operation describe its speed
DUTY = 0.25      # gauge time per second of operation time (at least one reading)

_ROWS, _COLS = 14, 40
_TABLEAU = np.random.default_rng(20220607).uniform(1.0, 2.0, (_ROWS, _COLS))
_TABLEAU[:, :_ROWS] += 4.0 * _ROWS * np.eye(_ROWS)  # diagonal pivots stay large
_PASSES = 300


def _task() -> float:
    """Gauss-Jordan pivots on a fixed tableau plus per-row Python work."""
    check = 0.0
    for _ in range(_PASSES):
        T = _TABLEAU.copy()
        basis = []
        for r in range(_ROWS):
            T[r] /= T[r, r]
            col = T[:, r].copy()
            col[r] = 0.0
            T -= np.outer(col, T[r])
            basis.append(int(np.argmax(T[r, _ROWS:])) + _ROWS)
        check += float(T[:, -1].sum()) + len(tuple(sorted(set(basis))))
    return check


class Gauge:
    """Readings of the reference task, and operation times scaled by them."""

    def __init__(self):
        _task()  # the first run pays for numpy's lazy set-up
        self.readings: list[tuple[float, float]] = []  # (mid time, seconds)
        self.take(0.0)

    def take(self, busy_seconds: float) -> None:
        """Read for about DUTY * busy_seconds, and at least once."""
        spent = 0.0
        while True:
            t0 = time.perf_counter()
            _task()
            t1 = time.perf_counter()
            self.readings.append((0.5 * (t0 + t1), t1 - t0))
            spent += t1 - t0
            if spent >= DUTY * busy_seconds:
                return

    def scale(self, start: float, end: float, raw_seconds: float) -> float:
        """Scale the time of an operation that ran from ``start`` to ``end``."""
        near = [s for t, s in self.readings if start - WINDOW_S <= t <= end + WINDOW_S]
        return raw_seconds * REFERENCE_S / statistics.fmean(near)

