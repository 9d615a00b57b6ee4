"""Host-speed calibration for the end-to-end times.

On a shared host the CPU's speed moves by up to about 2x, in spells from a
second to minutes, so a wall time measures the host as much as the program.
While an operation runs, a timer interrupts it every GAP_S seconds to run
one short burst of a fixed calibration kernel on the same thread. The
bursts sample the host's speed at the same moments and on the same CPU as
the operation; their time is taken out of the operation's, and the
operation's time over a burst's is steady where either alone is not.

The kernel is fixed numpy work shaped like the program's solver step
(MUSCL slopes with a minmod limiter, Rusanov fluxes, a conservative update)
on as many cells as the workload's grid. It uses nothing from the program,
so a change to the program cannot move it. NOMINAL_BURST_S rescales the
ratio to seconds: a normalised time is the operation's time on a host where
one burst takes NOMINAL_BURST_S.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

GAP_S = 0.1               # operation time between two bursts
NOMINAL_BURST_S = 0.025   # about a burst's time on a quiet 2-core VM


def _kernel(n, steps):
    x = np.linspace(-1.0, 1.0, n)
    r = 1.0 + 0.1 * np.tanh(5.0 * x)
    m = 0.05 * np.exp(-x * x)
    for _ in range(steps):
        R = np.concatenate([r[:1], r, r[-1:]])
        M = np.concatenate([m[:1], m, m[-1:]])
        dR, dM = np.diff(R), np.diff(M)
        sr = np.where(dR[:-1] * dR[1:] > 0,
                      np.where(np.abs(dR[:-1]) < np.abs(dR[1:]), dR[:-1], dR[1:]), 0.0)
        sm = np.where(dM[:-1] * dM[1:] > 0,
                      np.where(np.abs(dM[:-1]) < np.abs(dM[1:]), dM[:-1], dM[1:]), 0.0)
        rl, rr = np.maximum(r - 0.5 * sr, 0.0), np.maximum(r + 0.5 * sr, 0.0)
        ml, mr = m - 0.5 * sm, m + 0.5 * sm
        u = np.where(rl > 0, ml / np.where(rl > 0, rl, 1.0), 0.0)
        s = np.abs(u) + np.sqrt(np.maximum(2.0 * rl, 0.0))
        f = 0.5 * (mr[:-1] + ml[1:]) - 0.5 * np.maximum(s[:-1], s[1:]) * (rl[1:] - rr[:-1])
        g = 0.5 * (mr[:-1] ** 2 / rr[:-1] + rr[:-1] ** 2) - 0.5 * s[1:] * (ml[1:] - mr[:-1])
        r, m = r.copy(), m.copy()
        r[1:-1] -= 1e-3 * (f[1:] - f[:-1])
        m[1:-1] -= 1e-3 * (g[1:] - g[:-1])
    return r


@dataclass
class Calibration:
    """The bursts run during one operation."""

    wall: float = 0.0   # seconds the bursts took
    cpu: float = 0.0    # process CPU seconds of the bursts
    bursts: int = 0

    def normalise(self, wall, cpu):
        """An operation's wall and CPU seconds at the nominal host speed."""
        return (wall * NOMINAL_BURST_S * self.bursts / self.wall,
                cpu * NOMINAL_BURST_S * self.bursts / self.cpu)


class Calibrator:
    """Bursts of `steps` kernel steps on `cells` cells."""

    def __init__(self, cells, steps):
        self.cells, self.steps = cells, steps
        _kernel(cells, steps)    # warm-up, untimed

    def _burst(self, cal):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        _kernel(self.cells, self.steps)
        cal.wall += time.perf_counter() - wall0
        cal.cpu += time.process_time() - cpu0
        cal.bursts += 1

    @contextmanager
    def sampling(self):
        """Run a burst every GAP_S seconds of the enclosed code, and one at
        the end if none ran; yields the Calibration they fill in."""
        cal = Calibration()

        def on_alarm(signum, frame):
            self._burst(cal)
            signal.setitimer(signal.ITIMER_REAL, GAP_S)

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, GAP_S)
        try:
            yield cal
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            if cal.bursts == 0:
                self._burst(cal)
