"""Timing against a yardstick, for a machine whose speed drifts.

Other tenants of a shared machine slow identical work by up to 2x, in spells
that last from a second to minutes, so the raw times of two runs minutes
apart differ by more than most code changes do. A fixed yardstick
computation, timed right before and right after each measured call, is slowed
by the same spells. ``Clock.measure`` scales the call's seconds by
``NOMINAL_S`` over the yardstick's mean time: the seconds the call would have
taken with the machine at the speed where the yardstick takes ``NOMINAL_S``.
The raw seconds are kept next to the scaled ones.

The yardstick runs in the benchmark's own process and never calls attrseq, so
a change to attrseq moves the scaled time exactly as much as the raw time. A
change that left work running between calls (a thread, a child process)
would slow the yardstick too; the raw times in the results file show that.
"""

import time
from dataclasses import dataclass

import numpy as np

perf = time.perf_counter

# The yardstick's time on an unloaded 2-vCPU Xeon VM at 2.1 GHz (numpy 2.4,
# one OpenBLAS thread). It only sets the scale: scaled seconds read as seconds
# on that machine.
NOMINAL_S = 0.040
STEPS, WIDTH = 2000, 50


@dataclass
class Timing:
    start: float  # perf_counter() when the call began
    raw: float  # seconds as measured
    scaled: float  # seconds at the yardstick's nominal speed


class Clock:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.w = rng.standard_normal((4, WIDTH, WIDTH)) * 0.1
        self.x = rng.standard_normal(WIDTH)
        self.spent = 0.0  # seconds spent in yardsticks so far

    def yardstick(self):
        """Seconds for a fixed LSTM-like recurrence of small numpy operations,
        the same kind of work as the encoder's per-step loop."""
        t0 = perf()
        h, c = self.x.copy(), np.zeros_like(self.x)
        for _ in range(STEPS):
            z = self.w @ h
            i, f, o = (1.0 / (1.0 + np.exp(-z[k])) for k in range(3))
            c = f * c + i * np.tanh(z[3])
            h = o * np.tanh(c)
        seconds = perf() - t0
        self.spent += seconds
        return seconds

    def measure(self, fn):
        """Run fn between two yardsticks; returns (fn's result, Timing).

        Yardsticks of measurements nested inside fn do not count toward its time.
        """
        before = self.yardstick()
        spent = self.spent
        t0 = perf()
        result = fn()
        raw = perf() - t0 - (self.spent - spent)
        after = self.yardstick()
        return result, Timing(t0, raw, raw * NOMINAL_S / ((before + after) / 2))
