"""Timing of library calls, scaled to a fixed reference machine speed.

On a small shared machine the speed of one core drifts by tens of
percent within seconds (a fixed numpy-and-interpreter loop measured
0.85x to 1.6x its median speed in half-second windows over 40 s), which
swamps any change to the library.  The clock therefore runs a fixed
reference computation, the probe, which does not touch gddp, after
every timed call.  A call's scaled time is its wall time multiplied by
``PROBE_REF_S`` over the mean of the probe times measured just before
and just after it: the time the call would take on a machine where the
probe takes ``PROBE_REF_S``.  Raw wall time is kept alongside.
"""

from __future__ import annotations

import time

import numpy as np

PROBE_REF_S = 1e-3
PROBE_LOOPS = 80
_PROBE_A = np.random.default_rng(0).standard_normal((6, 6)) + 6.0 * np.eye(6)
_PROBE_B = np.ones(6)


def probe() -> float:
    """Wall time of a fixed mix of small linear algebra and interpreter work."""
    t0 = time.perf_counter()
    for _ in range(PROBE_LOOPS):
        x = np.linalg.solve(_PROBE_A, _PROBE_B)
        y = _PROBE_A @ x + np.einsum("ij,j->i", _PROBE_A, x)
        s = 0.0
        for v in y.tolist():
            s += v * v
    return time.perf_counter() - t0


class Clock:
    """Times calls; keeps the scaled and the raw total."""

    def __init__(self):
        self._last_probe = probe()
        self.raw_s = 0.0
        self.scaled_s = 0.0

    def call(self, fn, *args):
        """(fn(*args), scaled seconds)."""
        t0 = time.perf_counter()
        out = fn(*args)
        raw = time.perf_counter() - t0
        p = probe()
        scaled = raw * PROBE_REF_S / (0.5 * (self._last_probe + p))
        self._last_probe = p
        self.raw_s += raw
        self.scaled_s += scaled
        return out, scaled
