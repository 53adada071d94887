"""A fixed pure-Python workload that gauges the host's momentary speed.

Shared hosts slow a process down for seconds to minutes at a time.  On
a 2-vCPU Intel Xeon VM, the median time of the same passes over
10-second windows ranged from 0.80 to 1.26 times its overall median
within 90 seconds.  The worker times this loop between passes and
scales each pass time by NOMINAL_S over the loop's time around that
pass; the scaled window medians ranged from 0.96 to 1.09.  The loop
does what the library does most: small-object allocation, 2x2 float
products, complex Mobius maps and dict updates.  It uses nothing from
``shearlab``, so a change to the library cannot change it.
"""

from __future__ import annotations

import math
from time import perf_counter

NOMINAL_S = 0.012         # about the loop's time on an idle core of that VM


class _Mat:
    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a, self.b, self.c, self.d = a, b, c, d

    def __matmul__(self, o):
        return _Mat(self.a * o.a + self.b * o.c, self.a * o.b + self.b * o.d,
                    self.c * o.a + self.d * o.c, self.c * o.b + self.d * o.d)

    def apply(self, z):
        return (self.a * z + self.b) / (self.c * z + self.d)


def _loop(steps=6000):
    start = _Mat(1.0, 0.1, 0.05, 1.0)
    m, z, acc = start, 0.3 + 1j, {}
    for i in range(steps):
        ch, sh = math.cosh(0.001 * i), math.sinh(0.001 * i)
        m = m @ _Mat(ch, sh, sh, ch)
        z = m.apply(z)
        z = complex(z.real % 1.0, abs(z.imag) % 2.0 + 0.5)
        acc[i % 97] = acc.get(i % 97, 0.0) + z.real
        if i % 50 == 0:
            m = start
    return acc


def seconds() -> float:
    """Time of one run of the loop."""
    t0 = perf_counter()
    _loop()
    return perf_counter() - t0


def median_seconds(runs=3) -> float:
    """Median time of a few runs of the loop."""
    return sorted(seconds() for _ in range(runs))[runs // 2]
