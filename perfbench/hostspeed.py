"""How fast the host runs pure Python right now.

The benchmark runs on a few cores of a shared host whose speed drifts by
a third and more over minutes, with the load of its neighbours. Every
time the benchmark reports is measured together with this probe, a
fixed piece of pure-Python work that shares no code with simdom, and is
rescaled to the probe's nominal speed:

    reported = measured * NOMINAL_S * probes / (summed probe time)

A change to simdom moves the measured time and not the probe, so it
shows in full; a slow spell of the host moves both, and mostly cancels.
The probe is integer and Fraction arithmetic (the exact simplex works in
Fractions); it tracked the program's times better than a probe of dict
and set graph work did. It allocates nothing that outlives it, and it
runs with the garbage collector off, so its cost does not depend on how
much the program has left on the heap.

Only the standard library is used here.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

# About the median probe time on a 2-core VM under Python 3.11.7. It only
# sets the scale of the reported figures.
NOMINAL_S = 0.025

_FRACTIONS = [Fraction(i + 1, 2 * i + 3) for i in range(60)]


def _work() -> int:
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    t = Fraction(0)
    for k in range(6):
        for i in range(60):
            t += _FRACTIONS[i] * _FRACTIONS[(i * 7 + k) % 60] - _FRACTIONS[(i + k) % 60] / 3
            t = Fraction(t.numerator % 10**12, t.denominator % 10**12 + 1)
    return acc + t.numerator


def probe() -> float:
    """Seconds the fixed work takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(measured: float, probe_total: float, probes: int) -> float:
    """measured, rescaled to the host speed at which a probe takes NOMINAL_S."""
    return measured * NOMINAL_S * probes / probe_total
