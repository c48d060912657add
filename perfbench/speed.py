"""References that track the speed of a shared CPU.

The machine this benchmark was defined on is shared with other tenants.
Its speed switches between a fast and a slow state, up to 1.6x apart, every
few seconds, so raw times spread far more than the regressions the bounds
must catch.  The benchmark therefore reports times at a fixed nominal speed,
measured against two references that use no radfact code, so that a change
to the program cannot move them:

* In-process jobs: a fixed kernel runs between jobs, on the same CPU as the
  jobs, and each job is reported as

      nominal = measured * NOMINAL_S / mean(kernel samples either side of it)

  The kernel's mix of small-int arithmetic, dict stores, Fractions and
  small numpy gathers follows the program's.

* Fresh processes: an interpreter that imports numpy runs just before and
  just after each probe (`probes.reference_time`), and the probe is
  reported as

      nominal = measured * REFERENCE_NOMINAL_S / mean(the two references)

  The in-process kernel does not track fresh processes: they slow down by
  another factor in the slow state than it does.

The result records keep the unscaled values next to the nominal ones.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from math import gcd
from time import perf_counter

import numpy as np

NOMINAL_S = 0.010
REFERENCE_NOMINAL_S = 0.25

_TABLE = (np.arange(96)[:, None] * np.arange(96)[None, :]) % 96
_IDX = np.arange(96)


def kernel():
    acc, seen = 0, {}
    for i in range(1, 20_000):
        acc = (acc * 31 + gcd(i, 360360)) % 1_000_003
        seen[acc & 511] = (i, acc)
    f = Fraction(0)
    for i in range(1, 120):
        f += Fraction(i, i + 3)
    for g in range(0, 96, 4):
        np.unique(_TABLE[_IDX, g])
    return acc, len(seen), f


def at_reference_speed(pairs) -> float:
    """Median probe time at the reference's nominal speed, from (probe
    seconds, mean reference seconds around the probe) pairs."""
    return statistics.median(t / ref for t, ref in pairs) * REFERENCE_NOMINAL_S


def sample() -> float:
    """Seconds one kernel run takes right now."""
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0
