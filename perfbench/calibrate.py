"""Host-speed calibration for the dsmedian benchmark.

On a shared host, single-threaded code runs in fast and slow phases that
last from seconds to minutes and are up to 1.9x apart, so raw timings of
one run depend on the phases it happened to see.  Each timed pass is
therefore bracketed by this calibration: a fixed routine of small-array
numpy calls and Python arithmetic, independent of dsmedian, whose time
slows by the same factor.  A timing scaled by CAL_REFERENCE_S / calibration
reads as seconds at the reference speed.
"""

from __future__ import annotations

import math
import time

import numpy as np

#: Calibration time on the 2-vCPU Xeon host where the benchmark was
#: defined, in its fast phase: the reference speed of every scaled timing.
CAL_REFERENCE_S = 0.0011

_DATA = np.random.default_rng(0).standard_normal(600)


def _routine() -> float:
    s = 0.0
    for _ in range(100):
        b = np.sort(_DATA)
        s += float(np.exp(-0.5 * b * b).sum())
        s += sum(range(300))
    return s


def calibration_s(repeats: int = 3) -> float:
    """Fastest of ``repeats`` timings of the calibration routine."""
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        _routine()
        best = min(best, time.perf_counter() - t0)
    return best


def speed_factor(*calibrations: float) -> float:
    """Scale that converts a timing taken next to these calibrations into
    seconds at the reference speed."""
    return CAL_REFERENCE_S * len(calibrations) / sum(calibrations)
