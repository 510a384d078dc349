"""Host speed calibration for the benchmark's time metrics.

A shared host can change speed by about 1.5x for tens of seconds at a time
(another tenant's load on the sibling hardware thread), which moves a
run's median more than any bound worth having.  So a fixed kernel is timed
just before and just after each measurement, outside the timed region, and
the measured time is scaled by ``REFERENCE_S`` over the kernel's mean time:
host time as it would read on a host that runs the kernel in
``REFERENCE_S``.

The kernel has the operation mix of a scan (per-character dict lookups of
Decimal pairs, Decimal-to-int conversion, tuple building, element-wise
reads of a numpy bool array into a list, a phase-counter loop), so it slows
down with the host the way the simulator does; a plain integer loop tracked
the host's speed changes about a third as well.  The kernel and
``REFERENCE_S`` belong to the benchmark, not to the program under test:
changing either makes earlier figures incomparable.
"""

from decimal import Decimal
from time import perf_counter

import numpy as np

# About the kernel's time on a 2-vCPU x86-64 host at 2.0 GHz with CPython
# 3.11, in its fast state.
REFERENCE_S = 0.004

_PAIRS = {c: (Decimal(lo), Decimal(hi)) for c, lo, hi in
          (("A", "0.19", "0.31"), ("C", "0.32", "0.44"), ("G", "0.46", "0.59"), ("T", "0.63", "0.79"))}
_TEXT = "ACGT" * 1000
_BITS = np.zeros((16, 128), dtype=bool)
_BITS[:, ::3] = True


def kernel_seconds() -> float:
    start = perf_counter()
    cells = [_PAIRS[c] for c in _TEXT]
    lower = [int(lo * 100) for lo, _ in cells]
    rows = [tuple(lower[i:i + 100]) for i in range(0, len(lower), 100)]
    bits = []
    for r in range(_BITS.shape[0]):
        for g in range(0, _BITS.shape[1], 8):
            bits.extend(int(b) for b in _BITS[r, g:g + 8])
    ctr, best = [0, 0, 0], [0, 0, 0]
    for k, b in enumerate(bits + lower + [len(rows)]):
        q = k % 3
        if b:
            ctr[q] += 1
        else:
            best[q] = max(best[q], ctr[q])
            ctr[q] = 0
    return perf_counter() - start


def scale() -> float:
    """Factor that converts a time measured now to reference-host time."""
    return REFERENCE_S / kernel_seconds()
