"""A fixed reference kernel that gauges how fast the machine runs right now.

The shared machine this benchmark was tuned on drifts between speed states
that last tens of seconds: one fixed ``mple_search`` call took 0.26 s in one
state and 0.5 s in another, in CPU time as well as wall time.  The benchmark
times this kernel before and after every replicate and scales the
replicate's wall time by ``REF_SECONDS`` over the mean of the two kernel
times, which removes most of that drift.  The kernel uses numpy and scipy
only, never graphonfit, so no change to the library moves it.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.special import xlogy

# The kernel's median time over 300 runs on the reference machine (2 vCPU
# Xeon, Python 3.11, numpy 2.4); scaled times read as seconds there.
REF_SECONDS = 0.04

# Small-array xlogy, clip and argmax calls from a Python loop: the same mix
# as the block-term updates of the profile-likelihood search.
_ROWS = np.random.default_rng(0).random((64, 24)) * 40.0 + 1.0


def _kernel(iterations: int) -> float:
    total = 0.0
    for i in range(iterations):
        s = _ROWS[i % 64]
        m = s + 5.0
        total += float((xlogy(s, s) + xlogy(m - s, m - s) - xlogy(m, m)).sum())
        total += float(np.clip(s, 2.0, 30.0).argmax())
    return total


def reference_seconds() -> float:
    """Wall time of one run of the reference kernel, after a short warm-up."""
    _kernel(50)
    t0 = time.perf_counter()
    _kernel(4000)
    return time.perf_counter() - t0
