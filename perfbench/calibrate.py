"""Machine-speed calibration, in its own process so it leaves no memory in a pass.

    python3 perfbench/calibrate.py      # prints a JSON list of timings

The reference machine's speed drifts by up to 30% over minutes, and this
kernel drifts with it; ``run.py`` times it before every pass and reports
times at one reference speed.  Changing the kernel (or ``run.CAL_REF_S``)
breaks comparisons with earlier trajectory points.
"""

from __future__ import annotations

import json
import time

import numpy as np

REPEATS = 3


def calibrate() -> float:
    """Seconds for a fixed mix of the kinds of work gcdlab does."""
    t0 = time.perf_counter()
    x = 1
    for _ in range(100_000):  # an interpreter loop, like build_table's dlog walk
        x = x * 5 % 1_000_003
    a = np.arange(1, 200_001)
    for e in range(1, 400):  # small numpy calls, like energy_level_exact
        np.unique(a[e - 1 :: e] % 64)
    m = np.arange(1, 801)
    (np.gcd.outer(m, m) / np.add.outer(m, m).astype(float)) @ np.ones(800)  # a dense kernel
    np.sort(np.random.default_rng(0).integers(0, 1 << 40, 1 << 20))
    np.fft.ifft(np.ones(1 << 17, complex))
    return time.perf_counter() - t0


if __name__ == "__main__":
    calibrate()  # warm-up: first-call page faults
    print(json.dumps([calibrate() for _ in range(REPEATS)]))
