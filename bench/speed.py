"""The machine-speed reference that the benchmark's timings are scaled by.

On the shared two-core machine the benchmark was tuned on, the same code
switches between two speeds within seconds, and the mix drifts from minute
to minute, with no steal time.  A fixed kernel, run just before each timed
operation, follows that drift.  Recordings of 4-5 minutes were cut into
25 s windows, and the spread (coefficient of variation) of the window
medians was compared, raw against time x REFERENCE_S / kernel time:

- cli-cold rounds: 11 % raw, 4 % scaled;
- oracle plans: 11 % raw, 6 % scaled;
- analytic rounds: 12 % raw, 2 % scaled.

So the benchmark reports an operation's wall time scaled by
``REFERENCE_S / kernel_seconds()``, measured just before it: the time the
operation would have taken at the speed where the kernel takes
``REFERENCE_S``.  The kernel does no squeezesim work, so a change to the
program cannot move it.
"""

import time

import numpy as np

# the kernel's time in the slower of that machine's two speeds
REFERENCE_S = 0.020


def kernel_seconds() -> float:
    """Best of two runs of a fixed pure-Python and small-numpy kernel (about 20 ms)."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        total = 0
        for i in range(60_000):
            total += i * i
        a = np.eye(4)
        for _ in range(800):
            a = np.linalg.solve(a + np.eye(4), a) + np.eye(4)
        best = min(best, time.perf_counter() - t0)
    return best
