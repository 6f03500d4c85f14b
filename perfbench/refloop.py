"""A fixed reference loop that measures how fast the machine runs right now.

The benchmark shares a 2-vCPU VM with other tenants, which slow a single
operation by up to 2x for tens of seconds at a time; raw timings of one
workload moved by ~25% between runs ten minutes apart.  The loop below is
the benchmark's own code (classical RK4 on a 4 x 4 linear system, small
numpy operations driven from Python, like the package's integrators) and
never changes, so its duration tracks that slowdown: the ratio of an
operation's time to the loop's time run right beside it stayed within ~1%
over 20-second windows while the raw time moved by ~25%.

Timings are reported scaled to the machine's uncontended speed:
``measured * REF_S / loop``.  On a quiet machine the scaled and raw values
agree; the raw values are printed next to the scaled ones.
"""

from __future__ import annotations

import time

#: The loop's duration on an uncontended core of the 2-vCPU Intel Xeon VM
#: the baseline was measured on.
REF_S = 0.0075

_STEPS = 800
_H = 1e-3


def loop_s() -> float:
    """Run the reference loop once and return its duration in seconds."""
    # imported here so that importing REF_S does not load numpy
    import numpy as np

    a = np.array([[0.0, 1.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, -1.0, 0.0]])
    h = _H
    t0 = time.perf_counter()
    y = np.array([1.0, 0.0, 0.0, 1.0])
    for _ in range(_STEPS):
        k1 = a @ y
        k2 = a @ (y + 0.5 * h * k1)
        k3 = a @ (y + 0.5 * h * k2)
        k4 = a @ (y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    dt = time.perf_counter() - t0
    if not abs(y[0] - np.cos(_STEPS * _H)) < 1e-9:
        raise RuntimeError("reference loop computed a wrong result")
    return dt
