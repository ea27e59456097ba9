"""A fixed plain-Python reference loop, timed next to every measured phase.

The speed of a small shared machine drifts with its neighbours' load: on the
2-vCPU VM this benchmark was built on, the same 10^5-step solve took a
median of 2.6 s in one 30-second window and 3.9 s in another a few minutes
later. A median over one window cannot remove that, so every phase is timed
between two runs of this loop and the end-to-end times are reported in
units of it.

The loop does the same kind of work as the package, but never calls it: a
normalized subgradient iteration for the three-anchor Fermat-Weber problem
on bare complex numbers, and distances and an angle of triangles drawn from
a numpy generator, as the verify suites do. A change to the package cannot
change its time.
"""

from __future__ import annotations

import cmath
import math
import time

import numpy as np

ANCHORS = (0.5 + 0.0j, -0.3 + 0.4j, -0.2 - 0.5j)
FW_STEPS = 12000
TRIANGLES = 1500
COSH_CAP = math.cosh(3.0)


def _fermat_weber(steps: int) -> complex:
    x = 0.9j
    for k in range(steps):
        g = 0j
        for a in ANCHORS:
            w = (a - x) / (1.0 - x.conjugate() * a)
            g -= w / abs(w)
        u = -g / abs(g)
        r = math.tanh(0.5 / (k + 1)) * u
        x = (r + x) / (1.0 + x.conjugate() * r)
    return x


def _distance(p: complex, q: complex) -> float:
    return 2.0 * math.atanh(abs(q - p) / abs(1.0 - p.conjugate() * q))


def _triangles(rng: np.random.Generator, n: int) -> float:
    total = 0.0
    for _ in range(n):
        p, q, r = (
            cmath.rect(math.tanh(0.5 * math.acosh(1.0 + rng.random() * (COSH_CAP - 1.0))),
                       rng.uniform(0.0, 2.0 * math.pi))
            for _ in range(3)
        )
        total += _distance(q, r) + _distance(p, r) + _distance(p, q)
        wq = (q - p) / (1.0 - p.conjugate() * q)
        wr = (r - p) / (1.0 - p.conjugate() * r)
        total += abs(cmath.phase(wq / wr))
    return total


def reference_seconds() -> float:
    """Wall time of one run of the reference loop (about 0.04 s)."""
    t0 = time.perf_counter()
    _fermat_weber(FW_STEPS)
    _triangles(np.random.default_rng(0), TRIANGLES)
    return time.perf_counter() - t0
