"""Reference minimum of a seeded Fermat-Weber instance, computed with scipy.

The objective is evaluated here with its own Poincare distance formula, not
through the package under test. Run as a script it prints the reference as
one JSON object, so the benchmark can compute it in a child process and
keep scipy out of its own peak-memory figure:

    python3 perfbench/reference.py --seed 3
"""

from __future__ import annotations

import argparse
import json
import math

import numpy as np
from scipy.optimize import minimize

from instance import FermatWeber, fermat_weber


def _distance(p: complex, q: complex) -> float:
    return 2.0 * math.atanh(abs(q - p) / abs(1.0 - p.conjugate() * q))


def _objective(inst: FermatWeber, z: complex) -> float:
    return sum(w * _distance(z, a) for a, w in zip(inst.anchors, inst.weights))


def _to_disk(u: np.ndarray) -> complex:
    # Hyperboloid coordinates to the disk: a smooth bijection of R^2 onto
    # the open disk, so the search is unconstrained.
    w = complex(u[0], u[1])
    return w / (1.0 + math.sqrt(1.0 + abs(w) ** 2))


def _from_disk(z: complex) -> np.ndarray:
    w = 2.0 * z / (1.0 - abs(z) ** 2)
    return np.array([w.real, w.imag])


def solve(inst: FermatWeber) -> tuple[float, complex]:
    """Return (f*, x*). The minimizer is either an anchor (the objective
    has a kink there) or a smooth critical point found by Nelder-Mead from
    the best anchor, refined by a restart."""
    best_f, best_z = min((_objective(inst, a), a) for a in inst.anchors)
    start = _from_disk(best_z)
    for _ in range(3):
        res = minimize(
            lambda u: _objective(inst, _to_disk(u)),
            start,
            method="Nelder-Mead",
            options={"xatol": 1e-12, "fatol": 0.0, "maxiter": 4000},
        )
        z = _to_disk(res.x)
        f = _objective(inst, z)
        if f < best_f:
            best_f, best_z = f, z
        start = res.x
    return best_f, best_z


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    f_star, x_star = solve(fermat_weber(args.seed))
    print(json.dumps({"f_star": f_star, "x_star": [x_star.real, x_star.imag]}))


if __name__ == "__main__":
    main()
