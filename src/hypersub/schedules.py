"""Step-size sequences with declared analytic class.

The convergence statements need diminishing, non-summable steps; some also
need square-summability. Each built-in family declares the true flags of its
closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .oracles import parse_spec


@dataclass(frozen=True)
class StepSchedule:
    """Rule k -> lambda_k > 0 plus its analytic class.

    ``spec`` is the canonical config string ("harmonic:c=1.0", ...), used to
    echo and rebuild schedules from run traces.
    """

    spec: str
    fn: Callable[[int], float]
    diminishing: bool
    nonsummable: bool
    square_summable: bool

    def step(self, k: int) -> float:
        if k < 0:
            raise ValueError("step index must be >= 0")
        lam = self.fn(k)
        if not lam > 0.0:
            raise ValueError(f"schedule produced nonpositive step {lam} at k={k}")
        return lam


def harmonic(c: float) -> StepSchedule:
    """lambda_k = c/(k+1): diminishing, non-summable, square-summable."""
    _check_scale(c)
    return StepSchedule(f"harmonic:c={c!r}", lambda k: c / (k + 1), True, True, True)


def power_law(c: float, alpha: float) -> StepSchedule:
    """lambda_k = c/(k+1)^alpha with alpha in (1/2, 1]: all three flags hold
    (square-summability needs exactly alpha > 1/2)."""
    _check_scale(c)
    if not 0.5 < alpha <= 1.0:
        raise ValueError(f"power-law exponent must lie in (0.5, 1], got {alpha}")
    return StepSchedule(
        f"powerlaw:c={c!r},alpha={alpha!r}",
        lambda k: c / (k + 1) ** alpha,
        True,
        True,
        True,
    )


def sqrt_harmonic(c: float) -> StepSchedule:
    """lambda_k = c/sqrt(k+1): diminishing and non-summable but not
    square-summable."""
    _check_scale(c)
    return StepSchedule(f"sqrt:c={c!r}", lambda k: c / math.sqrt(k + 1), True, True, False)


def log_inverse(c: float) -> StepSchedule:
    """lambda_k = c/log(k+2): diminishing, non-summable, not square-summable."""
    _check_scale(c)
    return StepSchedule(f"loginv:c={c!r}", lambda k: c / math.log(k + 2), True, True, False)


def table(values: Sequence[float]) -> StepSchedule:
    """Explicit step table; indices past the end repeat the last entry, so the
    tail is constant (non-summable, not diminishing)."""
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("step table must be nonempty")
    if any(not (v > 0.0 and math.isfinite(v)) for v in vals):
        raise ValueError("step table entries must be positive and finite")
    spec = "table:" + ",".join(repr(v) for v in vals)
    return StepSchedule(spec, lambda k: vals[min(k, len(vals) - 1)], False, True, False)


def _check_scale(c: float) -> None:
    if not (c > 0.0 and math.isfinite(c)):
        raise ValueError(f"schedule scale must be positive and finite, got {c}")


def parse_schedule(spec: str) -> StepSchedule:
    """Build a schedule from its config string.

    Syntax: ``harmonic:c=1.0``, ``powerlaw:c=1.0,alpha=0.75``, ``sqrt:c=0.5``,
    ``loginv:c=1.0``, ``table:0.5,0.4,0.3``.
    """
    head, _, body = spec.partition(":")
    if head.strip() == "table":  # positional entries, not key=value parameters
        try:
            return table([float(v) for v in body.split(",") if v.strip()])
        except ValueError as exc:
            raise ValueError(f"bad step table {spec!r}: {exc}") from None
    name, params = parse_spec(
        spec,
        "schedule",
        {
            "harmonic": {"c": "1.0"},
            "powerlaw": {"c": "1.0", "alpha": "0.75"},
            "sqrt": {"c": "1.0"},
            "loginv": {"c": "1.0"},
        },
    )
    try:
        values = {key: float(text) for key, text in params.items()}
    except ValueError:
        raise ValueError(f"bad schedule parameter in {spec!r}") from None
    family = {"harmonic": harmonic, "powerlaw": power_law, "sqrt": sqrt_harmonic, "loginv": log_inverse}
    return family[name](**values)


def partial_sums(s: StepSchedule, n: int) -> tuple[float, float]:
    """(sum of lambda_k, sum of lambda_k^2) for k = 0..n, each correctly
    rounded by math.fsum."""
    if n < 0:
        raise ValueError("partial sum index must be >= 0")
    lams = [s.fn(k) for k in range(n + 1)]
    return math.fsum(lams), math.fsum(lam * lam for lam in lams)
