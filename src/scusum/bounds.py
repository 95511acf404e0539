"""Closed-form run-length guarantees for the truncated detector.

For bounded increments with pre-change drift -delta < 0 and concentration
scale mu (derived from Doeblin minorization constants of the pair chain, or
set heuristically from the truncation level), the mean time between false
alarms satisfies

    E_inf[T(b)] >= (2*sqrt(2)/3) * exp(4*delta*(b - mu) / mu^2),   b > mu,

and with post-change drift I > 0 the mean detection delay is asymptotically
at most 1 + n0 with n0 = floor((b + mu) / I). Both rest on a Hoeffding-type
inequality for uniformly ergodic Markov chains: for a bounded statistic with
concentration scale mu_f, a deviation eps of its n-step average has
probability at most 2*exp(-2*(n*eps - mu_f)^2 / (n * mu_f^2)) once
n > mu_f / eps.

The Doeblin constants are user inputs: they are hard to estimate from data,
which is why the pragmatic route multiplies the truncation level by a
constant (2.05 by default). Outputs should be labeled with whichever route
produced mu; the CLI does so.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from . import _textio
from .exceptions import BoundDomainError

__all__ = [
    "DoeblinConstants",
    "concentration_mu",
    "heuristic_mu",
    "false_alarm_lower_bound",
    "delay_upper_bound",
    "bound_curve",
    "write_bound_csv",
]

HEURISTIC_MU_FACTOR = 2.05


@dataclass(frozen=True)
class DoeblinConstants:
    """Minorization constants: P^l(x, .) >= lam * phi(.) for all x."""

    l: int
    lam: float

    def __post_init__(self):
        if not 1 <= self.l < sys.float_info.max:  # concentration_mu takes l as a float
            raise ValueError("l must be a positive integer within the float range")
        if not 0 < self.lam <= 1:
            raise ValueError("lam must lie in (0, 1]")


def concentration_mu(norm_phi: float, constants: DoeblinConstants) -> float:
    """mu = 2 * (l + 1) * ||phi|| / lam for given Doeblin constants."""
    if not norm_phi > 0:
        raise ValueError(f"norm_phi must be positive, got {norm_phi!r}")
    return 2.0 * (constants.l + 1) * norm_phi / constants.lam


def heuristic_mu(truncation_level: float, factor: float = HEURISTIC_MU_FACTOR) -> float:
    """Pragmatic concentration scale: factor * M (Doeblin constants unknown)."""
    if not truncation_level > 0:
        raise ValueError(f"truncation_level must be positive, got {truncation_level!r}")
    if not factor > 0:
        raise ValueError(f"factor must be positive, got {factor!r}")
    return factor * truncation_level


def false_alarm_lower_bound(delta: float, mu: float, b: float) -> float:
    """Exponential lower bound on the mean time between false alarms; inf past the float range."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    if mu <= 0:
        raise ValueError("mu must be positive")
    if b <= mu:
        raise BoundDomainError(
            f"false-alarm bound requires b > mu (got b={b}, mu={mu})"
        )
    try:
        growth = math.exp(4.0 * delta * (b - mu) / mu**2)
    except OverflowError:
        return math.inf
    return (2.0 * math.sqrt(2.0) / 3.0) * growth


def delay_upper_bound(b: float, mu: float, post_drift: float) -> tuple[int | float, float]:
    """(n0, 1 + n0) with n0 = floor((b + mu) / post_drift); both inf past the float range.

    The bound on the mean detection delay is asymptotic: it holds up to a
    (1 + o(1)) factor as n0 grows, so it is meaningful at large thresholds
    only. Callers should label it accordingly.
    """
    if post_drift <= 0:
        raise ValueError("post-change drift must be positive")
    if b < 0 or mu < 0:
        raise ValueError("b and mu must be nonnegative")
    n0 = (b + mu) / post_drift
    n0 = math.floor(n0) if math.isfinite(n0) else math.inf
    return n0, 1.0 + n0


def bound_curve(delta: float, mu: float, thresholds) -> list[tuple[float, float]]:
    """False-alarm lower bound over a threshold grid, for overlay plots; NaN where b <= mu."""
    return [(b, false_alarm_lower_bound(delta, mu, b) if b > mu else math.nan)
            for b in map(float, thresholds)]


def write_bound_csv(path, curve) -> None:
    """Bound curve as CSV with columns b, bound."""
    with open(path, "w", newline="") as fh:
        _textio.write_rows(fh, ["b,bound", *(f"{float(b)!r},{float(v)!r}" for b, v in curve)])
