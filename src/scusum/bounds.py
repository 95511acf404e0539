"""Closed-form run-length guarantees for the truncated detector.

For bounded increments with pre-change drift -delta < 0 and concentration
scale mu (derived from Doeblin minorization constants of the pair chain, or
set heuristically from the truncation level), the mean time between false
alarms satisfies

    E_inf[T(b)] >= (2*sqrt(2)/3) * exp(4*delta*(b - mu) / mu^2),   b > mu,

and with post-change drift I > 0 the mean detection delay is asymptotically
at most 1 + n0 with n0 = floor((b + mu) / I). Both rest on a Hoeffding-type
inequality for uniformly ergodic Markov chains, also exposed here.

The Doeblin constants are user inputs: they are hard to estimate from data,
which is why the pragmatic route multiplies the truncation level by a
constant (2.05 by default). Outputs should be labeled with whichever route
produced mu; the CLI does so.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

from .exceptions import BoundDomainError

__all__ = [
    "DoeblinConstants",
    "BoundInputs",
    "concentration_mu",
    "heuristic_mu",
    "false_alarm_lower_bound",
    "delay_upper_bound",
    "hoeffding_tail",
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
        if self.l < 1:
            raise ValueError("l must be a positive integer")
        if not 0 < self.lam <= 1:
            raise ValueError("lam must lie in (0, 1]")


@dataclass(frozen=True)
class BoundInputs:
    """Everything the two run-length bounds consume.

    delta is the magnitude of the (negative) pre-change drift of the
    truncated increments, post_drift their positive post-change mean, b the
    detector threshold, mu the concentration scale, and truncation_level the
    clip M (so drifts can be sanity-checked against it).
    """

    delta: float
    mu: float
    b: float
    post_drift: float | None = None
    truncation_level: float | None = None

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError("delta must be positive (pre-change drift must be negative)")
        if self.mu <= 0:
            raise ValueError("mu must be positive")
        if self.b <= 0:
            raise ValueError("b must be positive")
        if self.truncation_level is not None:
            m = self.truncation_level
            if self.delta > m:
                raise ValueError("delta cannot exceed the truncation level")
            if self.post_drift is not None and self.post_drift > m:
                raise ValueError("post_drift cannot exceed the truncation level")


def concentration_mu(norm_phi: float, constants: DoeblinConstants) -> float:
    """mu = 2 * (l + 1) * ||phi|| / lam for given Doeblin constants."""
    if norm_phi <= 0:
        raise ValueError("norm_phi must be positive")
    return 2.0 * (constants.l + 1) * norm_phi / constants.lam


def heuristic_mu(truncation_level: float, factor: float = HEURISTIC_MU_FACTOR) -> float:
    """Pragmatic concentration scale: factor * M (Doeblin constants unknown)."""
    if truncation_level <= 0:
        raise ValueError("truncation level must be positive")
    if factor <= 0:
        raise ValueError("factor must be positive")
    return factor * truncation_level


def false_alarm_lower_bound(delta: float, mu: float, b: float) -> float:
    """Exponential lower bound on the mean time between false alarms."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    if mu <= 0:
        raise ValueError("mu must be positive")
    if b <= mu:
        raise BoundDomainError(
            f"false-alarm bound requires b > mu (got b={b}, mu={mu})"
        )
    return (2.0 * math.sqrt(2.0) / 3.0) * math.exp(4.0 * delta * (b - mu) / mu**2)


def delay_upper_bound(b: float, mu: float, post_drift: float) -> tuple[int, float]:
    """(n0, 1 + n0) with n0 = floor((b + mu) / post_drift).

    The bound on the mean detection delay is asymptotic: it holds up to a
    (1 + o(1)) factor as n0 grows, so it is meaningful at large thresholds
    only. Callers should label it accordingly.
    """
    if post_drift <= 0:
        raise ValueError("post-change drift must be positive")
    if b < 0 or mu < 0:
        raise ValueError("b and mu must be nonnegative")
    n0 = math.floor((b + mu) / post_drift)
    return n0, 1.0 + n0


def hoeffding_tail(n: int, eps: float, mu_f: float) -> float:
    """Two-sided deviation bound 2*exp(-2*(n*eps - mu_f)^2 / (n * mu_f^2)).

    Valid for uniformly ergodic chains and bounded statistics once
    n > mu_f / eps.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if mu_f <= 0:
        raise ValueError("mu_f must be positive")
    if n <= mu_f / eps:
        raise BoundDomainError(
            f"tail bound requires n > mu_f/eps (got n={n}, mu_f/eps={mu_f / eps})"
        )
    return 2.0 * math.exp(-2.0 * (n * eps - mu_f) ** 2 / (n * mu_f**2))


def bound_curve(delta: float, mu: float, thresholds) -> list[tuple[float, float]]:
    """False-alarm lower bound over a threshold grid, for overlay plots; NaN where b <= mu."""
    return [(b, false_alarm_lower_bound(delta, mu, b) if b > mu else math.nan)
            for b in map(float, thresholds)]


def write_bound_csv(path, curve) -> None:
    """Bound curve as CSV with columns b, bound."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["b", "bound"])
        for b, value in curve:
            writer.writerow([repr(float(b)), repr(float(value))])
