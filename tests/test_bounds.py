"""Closed-form run-length bound calculators."""

import math

import numpy as np
import pytest

from scusum.bounds import (
    DoeblinConstants,
    bound_curve,
    concentration_mu,
    delay_upper_bound,
    false_alarm_lower_bound,
    heuristic_mu,
    write_bound_csv,
)
from scusum.exceptions import BoundDomainError


class TestConcentrationMu:
    def test_direct_values(self):
        assert concentration_mu(1.0, DoeblinConstants(l=1, lam=1.0)) == pytest.approx(4.0)
        assert concentration_mu(600.0, DoeblinConstants(l=1, lam=1.0)) == pytest.approx(2400.0)

    def test_linear_in_norm(self):
        c = DoeblinConstants(l=3, lam=0.25)
        assert concentration_mu(2.0, c) == pytest.approx(2 * concentration_mu(1.0, c))

    def test_validation(self):
        with pytest.raises(ValueError):
            DoeblinConstants(l=0, lam=0.5)
        with pytest.raises(ValueError):
            DoeblinConstants(l=1, lam=1.5)
        with pytest.raises(ValueError):
            concentration_mu(0.0, DoeblinConstants(l=1, lam=1.0))


class TestHeuristicMu:
    def test_default_factor(self):
        assert heuristic_mu(600.0) == pytest.approx(1230.0)

    def test_unit_factor(self):
        assert heuristic_mu(7.0, factor=1.0) == pytest.approx(7.0)

    def test_matches_doeblin_form(self):
        # heuristic == Doeblin value when factor = 2(l+1)/lam
        l, lam, m = 2, 0.5, 3.7
        factor = 2 * (l + 1) / lam
        assert heuristic_mu(m, factor) == pytest.approx(
            concentration_mu(m, DoeblinConstants(l=l, lam=lam))
        )


class TestFalseAlarmLowerBound:
    def test_closed_form_value(self):
        value = false_alarm_lower_bound(delta=1.0, mu=2.0, b=4.0)
        assert value == pytest.approx((2 * math.sqrt(2) / 3) * math.exp(2.0))
        assert value == pytest.approx(6.96649, abs=1e-4)

    def test_limit_at_threshold(self):
        value = false_alarm_lower_bound(delta=1.0, mu=2.0, b=2.0 + 1e-12)
        assert value == pytest.approx(2 * math.sqrt(2) / 3, rel=1e-9)

    def test_growth_rate_in_threshold(self):
        # log-slope equals 4*delta/mu^2
        delta, mu = 513.1, 1230.0
        b1, b2 = 2000.0, 3000.0
        slope = (
            math.log(false_alarm_lower_bound(delta, mu, b2))
            - math.log(false_alarm_lower_bound(delta, mu, b1))
        ) / (b2 - b1)
        assert slope == pytest.approx(4 * delta / mu**2, rel=1e-9)
        assert slope == pytest.approx(1.3565e-3, rel=1e-3)

    def test_inf_past_the_float_range(self):
        # the exponent 4 * delta * (b - mu) / mu^2 passes log(DBL_MAX) ~ 709.78
        assert false_alarm_lower_bound(1.0, 2.0, 1000.0) == math.inf
        assert math.isfinite(false_alarm_lower_bound(1.0, 2.0, 2.0 + 709.0))

    def test_domain_error_below_mu(self):
        with pytest.raises(BoundDomainError, match="b > mu"):
            false_alarm_lower_bound(delta=1.0, mu=2.0, b=2.0)

    def test_monotonicity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            mu = rng.uniform(0.5, 10)
            b = mu + rng.uniform(0.1, 20)
            delta = rng.uniform(0.1, 5)
            eps = 0.01
            assert false_alarm_lower_bound(delta, mu, b + eps) > false_alarm_lower_bound(
                delta, mu, b
            )
            assert false_alarm_lower_bound(delta + eps, mu, b) > false_alarm_lower_bound(
                delta, mu, b
            )
            if b > mu + eps:
                assert false_alarm_lower_bound(delta, mu + eps, b) < false_alarm_lower_bound(
                    delta, mu, b
                )

    def test_quadratic_inequality_behind_the_bound(self):
        # (b - mu + m*delta)^2 / (m*mu^2) >= 4*(b - mu)*delta/mu^2 for integer m >= 1
        rng = np.random.default_rng(1)
        for _ in range(500):
            mu = rng.uniform(0.1, 10)
            b = mu + rng.uniform(1e-6, 50)
            delta = rng.uniform(1e-6, 20)
            m = int(rng.integers(1, 1000))
            lhs = (b - mu + m * delta) ** 2 / (m * mu**2)
            rhs = 4 * (b - mu) * delta / mu**2
            assert lhs >= rhs * (1 - 1e-12)


class TestDelayUpperBound:
    def test_floor_arithmetic(self):
        n0, bound = delay_upper_bound(b=100.0, mu=10.0, post_drift=5.0)
        assert n0 == 22 and bound == 23.0

    def test_degenerate_limit(self):
        n0, bound = delay_upper_bound(b=1e-12, mu=1e-12, post_drift=1.0)
        assert n0 == 0 and bound == 1.0

    def test_doubling_drift_roughly_halves_n0(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            b = rng.uniform(1, 1e4)
            mu = rng.uniform(0, 1e3)
            drift = rng.uniform(0.1, 50)
            n0, _ = delay_upper_bound(b, mu, drift)
            n0_double, _ = delay_upper_bound(b, mu, 2 * drift)
            assert n0_double <= n0 / 2 + 1

    def test_requires_positive_drift(self):
        with pytest.raises(ValueError, match="positive"):
            delay_upper_bound(10.0, 1.0, 0.0)


def test_bound_curve_csv(tmp_path):
    # b = 2 is mu itself: the bound is undefined there, and the row keeps its place
    curve = bound_curve(1.0, 2.0, [2.0, 3.0, 4.0, 5.0])
    path = tmp_path / "bounds.csv"
    write_bound_csv(path, curve)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "b,bound"
    assert lines[1] == "2.0,nan"
    assert float(lines[3].split(",")[1]) == pytest.approx(6.96649, abs=1e-4)
