"""Payoff model: point values, derivatives, operator, validation."""

import dataclasses
import math

import numpy as np
import pytest

from pvjtcs.model import GameParams, PriceCurve, PvGroup, payoff_functions
from oracles import central_difference

PARAMS = GameParams()


def group(m, d):
    return PvGroup(region=0, m=m, d=d)


def payoff(g, x, p, params=PARAMS):
    """Payoff of one group at strategy x."""
    u, _ = payoff_functions([g], p, params)
    return u([x])[0]


def gradient(g, x, p, params=PARAMS):
    """d(payoff)/dx of one group: the negated operator component."""
    _, F = payoff_functions([g], p, params)
    return -F([x])[0]


def operator(groups, x, p, params=PARAMS):
    _, F = payoff_functions(groups, p, params)
    return np.array(F([float(v) for v in x]))


class TestUtility:
    def test_reference_value(self):
        # -(60-60)^2 + 20*100*ln(1.4) - 5*5*100*0.4
        assert payoff(group(100, 60), 0.6, 5.0) == pytest.approx(-327.0555, abs=1e-3)

    def test_vanishes_with_zero_weights(self):
        params = GameParams(alpha1=0.0, alpha2=0.0)
        assert payoff(group(10, 6), 0.6, 123.0, params) == 0.0

    def test_empty_group(self):
        assert payoff(group(0, 0), 0.37, 9.0) == 0.0

    def test_one_payoff_per_group(self):
        u, _ = payoff_functions([group(100, 60), group(10, 6)], 5.0, PARAMS)
        values = u([0.6, 0.6])
        assert values[0] == payoff(group(100, 60), 0.6, 5.0)
        assert values[1] == payoff(group(10, 6), 0.6, 5.0)


class TestUtilityGradient:
    def test_reference_value(self):
        # -2*100*(60-60) - 20*100/1.4 + 5*5*100
        assert gradient(group(100, 60), 0.6, 5.0) == pytest.approx(1071.4286, abs=1e-3)

    def test_stationary_at_demand_ratio(self):
        params = GameParams(alpha1=0.0, alpha2=0.0)
        assert gradient(group(10, 6), 0.6, 7.0, params) == 0.0

    def test_empty_group(self):
        assert gradient(group(0, 0), 0.5, 3.0) == 0.0

    def test_matches_central_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            m = int(rng.integers(1, 200))
            d = int(rng.integers(0, m + 1))
            x = float(rng.uniform(0.01, 0.99))
            p = float(rng.uniform(0.0, 20.0))
            g = group(m, d)
            exact = gradient(g, x, p)
            approx = central_difference(lambda t: payoff(g, t, p), x)
            assert exact == pytest.approx(approx, rel=1e-5, abs=1e-6)

    def test_strict_concavity(self):
        # the payoff is strictly concave iff its operator component is
        # strictly increasing: F' = 2m^2 + alpha1*m/(2-x)^2 >= 2 for m >= 1
        rng = np.random.default_rng(8)
        for _ in range(500):
            m = int(rng.integers(1, 300))
            x = float(rng.uniform(0.0, 1.0))
            assert gradient(group(m, 0), x + 1e-3, 0.0) < gradient(group(m, 0), x, 0.0)


class TestPseudoGradient:
    def test_single_group_negates_gradient(self):
        out = operator([group(100, 60)], [0.6], 5.0)
        assert out[0] == pytest.approx(-1071.4286, abs=1e-3)

    def test_symmetry(self):
        gs = [group(30, 10), group(30, 10)]
        out = operator(gs, [0.4, 0.4], 2.0)
        assert out[0] == out[1]

    def test_zero_at_demand_ratios_without_weights(self):
        params = GameParams(alpha1=0.0, alpha2=0.0)
        gs = [group(10, 4), group(20, 15)]
        out = operator(gs, [0.4, 0.75], 3.0, params)
        assert np.allclose(out, 0.0)

    def test_defined_outside_the_box(self):
        # the backtracking probe may step out of [0, 1]
        out = operator([group(10, 4), group(20, 15)], [-0.5, 1.5], 3.0)
        assert np.all(np.isfinite(out))

    def test_monotone_operator(self):
        rng = np.random.default_rng(9)
        for _ in range(1000):
            k = int(rng.integers(1, 6))
            gs = [
                group(int(rng.integers(1, 101)), int(rng.integers(0, 50)))
                for _ in range(k)
            ]
            p = float(rng.uniform(0.0, 10.0))
            x = rng.uniform(0.0, 1.0, size=k)
            y = rng.uniform(0.0, 1.0, size=k)
            fx = operator(gs, x, p)
            fy = operator(gs, y, p)
            assert float(np.dot(fx - fy, x - y)) >= -1e-9


class TestValidation:
    def test_defaults_match_calibration(self):
        p = GameParams()
        assert (p.alpha1, p.alpha2) == (20.0, 5.0)
        assert (p.e_min, p.rho) == (3.0, 0.2)
        assert (p.c, p.r) == (45.0, 5.625)
        assert (p.speed, p.consume_rate, p.seats) == (30.0, 0.3, 16)

    def test_full_threshold_and_slot_consumption(self):
        p = GameParams()
        assert p.full_threshold == pytest.approx(39.375)
        assert p.slot_consumption == pytest.approx(9.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rho": -0.2},
            {"rho": 0.0},
            {"speed": 0.0},
            {"speed": -30.0},
            {"J": -1},
            {"r": -1.0},
            {"alpha1": -1.0},
            {"alpha2": -5.0},
            {"e_min": -3.0},
            {"consume_rate": -0.3},
            {"r": 50.0},
            {"seats": 0},
            {"detour_max": 0.9},
            # every field must be finite
            *({f.name: math.inf} for f in dataclasses.fields(GameParams)),
        ],
    )
    def test_bad_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GameParams(**kwargs)

    @pytest.mark.parametrize("name", ["J", "seats"])
    def test_counts_must_be_whole(self, name):
        with pytest.raises(ValueError, match=rf"^{name} must be a whole number"):
            GameParams(**{name: 2.5})
        assert getattr(GameParams(**{name: 2.0}), name) == 2

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(GameParams)])
    def test_nan_rejected(self, name):
        with pytest.raises(ValueError, match=rf"^{name} must"):
            GameParams(**{name: math.nan})

    def test_group_census_identity(self):
        g = PvGroup(region=1, m=7, d=3)
        assert (g.m, g.d) == (7, 3)
        with pytest.raises(ValueError):
            PvGroup(region=1, m=5, d=-1)

    def test_price_curve(self):
        curve = PriceCurve([1.0, 2.0, 3.0])
        assert len(curve) == 3 and curve[1] == 2.0
        with pytest.raises(ValueError):
            PriceCurve([1.0, -0.5])

    @pytest.mark.parametrize("price", [math.nan, math.inf])
    def test_price_curve_rejects_a_non_finite_price(self, price):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            PriceCurve([1.0, price])


def test_log_term_never_needs_guard():
    # ln(2 - x) over the whole strategy box stays >= ln(1) = 0
    for x in np.linspace(0.0, 1.0, 101):
        assert math.log(2.0 - x) >= 0.0
