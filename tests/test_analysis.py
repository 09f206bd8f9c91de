"""Float-domain analysis: Lambert-W, golden-ratio root, smoothness checks."""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from congames import (
    check_combination_inequality,
    check_p_property,
    check_smoothness_constraint,
    lambert_w,
    smoothness_peak,
    phi_ratio,
    poa_bounds,
    smoothness_B,
    smoothness_mu_hat,
)
from congames.analysis import (
    GRID_AXIS,
    _check_monomials,
    _worst_slack,
    check_concavity_inequality,
    check_epsilon_inverse_bound,
    combination_constant,
)

from conftest import GOLDEN, SETTINGS
from reference import bisect_phi, reference_check_monomials


class TestLambertW:
    def test_zero(self):
        assert lambert_w(0.0) == 0.0

    def test_one_third(self):
        assert 0.257 < lambert_w(1.0 / 3.0) < 0.259

    def test_defining_equation_residual(self):
        # relative at every tau: an absolute stop returned log(1 + tau) below about 1e-7
        for tau in (1e-10, 1e-8, 1e-7, 0.1, 1.0, 10.0, 137.0):
            w = lambert_w(tau)
            assert abs(w * math.exp(w) - tau) <= 1e-13 * tau

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            lambert_w(-0.1)


class TestPhiRatio:
    def test_golden_ratio(self):
        assert abs(phi_ratio(1, 1.0) - GOLDEN) < 1e-12

    def test_linear_closed_form(self):
        for rho in (1.0, 2.0, 5.0, 10.0):
            expected = (rho + math.sqrt(rho * rho + 4 * rho)) / 2
            assert abs(phi_ratio(1, rho) - expected) < 1e-10

    def test_against_bisection_oracle(self):
        for d in (1, 2, 3, 5, 8):
            for rho in (1.0, 1.5, 3.0):
                assert abs(phi_ratio(d, rho) - bisect_phi(d, rho)) < 1e-11

    def test_root_residual(self):
        for d in range(1, 11):
            for rho in (1.0, 2.0, d + 2.0):
                phi = phi_ratio(d, rho)
                resid = abs(rho * (phi + 1) ** d - phi ** (d + 1))
                assert resid <= 1e-9 * phi ** (d + 1)

    def test_monotone_in_rho(self):
        for d in (1, 2, 4):
            values = [phi_ratio(d, rho) for rho in (1.0, 1.5, 2.0, 4.0, 8.0)]
            assert all(a < b for a, b in zip(values, values[1:]))


class TestPoaBounds:
    def test_d1_rho1(self):
        r = poa_bounds(1, 1.0)
        assert abs(r.poa_bound - GOLDEN**2) < 1e-10
        assert r.poa_bound <= r.lambert_bound

    def test_lambert_bound_caps_at_4d(self):
        for d in range(1, 11):
            r = poa_bounds(d, d + 2.0)
            assert r.lambert_bound <= (4.0 * d) ** (d + 1)

    def test_monotone_in_rho(self):
        for d in (1, 2, 3):
            assert poa_bounds(d, 1.0).poa_bound <= poa_bounds(d, 2.0).poa_bound


class TestMuHat:
    def test_d1_rho1_value(self):
        assert abs(smoothness_mu_hat(1, 1.0) - GOLDEN / (2 * (GOLDEN + 1))) < 1e-12

    def test_both_closed_forms_agree(self):
        for d in (1, 2, 3, 5):
            for rho in (1.0, 2.0, 5.0):
                phi = phi_ratio(d, rho)
                via_root = rho * d * (phi + 1) ** (d - 1) / ((d + 1) * phi**d)
                assert abs(smoothness_mu_hat(d, rho) - via_root) < 1e-12

    def test_original_space_pair_in_domain(self):
        # mu_hat lives in the relaxed (0,1) domain; dividing by rho gives the
        # weight of the original constrained form, which must stay below
        # 1/rho, and the pair must reproduce Phi^(d+1) via lam*rho/(1-mu*rho)
        for d in (1, 2, 3):
            for rho in (1.0, 2.0, 5.0):
                r = poa_bounds(d, rho)
                mu_orig = r.mu_hat / rho
                assert 0.0 < mu_orig < 1.0 / rho
                objective = r.lambda_hat * rho / (1.0 - mu_orig * rho)
                assert abs(objective - r.poa_bound) < 1e-8 * r.poa_bound


class TestMaxG:
    def test_argmax_is_phi_at_mu_hat(self):
        for d in (1, 2, 4):
            for rho in (1.0, 2.0):
                xi, _ = smoothness_peak(d, rho, smoothness_mu_hat(d, rho))
                assert abs(xi - phi_ratio(d, rho)) < 1e-8

    def test_hand_calculus_case(self):
        xi, peak = smoothness_peak(1, 1.0, 1.0)
        assert abs(xi - 0.5) < 1e-10
        assert abs(peak - 1.25) < 1e-10

    def test_grid_dominance(self):
        for d, rho, mu in ((1, 1.0, 0.3), (2, 1.5, 0.7), (3, 2.0, 0.2)):
            xi, peak = smoothness_peak(d, rho, mu)
            for i in range(1001):
                x = 4.0 * xi * i / 1000
                assert peak >= rho * (x + 1) ** d - mu * x ** (d + 1) - 1e-9 * peak

    def test_nonpositive_mu_rejected(self):
        with pytest.raises(ValueError):
            smoothness_peak(2, 1.0, 0.0)


class TestSmoothnessB:
    def test_identity_at_mu_hat(self):
        for d in range(1, 7):
            for rho in (1.0, 2.0, d + 2.0):
                phi_pow = phi_ratio(d, rho) ** (d + 1)
                b = smoothness_B(d, rho, smoothness_mu_hat(d, rho))
                assert abs(b - phi_pow) <= 1e-8 * phi_pow

    def test_lower_bound_on_mu_grid(self):
        for d in (1, 2, 4):
            rho = 1.5
            phi_pow = phi_ratio(d, rho) ** (d + 1)
            for k in range(1, 50):
                assert smoothness_B(d, rho, k / 50) >= phi_pow * (1 - 1e-8)

    def test_against_grid_maximizer(self):
        # independent oracle: dense grid maximization of g(x)/(1-mu)
        d, rho, mu = 1, 1.0, 0.5
        xs = [i / 1000 * 10 for i in range(10001)]
        oracle = max(rho * (x + 1) ** d - mu * x ** (d + 1) for x in xs) / (1 - mu)
        assert abs(smoothness_B(d, rho, mu) - oracle) < 1e-5


class TestConstraintChecks:
    def test_optimal_pair_feasible(self):
        for d in (1, 2, 3):
            for rho in (1.0, 2.0):
                r = poa_bounds(d, rho)
                res = check_smoothness_constraint(d, rho, r.lambda_hat, r.mu_hat)
                assert res.passed, res

    def test_zero_pair_violates(self):
        res = check_smoothness_constraint(2, 1.0, 0.0, 0.0)
        assert not res.passed
        assert res.worst_slack < -0.5

    def test_lambda_below_one_violates_on_x_zero_rows(self):
        # mu huge enough to absorb every positive-x grid point, so the only
        # violations left are the x = 0 rows, which need lambda >= 1
        res = check_smoothness_constraint(1, 1.0, 0.5, 1e13)
        assert not res.passed
        assert res.worst_slack == pytest.approx(-0.5)
        _, x, _ = res.worst_point
        assert x == 0.0
        assert check_smoothness_constraint(1, 1.0, 1.0, 1e13).passed

    def test_combination_inequality_eps_one_d_one(self):
        assert combination_constant(1, 1.0) == 2.0
        assert check_combination_inequality(1, 1.0).passed

    def test_combination_inequality_various(self):
        assert check_combination_inequality(3, 0.1).passed
        assert combination_constant(3, 0.1) == pytest.approx(11.0**3 * 27.0)

    def test_combination_without_constant_fails(self):
        # dropping the combination constant to ~0 must break the inequality
        d, eps = 2, 0.5
        violated = False
        for v in range(d + 1):
            for x in GRID_AXIS:
                for y in GRID_AXIS:
                    if y * (x + y) ** v > (1 + eps) * y * y**v + 1e-6 * x * x**v:
                        violated = True
        assert violated

    def test_concavity_and_epsilon_bound(self):
        assert check_concavity_inequality().passed
        assert check_epsilon_inverse_bound().passed

    def test_p_property(self):
        for d in (1, 2, 3, 4):
            assert check_p_property(d)


def pinned(res) -> tuple:
    return res.passed, res.worst_slack, res.worst_point


ORIGIN = (True, 0.0, (0, 0.0, 0.0))  # zero slack at x = y = 0, met first
Y_LOW = 0.0010000000000000002  # the grid's smallest positive point


class TestPinnedResults:
    """The exact CheckResults of the four checkers, recorded when the
    smoothness and combination checks each had a loop of their own and
    every check had its own slack formula."""

    @pytest.mark.parametrize("rho", [1.0, 1.5])
    @pytest.mark.parametrize("d", range(1, 6))
    def test_smoothness_at_poa_pair(self, d, rho):
        r = poa_bounds(d, rho)
        assert pinned(check_smoothness_constraint(d, rho, r.lambda_hat, r.mu_hat)) == ORIGIN

    @pytest.mark.parametrize(
        "d, lam, mu, expected",
        [(d, 0.0, 0.0, (False, -1.0, (0, 0.0, Y_LOW))) for d in range(1, 6)]
        + [(d, 0.5, 1e13, (False, -0.5, (0, 0.0, Y_LOW))) for d in (1, 2)]
        + [
            (d, 0.5, 1e13, (False, slack, (d, x, y)))
            for d, slack, x, y in [
                (3, -0.5000376532789589, 0.005150678076168126, 153.6174946671829),
                (4, -0.5007144815236411, 0.03352924149249558, 76.09496685459882),
                (5, -0.5042843023778167, 0.0012638482029342978, 0.5568813990945272),
            ]
        ],
    )
    def test_smoothness_violated(self, d, lam, mu, expected):
        assert pinned(check_smoothness_constraint(d, 1.0, lam, mu)) == expected

    @pytest.mark.parametrize("epsilon", [0.1, 1.0])
    @pytest.mark.parametrize("d", range(1, 6))
    def test_combination(self, d, epsilon):
        assert pinned(check_combination_inequality(d, epsilon)) == ORIGIN

    def test_concavity_and_epsilon_inverse(self):
        assert pinned(check_concavity_inequality()) == (True, -1.1037178115902433e-13, (1.0, Y_LOW))
        assert pinned(check_epsilon_inverse_bound()) == (True, 5.049995782979128e-07, (100, 1e6))


# Finite coefficients, with zeros of both signs, negatives, the least
# subnormal, and values so large that a side overflows to inf
COEFFS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 5e-324, 1e13, 1e300, -1e300, 1.7976931348623157e308]
)
POA_PAIR = poa_bounds(3, 1.5)


class TestGridCheckSkip:
    """The grid check computes a slack only where it can lower the worst;
    the reference computes it at every point."""

    @settings(SETTINGS, max_examples=100)
    @given(st.integers(0, 5), COEFFS, COEFFS)
    @example(3, POA_PAIR.lambda_hat, POA_PAIR.mu_hat)  # passes, 0.0 at the zero point
    @example(3, 0.5, 1e13)  # fails, at a point past the zero point's row
    @example(2, -1.0, -2.0)  # -0.0 at the zero point
    @example(2, 1e308, 0.5)  # the right side overflows to inf: a NaN slack past the zero point
    @example(1, -1e308, 1e308)  # inf - inf on the right side
    def test_matches_the_slack_at_every_point(self, d, a, b):
        assert repr(_check_monomials(d, a, b)) == repr(reference_check_monomials(d, a, b))

    @pytest.mark.parametrize("res", [
        check_smoothness_constraint(1, 1.0, math.inf, 0.5),
        check_smoothness_constraint(1, 1.0, math.nan, 0.5),
        check_combination_inequality(1, 1e-320),  # the constant overflows to inf
    ], ids=["inf", "nan", "overflow"])
    def test_nan_or_infinite_input_fails(self, res):
        assert not res.passed and math.isnan(res.worst_slack), res
        assert res.worst_point == (0, 0.0, 0.0)

    def test_nan_slack_fails_at_its_first_point(self):
        res = _worst_slack(
            [("a", 1.0, 2.0), ("b", 2.0, 1.0), ("c", math.nan, 1.0), ("d", math.inf, 1.0),
             ("e", 9.0, 1.0)]
        )
        assert not res.passed and math.isnan(res.worst_slack) and res.worst_point == "c"

    @pytest.mark.parametrize("d", [93, 94, 120])
    def test_powers_past_the_float_range(self, d):
        """From d = 94 the power (x + y)**v passes the float range, and from
        d = 103 x**v does too; each is inf, so the check fails, with a NaN
        slack like d = 93's, and raises nothing."""
        r = poa_bounds(d, 1.0)
        for res, a, b in [
            (check_smoothness_constraint(d, 1.0, r.lambda_hat, r.mu_hat), r.lambda_hat, r.mu_hat),
            (check_combination_inequality(d, 1.0), 2.0, combination_constant(d, 1.0)),
            (_check_monomials(d, 0.0, 0.0), 0.0, 0.0),
        ]:
            assert not res.passed, res
            assert math.isnan(res.worst_slack)
            assert repr(res) == repr(reference_check_monomials(d, a, b))
