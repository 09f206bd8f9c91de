"""Price-of-anarchy analysis for polynomial congestion games (float domain).

Centers on the generalized golden ratio Phi(d, rho), the unique positive
root of rho*(x+1)^d = x^(d+1); the worst-case cost ratio of rho-approximate
equilibria is exactly Phi(d, rho)^(d+1), with the analytic ceiling
(d / W(d/rho))^(d+1) in terms of the Lambert-W function.  The smoothness
route to the same constant goes through

    B(mu) = max_{x>=0} [rho*(x+1)^d - mu*x^(d+1)] / (1 - mu),

whose infimum over mu in (0,1) is attained at mu_hat and equals
Phi^(d+1).  The check_* operations verify the underlying polynomial
inequalities numerically on log-spaced grids, through one grid checker,
_worst_slack, over the (point, lhs, rhs) cases each check generates.

This module works in 64-bit floats; all tolerances are stated per
operation.  It feeds reports and test assertions only — the solver's
control flow stays in exact rational arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dynamics import target_p

# The evaluation axis of the grid checks: a zero point, so that boundary
# rows are exercised too, then 60 log-spaced points over [1e-3, 1e3].  The
# polynomial inequalities are scale-sensitive; a log grid covers the
# extremes where the slack minima live.
GRID_AXIS = (0.0,) + tuple(
    math.exp(math.log(1e-3) + (math.log(1e3) - math.log(1e-3)) * i / 59) for i in range(60)
)
# A check passes when its worst signed relative slack is at least -TOLERANCE.
TOLERANCE = 1e-9


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a grid inequality check (see _worst_slack):
    ``worst_slack``, the least (rhs - lhs) / scale over the grid
    (negative: violated), the first ``worst_point`` with it, and
    ``passed``, that least slack against TOLERANCE.  A NaN slack is the
    worst of all: the check fails and reports its first NaN point.  Every
    passing smoothness or combination check reports 0.0 at (0, 0.0, 0.0),
    where x = y = 0 makes both sides 0, so its slack carries no margin,
    and those checks generate only the cases that can lower the worst (see
    _monomial_cases).  A side past the float range is inf and gives a NaN
    slack, so from d = 93 on, where y*(x+y)^d passes it, they fail."""

    passed: bool
    worst_slack: float
    worst_point: tuple = ()


@dataclass(frozen=True)
class AnalysisResult:
    """All headline PoA quantities for one (d, rho) pair."""

    d: int
    rho: float
    phi: float
    poa_bound: float          # Phi^(d+1)
    lambert_bound: float      # (d / W(d/rho))^(d+1)
    mu_hat: float
    lambda_hat: float         # (1 - mu_hat) * Phi^(d+1) / rho
    B_at_mu_hat: float


def lambert_w(tau: float) -> float:
    """Principal-branch Lambert-W on [0, inf): the unique w with w*e^w = tau.

    Halley iteration from the initial guess log(1 + tau), stopped once
    the residual |w*e^w - tau| is at most 1e-14 * tau, relative at any tau.
    """
    if tau < 0:
        raise ValueError(f"lambert_w requires tau >= 0, got {tau}")
    if tau == 0:
        return 0.0
    w = math.log1p(tau)
    for _ in range(100):
        ew = math.exp(w)
        f = w * ew - tau
        if abs(f) <= 1e-14 * tau:
            break
        # Halley step: f / (e^w (w+1) - (w+2) f / (2w+2))
        denom = ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0)
        w -= f / denom
    return w


def _newton_bisection(f, df, lo: float, hi: float, rtol: float) -> float:
    """Root of f on [lo, hi] with f(lo) > 0 > f(hi); Newton with a bisection
    safeguard whenever the Newton step leaves the bracket."""
    x = 0.5 * (lo + hi)
    for _ in range(200):
        fx = f(x)
        if fx > 0:
            lo = x
        else:
            hi = x
        dfx = df(x)
        step_ok = dfx != 0
        if step_ok:
            x_new = x - fx / dfx
            step_ok = lo < x_new < hi
        if not step_ok:
            x_new = 0.5 * (lo + hi)
        if abs(x_new - x) <= rtol * max(1.0, abs(x_new)):
            return x_new
        x = x_new
    return x


def phi_ratio(d: int, rho: float) -> float:
    """Unique positive root of rho*(x+1)^d = x^(d+1).

    Safeguarded Newton on the bracket (0, d / W(d/rho)]; the upper end is
    valid because the root never exceeds the Lambert-W expression.
    Relative tolerance 1e-12.
    """
    if d < 1:
        raise ValueError(f"degree must be >= 1, got {d}")
    if rho < 1:
        raise ValueError(f"rho must be >= 1, got {rho}")

    def f(x: float) -> float:
        return rho * (x + 1.0) ** d - x ** (d + 1)

    def df(x: float) -> float:
        return rho * d * (x + 1.0) ** (d - 1) - (d + 1) * x**d

    hi = d / lambert_w(d / rho)
    while f(hi) > 0:  # guard against float rounding at the bracket end
        hi *= 2.0
    return _newton_bisection(f, df, 1e-12, hi, 1e-13)


def smoothness_mu_hat(d: int, rho: float) -> float:
    """The optimal smoothness weight mu_hat = d*Phi / ((d+1) * (Phi+1)).

    Equivalent to rho*d*(Phi+1)^(d-1) / ((d+1)*Phi^d) by the defining
    equation of Phi; always lies strictly inside (0, 1).
    """
    phi = phi_ratio(d, rho)
    mu = d * phi / ((d + 1) * (phi + 1.0))
    if not 0.0 < mu < 1.0:
        raise AssertionError(f"mu_hat out of (0,1): {mu}")
    return mu


def smoothness_peak(d: int, rho: float, mu: float) -> tuple[float, float]:
    """Maximize g(x) = rho*(x+1)^d - mu*x^(d+1) over x >= 0.

    g has exactly one local maximum; its location solves the stationarity
    equation (x+1)^(d-1) / x^d = mu*(d+1) / (rho*d), whose left side is
    strictly decreasing, so the argmax is found by bisection (tolerance
    1e-12 relative).  Returns (argmax, maximum).  For mu <= 0 the supremum
    is infinite and the call is rejected.
    """
    if mu <= 0:
        raise ValueError(f"smoothness_peak requires mu > 0, got {mu}")
    c = mu * (d + 1) / (rho * d)

    def h(x: float) -> float:
        return (x + 1.0) ** (d - 1) / x**d

    lo = hi = 1.0
    while h(lo) <= c:
        lo *= 0.5
    while h(hi) >= c:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if h(mid) > c:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * max(1.0, hi):
            break
    xi = 0.5 * (lo + hi)
    return xi, rho * (xi + 1.0) ** d - mu * xi ** (d + 1)


def smoothness_B(d: int, rho: float, mu: float) -> float:
    """B(mu) = max_{x>=0}[rho*(x+1)^d - mu*x^(d+1)] / (1 - mu), mu in (0,1)."""
    if not 0.0 < mu < 1.0:
        raise ValueError(f"smoothness_B requires mu in (0,1), got {mu}")
    _, peak = smoothness_peak(d, rho, mu)
    return peak / (1.0 - mu)


def poa_bounds(d: int, rho: float) -> AnalysisResult:
    """Compute every headline quantity for (d, rho) and cross-validate.

    Raises AssertionError if Phi exceeds the Lambert-W ceiling or B(mu_hat)
    strays from Phi^(d+1) by more than 1e-6 relative.
    """
    phi = phi_ratio(d, rho)
    poa = phi ** (d + 1)
    lam_w = lambert_w(d / rho)
    lambert_bound = (d / lam_w) ** (d + 1)
    if phi > d / lam_w * (1.0 + 1e-12):
        raise AssertionError(f"Phi({d},{rho})={phi} exceeds Lambert bound {d / lam_w}")
    mu_hat = smoothness_mu_hat(d, rho)
    lambda_hat = (1.0 - mu_hat) * poa / rho
    b_hat = smoothness_B(d, rho, mu_hat)
    if abs(b_hat - poa) > 1e-6 * poa:
        raise AssertionError(f"B(mu_hat)={b_hat} is not Phi^(d+1)={poa}")
    return AnalysisResult(
        d=d,
        rho=rho,
        phi=phi,
        poa_bound=poa,
        lambert_bound=lambert_bound,
        mu_hat=mu_hat,
        lambda_hat=lambda_hat,
        B_at_mu_hat=b_hat,
    )


def _worst_slack(cases) -> CheckResult:
    """The grid checker: the worst signed relative slack
    (rhs - lhs) / max(|lhs|, |rhs|) over (point, lhs, rhs) cases, and the
    first point attaining it.  A NaN slack is the worst of all: the first
    one sets a worst that no later slack lowers, and the check fails."""
    worst = math.inf
    worst_point: tuple = ()
    for point, lhs, rhs in cases:
        slack = (rhs - lhs) / max(abs(lhs), abs(rhs), 1e-300)
        if slack < worst or slack != slack and worst == worst:
            worst = slack
            worst_point = point
    return CheckResult(passed=worst >= -TOLERANCE, worst_slack=worst, worst_point=worst_point)


def _monomial_cases(d: int, a: float, b: float):
    """The cases of y*(x+y)^v <= a*y*y^v + b*x*x^v, for v = 0..d and x, y
    on GRID_AXIS, that can set the worst slack.  A float power past the
    float range is inf, which gives a NaN slack.

    First the zero point (0, 0.0, 0.0), where lhs = 0 and rhs = 0 on finite
    a and b, then, in grid order, only the points where not
    lhs <= rhs < inf: the violations and the NaN slacks.  A point skipped
    has a slack >= 0, so it cannot lower the zero point's 0 (or its NaN)."""
    inf = math.inf
    yield (0, 0.0, 0.0), 0.0, a * 0.0 + b * 0.0
    for v in range(d + 1):
        powers = []  # t**v for t on GRID_AXIS
        for t in GRID_AXIS:
            try:
                powers.append(t**v)
            except OverflowError:
                powers.append(inf)
        ays = [a * y * yv for y, yv in zip(GRID_AXIS, powers)]
        for x, xv in zip(GRID_AXIS, powers):
            bx = b * x * xv
            for y, ay in zip(GRID_AXIS, ays):
                try:
                    lhs = y * (x + y) ** v
                except OverflowError:
                    lhs = y * inf
                rhs = ay + bx
                if not lhs <= rhs < inf:
                    yield (v, x, y), lhs, rhs


def _check_monomials(d: int, a: float, b: float) -> CheckResult:
    """Grid-check y*(x+y)^v <= a*y*y^v + b*x*x^v for v = 0..d and x, y on
    GRID_AXIS: the worst slack and the first point (v, x, y) with it."""
    return _worst_slack(_monomial_cases(d, a, b))


def check_smoothness_constraint(d: int, rho: float, lam: float, mu: float) -> CheckResult:
    """Grid-check the smoothness constraint
    y*f(z+x+y) <= lam*y*f(z+y) + mu*x*f(z+x) for all f of degree <= d.

    By linearity it suffices to check monomials f(t) = t^v, v = 0..d, and
    the shift z folds into f, so the grid runs over (x, y) pairs with z = 0.
    Returns the worst signed relative slack over all points.  ``rho`` is
    not read: the check depends on (lam, mu) only, which a caller derives
    from rho (as poa_bounds does); it stays for positional callers.
    """
    return _check_monomials(d, lam, mu)


def combination_constant(d: int, epsilon: float) -> float:
    """The combination constant (1 + 1/epsilon)^d * d^d."""
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    return (1.0 + 1.0 / epsilon) ** d * float(d) ** d


def check_combination_inequality(d: int, epsilon: float) -> CheckResult:
    """Grid-check y*f(z+x+y) <= (1+eps)*y*f(z+x'+y) + xi_eps*x*f(z+x+y')
    for all f of degree <= d.

    Monotonicity lets x' = y' = 0 and the z shift folds into f, leaving
    y*f(x+y) <= (1+eps)*y*f(y) + xi_eps*x*f(x) over monomials f(t) = t^v.
    """
    return _check_monomials(d, 1.0 + epsilon, combination_constant(d, epsilon))


def check_concavity_inequality() -> CheckResult:
    """Grid-check (1+x)^psi - 1 >= psi*x*(1+x)^(psi-1) for psi = 1/25,
    2/25, ..., 1 and the positive points x of GRID_AXIS."""
    return _worst_slack(
        ((psi, x), psi * x * (1.0 + x) ** (psi - 1.0), (1.0 + x) ** psi - 1.0)
        for psi in (i / 25 for i in range(1, 26))
        for x in GRID_AXIS[1:]
    )


def check_epsilon_inverse_bound() -> CheckResult:
    """For (1+eps)^m = 1 + 1/p, check 1/eps <= m*(1+p) on sampled (m, p)."""
    samples = ((1, 2.0), (1, 160.0), (3, 160.0), (10, 160.0), (10, 10752.0), (40, 1e6), (100, 1e6))
    return _worst_slack(
        ((m, p), 1.0 / math.expm1(math.log1p(1.0 / p) / m), m * (1.0 + p)) for m, p in samples
    )


def check_p_property(d: int) -> bool:
    """Verify the schedule constant p = (2d+3)(d+1)(4d)^(d+1) dominates
    (2*alpha+1)*alpha*Phi(d, alpha + 1/p)^(d+1) with alpha = d+1, together
    with the two auxiliary inequalities backing the cost-drift analysis."""
    p = target_p(d)
    a = d + 1
    poa_at_alpha = phi_ratio(d, a + 1.0 / p) ** (d + 1)
    if p < (2 * a + 1) * a * poa_at_alpha * (1.0 - 1e-12):
        return False
    if not check_concavity_inequality().passed:
        return False
    if not check_epsilon_inverse_bound().passed:
        return False
    return True
