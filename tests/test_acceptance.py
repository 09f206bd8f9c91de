"""Acceptance suite: one test per headline guarantee, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to see them).

Exact-arithmetic checks use zero tolerance; float-domain checks state their
tolerance inline, except the grid checks, which apply the analysis module's
TOLERANCE (1e-9).  Criterion 5 is split in two: the closed-form ratio checks
pass, while the n=50 convergence threshold is kept as stated even though the
family provably needs larger n to clear 0.97 (see the test's comment); that
test documents the shortfall and fails honestly.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

import pytest

from congames import (
    State,
    audit_trace,
    brute_force_poa,
    check_combination_inequality,
    check_smoothness_constraint,
    gen_lower_bound,
    gen_random,
    lambert_w,
    max_group_poa_ratio,
    min_equilibrium_factor,
    phi_ratio,
    poa_bounds,
    run_algorithm,
    smoothness_B,
    smoothness_mu_hat,
)
from congames.analysis import check_concavity_inequality, check_epsilon_inverse_bound
from congames.errors import NoEquilibriumError
from congames.game import player_costs, social_cost
from congames.instances import rational_root_below

import reference
from conftest import with_choice


def report(criterion: str, ok: bool, started: float, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    elapsed = time.perf_counter() - started
    print(f"[acceptance] {criterion}: {status} ({elapsed:.2f}s) {detail}".rstrip())


# --------------------------------------------------------------------- 1


def test_criterion_01_golden_ratio_recovery():
    t0 = time.perf_counter()
    ok = abs(phi_ratio(1, 1.0) - 1.6180339887) <= 1e-9
    for rho in (1.0, 2.0, 5.0, 10.0):
        closed = (rho + math.sqrt(rho * rho + 4 * rho)) / 2
        ok = ok and abs(phi_ratio(1, rho) - closed) <= 1e-9
    elapsed = time.perf_counter() - t0
    report("criterion 01 (golden-ratio recovery)", ok and elapsed < 1.0, t0)
    assert ok
    assert elapsed < 1.0


# --------------------------------------------------------------------- 2


def test_criterion_02_lambert_bound():
    t0 = time.perf_counter()
    ok = 0.257 <= lambert_w(1.0 / 3.0) <= 0.259
    for d in range(1, 11):
        for rho in (1.0, 1.5, 2.0, d + 2.0):
            ok = ok and phi_ratio(d, rho) <= d / lambert_w(d / rho) + 1e-12
    elapsed = time.perf_counter() - t0
    report("criterion 02 (Lambert-W bound)", ok and elapsed < 1.0, t0)
    assert ok
    assert elapsed < 1.0


# --------------------------------------------------------------------- 3


def test_criterion_03_smoothness_identity():
    t0 = time.perf_counter()
    ok = True
    for d in range(1, 7):
        for rho in (1.0, 2.0, d + 2.0):
            phi_pow = phi_ratio(d, rho) ** (d + 1)
            b_hat = smoothness_B(d, rho, smoothness_mu_hat(d, rho))
            ok = ok and abs(b_hat - phi_pow) <= 1e-6 * phi_pow
            for k in range(1, 51):
                ok = ok and smoothness_B(d, rho, k / 51) >= phi_pow * (1 - 1e-6)
    elapsed = time.perf_counter() - t0
    report("criterion 03 (smoothness identity B(mu_hat) = Phi^(d+1))", ok and elapsed < 5.0, t0)
    assert ok
    assert elapsed < 5.0


# --------------------------------------------------------------------- 4


def test_criterion_04_smoothness_constraint():
    t0 = time.perf_counter()
    ok = True
    worst = math.inf
    for d in range(1, 5):
        for rho in (1.0, 2.0):
            r = poa_bounds(d, rho)
            res = check_smoothness_constraint(d, rho, r.lambda_hat, r.mu_hat)
            ok = ok and res.passed
            worst = min(worst, res.worst_slack)
    elapsed = time.perf_counter() - t0
    report(
        "criterion 04 (smoothness constraint at optimal pair)",
        ok and elapsed < 10.0,
        t0,
        f"worst relative slack {worst:.3g}",
    )
    assert ok
    assert elapsed < 10.0


# --------------------------------------------------------------------- 5

C5_CASES = [(d, rho) for d in (1, 2) for rho in (Fraction(1), Fraction(3, 2))]


def test_criterion_05_lower_bound_family():
    t0 = time.perf_counter()
    tol = Fraction(1, 10**30)
    ok = True
    for d, rho in C5_CASES:
        independent_root = rational_root_below(d, rho, 60)
        for n in (3, 10, 50):
            bundle = gen_lower_bound(d, rho, n, 40)
            s, s_star = bundle.equilibrium_state, bundle.optimal_state
            costs = reference.player_costs(bundle.game, s)
            for u in range(n):
                deviation = reference.player_costs(bundle.game, with_choice(s, u, 0))[u]
                ok = ok and abs(costs[u] / deviation / rho - 1) <= tol
            measured = social_cost(bundle.game, s) / social_cost(bundle.game, s_star)
            phi_pow = independent_root ** (d + 1)
            formula = n * phi_pow / (n - 1 + phi_pow / rho)
            ok = ok and abs(measured / formula - 1) <= tol
    elapsed = time.perf_counter() - t0
    report(
        "criterion 05 (lower-bound family: ratios and cost formula, 1e-30)",
        ok and elapsed < 5.0,
        t0,
    )
    assert ok
    assert elapsed < 5.0


def test_criterion_05_convergence_threshold_at_n50():
    # As stated, the n = 50 instance must reach 0.97 * Phi^(d+1).  The family
    # satisfies ratio/Phi^(d+1) = n / (n - 1 + Phi^(d+1)/rho), which at n = 50
    # tops out at 0.9687 for (d=1, rho=1) and 0.849 for (d=2, rho=1); clearing
    # 0.97 needs n >= 288 for (d=2, rho=1).  The check is kept at its stated
    # threshold and fails; test_lower_bound_convergence_at_larger_n shows the
    # same property holding from n = 500.
    t0 = time.perf_counter()
    shortfalls = []
    for d, rho in C5_CASES:
        bundle = gen_lower_bound(d, rho, 50, 40)
        measured = social_cost(bundle.game, bundle.equilibrium_state) / social_cost(
            bundle.game, bundle.optimal_state
        )
        phi_pow = float(bundle.root_approx) ** (d + 1)
        if float(measured) <= 0.97 * phi_pow:
            shortfalls.append((d, float(rho), float(measured) / phi_pow))
    report(
        "criterion 05 (convergence threshold 0.97 at n=50)",
        not shortfalls,
        t0,
        f"measured/Phi^(d+1) = {[(d, r, round(v, 4)) for d, r, v in shortfalls]}",
    )
    assert not shortfalls, (
        "lower-bound family does not reach 0.97 * Phi^(d+1) at n = 50; "
        f"shortfalls (d, rho, fraction of limit): {shortfalls}"
    )


def test_lower_bound_convergence_at_larger_n():
    # the convergence the n=50 check aims at, demonstrated where it holds;
    # coarse precision suffices for a 3-percent threshold
    t0 = time.perf_counter()
    ok = True
    for d, rho in C5_CASES:
        bundle = gen_lower_bound(d, rho, 500, 10)
        measured = social_cost(bundle.game, bundle.equilibrium_state) / social_cost(
            bundle.game, bundle.optimal_state
        )
        ok = ok and float(measured) > 0.97 * float(bundle.root_approx) ** (d + 1)
    report("lower-bound convergence at n=500 (supplementary)", ok, t0)
    assert ok


# --------------------------------------------------------------------- 6


def test_criterion_06_brute_force_poa_vs_theory():
    t0 = time.perf_counter()
    checked = skipped = 0
    ok = True
    for seed in range(200):
        n = 1 + seed % 3
        d = 1 + seed % 2
        game = gen_random(
            n=n,
            d=d,
            num_resources=3 + seed % 3,
            strategies_per_player=2 + seed % 2,
            max_strategy_size=2,
            coeff_range=(Fraction(0), Fraction(2)),
            weight_range=(Fraction(1), Fraction(3)),
            seed=60_000 + seed,
        )
        for rho in (Fraction(1), Fraction(2)):
            bound = Fraction(phi_ratio(d, float(rho)) ** (d + 1)) + Fraction(1, 10**6)
            try:
                poa, _, _ = brute_force_poa(game, rho)
            except NoEquilibriumError:
                skipped += 1
                continue
            ok = ok and poa <= bound
            ok = ok and max_group_poa_ratio(game, rho) <= bound
            checked += 1
    elapsed = time.perf_counter() - t0
    report(
        "criterion 06 (brute-force PoA <= Phi^(d+1), group version)",
        ok and checked >= 200 and elapsed < 120.0,
        t0,
        f"{checked} game/rho pairs checked, {skipped} empty",
    )
    assert ok
    assert checked >= 200
    assert elapsed < 120.0


# --------------------------------------------------------------------- 7 & 8


@pytest.fixture(scope="module")
def exact_constant_runs():
    runs = []
    for seed in range(100):
        n = 2 + seed % 5
        d = 1 + seed % 2
        game = gen_random(
            n=n,
            d=d,
            num_resources=3 + seed % 6,
            strategies_per_player=2 + seed % 2,
            max_strategy_size=2 + seed % 2,
            coeff_range=(Fraction(1, 4), Fraction(2)),
            weight_range=(Fraction(1), Fraction(3)),
            seed=70_000 + seed,
        )
        rng_state = State(tuple((seed + 3 * u) % len(p.strategies) for u, p in enumerate(game.players)))
        final, trace = run_algorithm(game, rng_state)
        runs.append((game, final, trace))
    return runs


def test_criterion_07_algorithm_guarantee(exact_constant_runs):
    t0 = time.perf_counter()
    ok = True
    worst_factor = Fraction(0)
    for game, final, trace in exact_constant_runs:
        assert trace.schedule is not None and trace.schedule.exact_constants
        sched = trace.schedule
        ceiling = sched.final_factor_ceiling
        counts: dict[int, int] = {}
        for mv in trace.moves:
            counts[mv.phase] = counts.get(mv.phase, 0) + 1
        for phase, count in counts.items():
            ok = ok and count <= sched.move_budget(phase)
        factor = min_equilibrium_factor(game, final)
        ok = ok and factor <= ceiling
        if factor > worst_factor:
            worst_factor = factor
    elapsed = time.perf_counter() - t0
    p160 = Fraction(160 * 163, 158)
    report(
        "criterion 07 (algorithm terminates within budgets and guarantee)",
        ok and elapsed < 120.0,
        t0,
        f"{len(exact_constant_runs)} runs; worst measured factor {float(worst_factor):.4f} "
        f"vs d=1 ceiling {float(p160):.2f}",
    )
    assert ok
    assert len(exact_constant_runs) >= 100
    assert elapsed < 120.0


def test_criterion_08_trace_audits(exact_constant_runs):
    t0 = time.perf_counter()
    ok = True
    for game, _, trace in exact_constant_runs:
        rep = audit_trace(game, trace)
        ok = ok and rep.passed
        ok = ok and all(ph.key_slack is None or ph.key_slack >= 0 for ph in rep.phases)
        ok = ok and all(mv.potential_drop >= mv.required_drop for mv in rep.moves)
        ok = ok and all(fx.ok for fx in rep.fixes)
    report("criterion 08 (exact trace audit, zero tolerance)", ok, t0)
    assert ok


# --------------------------------------------------------------------- 9


def test_criterion_09_potential_sandwich_and_drop(rng):
    from congames.potential import alpha, partial_potential
    from congames.game import group_cost

    from conftest import kernel_phi, random_fraction, random_game, random_polynomial, random_state

    t0 = time.perf_counter()
    ok = True
    for _ in range(10_000):
        d = rng.randint(1, 4)
        poly = random_polynomial(rng, d)
        x = random_fraction(rng, 0, 6)
        w = Fraction(1) + random_fraction(rng, 0, 4)
        phi = kernel_phi(poly)
        step = phi(x + w) - phi(x)
        lo = w * poly(x + w)
        ok = ok and lo <= step <= alpha(d) * lo

    for _ in range(1_000):
        d = rng.randint(1, 3)
        game = random_game(rng, 4, d, 5)
        s = random_state(rng, game)
        u = rng.randrange(4)
        group = sorted(set(rng.sample(range(4), rng.randint(1, 4))) | {u})
        c = group_cost(game, s, group)
        part = partial_potential(game, s, group)
        ok = ok and c <= part <= alpha(d) * c
        s2 = with_choice(s, u, rng.randrange(len(game.players[u].strategies)))
        drop = part - partial_potential(game, s2, group)
        ok = ok and drop >= player_costs(game, s)[u] - alpha(d) * player_costs(game, s2)[u]
    elapsed = time.perf_counter() - t0
    report(
        "criterion 09 (potential sandwich/drop inequalities, exact)",
        ok and elapsed < 30.0,
        t0,
    )
    assert ok
    assert elapsed < 30.0


# --------------------------------------------------------------------- 10


def test_criterion_10_combination_inequalities():
    t0 = time.perf_counter()
    ok = True
    for d in range(1, 5):
        for eps in (0.1, 1.0, 10.0):
            ok = ok and check_combination_inequality(d, eps).passed
    ok = ok and check_concavity_inequality().passed
    ok = ok and check_epsilon_inverse_bound().passed
    elapsed = time.perf_counter() - t0
    report("criterion 10 (combination/concavity inequalities)", ok and elapsed < 10.0, t0)
    assert ok
    assert elapsed < 10.0
