"""The integer kernel (game.IntGame) against the Fraction oracle.

On random games of degree 1-4 with zero coefficients and weights whose
denominators reach 8, on the golden cases and on lower-bound games, every
load, group load, cost, best response, potential and partial potential
the kernel computes, scaled back to a Fraction, each view of the kernel
(game.loads, game.player_costs, dynamics.best_response, the potentials
of potential.py) and each row of IntGame.potentials, at d+2 distinct
loads, must equal the from-scratch Fraction oracle of tests/reference.py
exactly.  IncrementalScan.move, which is IntState.move
followed by the scan's own bookkeeping, must keep the loads, resource
costs, player costs and potential of a recomputation.  run_algorithm
must produce the very trace of a from-scratch Fraction replay of the
phased dynamics, and at every step of every phase the solver's
IncrementalScan must answer what reference_first_eligible_move answers
on an IntState built from scratch, as it must under a phase-free rule,
the vacated game included, where a move leaves another player's cached
best response stale.
The exhaustive PoA oracles, min_equilibrium_factor (of all players, of a
group and of each player alone, which decides her rho-moves), group_cost,
social_cost and compute_schedule must return the values, states and
errors of their from-scratch Fraction versions, also on lower-bound
games.  game._scale and compile_game, which take each quotient of a
common denominator from the next larger one's, must give the integers of
dividing directly.  The product-order walk of the PoA oracles
(verify._Walk) must give every state's loads, resource costs, social cost
and potential from scratch; at each of its states IntGame.best_response
must answer the same through the walk's memo as through _horner;
IntGame.strategy_costs, through either, must give each player's cost
after switching to each of her strategies, recomputed from scratch, and
best_response must be their lowest argmin; and verify._rows, which reads
each player's costs and within-rho bits from one strategy_costs call per
choice of the others, must give the rows made from scratch state by
state.  Every reference is in tests/reference.py.
"""

from __future__ import annotations

import contextlib
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from congames import (
    CostPolynomial,
    Game,
    State,
    best_response,
    gen_lower_bound,
    make_player,
    normalize,
    partial_potential,
    player_costs,
    potential,
)
from congames.dynamics import (
    ALPHA_MOVE,
    P_MOVE,
    IncrementalScan,
    IntState,
    compute_schedule,
    run_algorithm,
    target_p,
)
from congames.errors import AlreadyZeroError, ZeroMinCostError
from congames.game import _horner, _scale, compile_game, group_cost, loads, social_cost
from congames.verify import _rows, _Walk, audit_trace, min_equilibrium_factor

import reference
from conftest import (
    CASES,
    SETTINGS,
    assert_poa_oracles_match_references,
    crafted_p_move_game,
    exact,
    exact_outcome,
    games,
    golden_case,
    oracle_games,
    rationals,
    vacated_game,
)
from reference import (
    reference_compute_schedule,
    reference_first_eligible_move,
    reference_group_cost,
    reference_min_equilibrium_factor,
    reference_rows,
    reference_run,
    reference_scale,
    reference_social_cost,
    reference_states,
    reference_strategy_costs,
)


def assert_kernel_matches_oracle(game: Game, state: State, group) -> None:
    """The kernel scaled back, and each view of it, against the oracle."""
    ig = compile_game(game)
    x = ig.loads(state.choices)
    assert [Fraction(v, ig.W) for v in x] == list(reference.loads(game, state))
    assert exact(loads(game, state)) == exact(reference.loads(game, state))
    x_group = [Fraction(v, ig.W) for v in ig.loads(state.choices, group)]
    assert x_group == list(reference.loads(game, state, group))
    for e, poly in enumerate(game.resources):  # d+2 values fix phi_e, of degree d+1
        for X in range(game.degree + 2):
            phi = reference.resource_potential(poly, Fraction(X, ig.W))
            assert Fraction(_horner(ig.potentials[e], X), ig.Dp) == phi
    rcosts = ig.resource_costs(x)
    costs = reference.player_costs(game, state)
    assert [ig.cost_value(k) for k in ig.player_costs(state.choices, rcosts)] == list(costs)
    assert exact(player_costs(game, state)) == exact(costs)
    for u in range(game.n):
        k, cost, current = ig.best_response(state.choices, x, rcosts, u)
        w = ig.weights[u]  # the kernel's sums are unweighted
        expected = reference.best_response(game, state, u)
        assert (k, ig.cost_value(w * cost)) == expected
        assert exact(best_response(game, state, u)) == exact(expected)
        assert ig.cost_value(w * current) == costs[u]
    expected = reference.potential(game, state)
    assert ig.potential_value(ig.potential(x)) == expected
    assert exact(potential(game, state)) == exact(expected)
    expected = reference.partial_potential(game, state, group)
    assert ig.potential_value(ig.partial_potential(state.choices, group)) == expected
    assert exact(partial_potential(game, state, group)) == exact(expected)


@SETTINGS
@given(games(), rationals)
def test_kernel_matches_fraction_oracle(case, bound):
    game, state, group = case
    assert_kernel_matches_oracle(game, state, group)
    # boundaries round up: K >= cost_ceil(b) exactly when K/(W*D) >= b
    ig = compile_game(game)
    ceil = ig.cost_ceil(bound)
    assert ig.cost_value(ceil) >= bound > ig.cost_value(ceil - 1)


@SETTINGS
@given(st.one_of(games(), games(zero_cost=True)))
def test_strategy_costs_match_switching_from_scratch(case):
    """IntGame.strategy_costs, weighted and scaled back, is each player's
    cost after switching to each of her strategies, recomputed from
    scratch, through _horner and through the walk's memo (called twice,
    so the second call reads what the first stored); best_response is
    their lowest argmin, their minimum and the current one."""
    game, state, _ = case
    ig, choices = game.compiled, state.choices
    x = ig.loads(choices)
    rcosts, memo = ig.resource_costs(x), _Walk(game, 10**6).horner
    for u in range(game.n):
        expected = reference_strategy_costs(game, state, u)
        best = min(expected)
        for evaluate in (None, memo, memo):
            totals = ig.strategy_costs(choices, x, rcosts, u, evaluate)
            assert [ig.cost_value(ig.weights[u] * t) for t in totals] == expected
            k, low, now = ig.best_response(choices, x, rcosts, u, evaluate)
            assert (k, low, now) == (totals.index(low), min(totals), totals[choices[u]])
            assert expected.index(best) == k and ig.cost_value(ig.weights[u] * low) == best


@SETTINGS
@given(games(), st.data())
def test_move_keeps_loads_and_potential(case, data):
    """IncrementalScan.move against a recomputation after every move."""
    game, state, _ = case
    ig = compile_game(game)
    scan = IncrementalScan(ig, state.choices)
    scan.start(lambda u, cost: (Fraction(2), ALPHA_MOVE))  # the rule does not matter here
    for _ in range(3):
        u = data.draw(st.integers(0, game.n - 1))
        k = data.draw(st.integers(0, len(game.players[u].strategies) - 1))
        scan.move(u, k)
        assert scan.choices[u] == k
        assert scan.x == ig.loads(scan.choices)
        assert scan.rcosts == ig.resource_costs(scan.x)
        assert scan.costs == ig.player_costs(scan.choices, scan.rcosts)
        assert scan.potential == ig.potential(scan.x)
        assert ig.potential_value(scan.potential) == reference.potential(
            game, State(tuple(scan.choices))
        )


def assert_scale_matches(game: Game) -> None:
    ig = compile_game(game)
    W = ig.W
    assert W == math.lcm(*(p.weight.denominator for p in game.players))
    assert ig.weights == tuple(p.weight.numerator * (W // p.weight.denominator) for p in game.players)
    for polys, scale in (
        ([poly.coeffs for poly in game.resources], W),
        ([(p.weight,) for p in game.players], 1),
    ):
        assert _scale(polys, scale) == reference_scale(polys, scale)


@SETTINGS
@given(games(zero_cost=True))
def test_scale_matches_direct_division(case):
    game, state, _ = case
    assert_scale_matches(game)
    assert compile_game(game).partial_potential(state.choices, []) == 0


@pytest.mark.parametrize("d, n", [(1, 30), (2, 150), (3, 30)])
def test_scale_matches_direct_division_on_lower_bound_games(d, n):
    assert_scale_matches(gen_lower_bound(d, Fraction(3, 2), n, 40).game)


# --------------------------------------------------------------------------
# The layers that run on the integer game against their Fraction references
# --------------------------------------------------------------------------


def assert_layers_match(game: Game, state: State, group) -> None:
    """The integer layers against their Fraction versions at one state,
    compared exactly with their types (see conftest.exact).  Each player's own
    factor decides her rho-moves: she has one exactly when it exceeds rho."""
    for players in (None, group, *([u] for u in range(game.n))):
        assert exact(min_equilibrium_factor(game, state, players)) == exact(
            reference_min_equilibrium_factor(game, state, players)
        )
    # the group is walked twice, so a one-shot iterator must give the same answer
    assert exact(min_equilibrium_factor(game, state, iter(group))) == exact(
        min_equilibrium_factor(game, state, list(group))
    )
    assert exact(min_equilibrium_factor(game, state, None)) == exact(
        min_equilibrium_factor(game, state, range(game.n))
    )
    assert exact(group_cost(game, state, group)) == exact(
        reference_group_cost(game, state, group)
    )
    assert exact(social_cost(game, state)) == exact(reference_social_cost(game, state))


P_OVERRIDES = [None, "target", 0, 2, -1]  # offsets from d + 2; -1 is below the minimum


def assert_schedules_match(game: Game, state: State) -> None:
    for extra in P_OVERRIDES:
        p_override = (
            None if extra is None
            else target_p(game.degree) if extra == "target"
            else game.degree + 2 + extra
        )
        assert exact_outcome(compute_schedule, game, state, p_override) == exact_outcome(
            reference_compute_schedule, game, state, p_override
        )


@SETTINGS
@given(games(zero_cost=True))
def test_layers_match_fraction_reference(case):
    game, state, group = case
    assert_layers_match(game, state, group)


@SETTINGS
@given(st.one_of(games(zero_cost=True), games(anchored=True)))
@example(  # boundary denominators of 4,311 digits, past the int/str limit
    (
        Game(
            4,
            (CostPolynomial((Fraction(0), Fraction(1, 8))), CostPolynomial((Fraction(2**64),))),
            (make_player(1, [[0]]), make_player(1, [[1]])),
        ),
        State((0, 0)),
        [],
    )
)
def test_schedule_matches_fraction_reference(case):
    game, state, _ = case
    assert_schedules_match(game, state)  # unnormalized weights raise in both
    assert_schedules_match(normalize(game), state)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_layers_match_on_lower_bound_games(d):
    for n, rho in ((1, Fraction(1)), (6, Fraction(9, 8)), (30, Fraction(3, 2))):
        bundle = gen_lower_bound(d, rho, n, 20)
        mixed = State(tuple(u % 2 for u in range(n)))
        for state in (bundle.equilibrium_state, bundle.optimal_state, mixed):
            group = list(range(0, n, 3))
            assert_kernel_matches_oracle(bundle.game, state, group)
            assert_layers_match(bundle.game, state, group)
            assert_schedules_match(normalize(bundle.game), state)


@settings(SETTINGS, max_examples=100)
@given(games(anchored=True), st.sampled_from([None, 0, 2]))
def test_trace_matches_fraction_replay(case, p_extra):
    game, state, _ = case
    game = normalize(game)  # the solver needs weights >= 1
    p_override = None if p_extra is None else game.degree + 2 + p_extra
    try:
        expected = reference_run(game, state, p_override)
    except AlreadyZeroError:
        final, trace = run_algorithm(game, state, p_override)
        assert final == state and trace.schedule is None and not trace.moves
        return
    except ZeroMinCostError:
        with pytest.raises(ZeroMinCostError):
            run_algorithm(game, state, p_override)
        return
    final, trace = run_algorithm(game, state, p_override)
    assert trace == expected
    assert final == expected.final_state
    report = audit_trace(game, trace)
    assert report.passed, report.failures
    assert report.final_factor == reference_min_equilibrium_factor(game, final)


def test_p_move_trace_matches_fraction_replay():
    game, s0 = crafted_p_move_game()
    _, trace = run_algorithm(game, s0, p_override=4)
    assert any(mv.move_class == P_MOVE for mv in trace.moves)
    assert trace == reference_run(game, s0, 4)


@contextlib.contextmanager
def scan_checked_against_oracle():
    """Patch IncrementalScan.next_move so that each of its answers, its
    cached player costs and every best response it holds cached are
    compared with reference_first_eligible_move, player_costs and
    best_response on loads recomputed from scratch; yields the answers."""
    answers = []
    incremental = IncrementalScan.next_move

    def checked(scan):
        found = incremental(scan)
        ig, scratch = scan.ig, IntState(scan.ig, scan.choices)
        costs = ig.player_costs(scratch.choices, scratch.rcosts)
        assert scan.costs == costs
        for u, response in enumerate(scan.responses):
            if response is not None:
                assert response == ig.best_response(scratch.choices, scratch.x, scratch.rcosts, u)
        assert found == reference_first_eligible_move(scratch, costs, scan.rule)
        answers.append(found)
        return found

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(IncrementalScan, "next_move", checked)
        yield answers


def assert_scan_matches_oracle(game: Game, s_init: State, p_override: int | None) -> None:
    with scan_checked_against_oracle() as answers:
        try:
            _, trace = run_algorithm(game, s_init, p_override)
        except ZeroMinCostError:
            return
    if trace.schedule is None:
        assert answers == []
        return
    # one answer per move, and the None that ends each phase
    assert len(answers) == len(trace.moves) + trace.schedule.m
    assert answers.count(None) == trace.schedule.m


# A cached best response goes stale when a move changes a resource of
# another of the player's strategies, as in the vacated game.  The random
# games seldom leave one: most make no move, as a move must beat a factor
# above alpha >= 2, and a stale response also needs a lower-index player,
# scanned before the mover, whose current strategy avoids every resource
# the move changes while another of hers uses one.
VACATED = ((vacated_game(), State((0, 0)), []),)


@settings(SETTINGS, max_examples=100)
@given(st.one_of(games(zero_cost=True), games(anchored=True)), st.booleans())
@example(*VACATED, True)
def test_incremental_scan_matches_scan_from_scratch(case, p_low):
    game, state, _ = case
    game = normalize(game)
    assert_scan_matches_oracle(game, state, game.degree + 2 if p_low else None)


def test_incremental_scan_matches_scan_from_scratch_on_p_move_game():
    game, s0 = crafted_p_move_game()
    assert_scan_matches_oracle(game, s0, 4)


@SETTINGS
@given(games(zero_cost=True), st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(3)]))
@example(*VACATED, Fraction(3, 2))
def test_incremental_scan_under_phase_free_rule(case, threshold):
    """Plain lowest-index threshold dynamics on the scan: one rule for
    every player at every cost, with no schedule, phase or fixed set.  Each
    answer must be reference_first_eligible_move's from scratch.  The run stops after
    20 moves, as plain dynamics need not converge for d >= 2."""
    game, state, _ = case
    scan = IncrementalScan(game.compiled, state.choices)
    with scan_checked_against_oracle() as answers:
        scan.start(lambda u, cost: (threshold, ALPHA_MOVE))
        while len(answers) < 20 and (found := scan.next_move()) is not None:
            scan.move(found[0], found[1])
    assert None not in answers[:-1]


@pytest.mark.parametrize("name", sorted(CASES))
def test_incremental_scan_matches_scan_from_scratch_on_golden_cases(name, tmp_path):
    assert_scan_matches_oracle(*golden_case(name, tmp_path))


@pytest.mark.parametrize("name", sorted(CASES))
def test_kernel_matches_fraction_oracle_on_golden_cases(name, tmp_path):
    game, s0, p_override = golden_case(name, tmp_path)
    _, trace = run_algorithm(game, s0, p_override)
    for state in {s0, *trace.phase_end_states}:
        assert_kernel_matches_oracle(game, state, range(0, game.n, 2))


# --------------------------------------------------------------------------
# The exhaustive PoA oracles against their from-scratch Fraction versions
# --------------------------------------------------------------------------


@settings(SETTINGS, max_examples=50)
@given(
    oracle_games(),
    st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(3)]),
    st.sampled_from([10**6, 8]),
)
def test_poa_oracles_match_fraction_reference(game, rho, state_cap):
    assert_poa_oracles_match_references(game, rho, state_cap)


@settings(SETTINGS, max_examples=50)
@given(
    oracle_games(),
    st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(3)]),
    st.sampled_from([10**6, 8]),
    st.booleans(),
)
def test_rows_of_the_walk_match_rows_from_scratch(game, rho, state_cap, potential):
    got = exact_outcome(lambda: tuple(_rows(_Walk(game, state_cap, potential), rho)))
    expected = exact_outcome(lambda: tuple(reference_rows(game, rho, state_cap, potential)))
    assert got == expected  # field by field, types included, or the same cap error


@settings(SETTINGS, max_examples=50)
@given(oracle_games(), st.booleans())
def test_best_response_through_the_walks_memo(game, potential):
    """At every state of the walk, IntGame.best_response reading the
    walk's memo (which the potential walk also fills with potential rows)
    answers what it answers through _horner."""
    ig, walk = game.compiled, _Walk(game, 10**6, potential)
    for choices, x, rcosts, _, _ in walk:
        for u in range(game.n):
            got = ig.best_response(choices, x, rcosts, u, walk.horner)
            assert got == ig.best_response(choices, x, rcosts, u)


@settings(SETTINGS, max_examples=50)
@given(oracle_games(), st.booleans())
def test_walk_matches_states_from_scratch(game, potential):
    ig = game.compiled
    for (choices, x, rcosts, cost, pot), state in zip(
        _Walk(game, 10**6, potential), reference_states(game, 10**6), strict=True
    ):
        assert tuple(choices) == state.choices
        assert x == ig.loads(choices)
        assert rcosts == ig.resource_costs(x)
        assert ig.cost_value(cost) == reference_social_cost(game, state)
        assert pot == (ig.potential(x) if potential else None)
