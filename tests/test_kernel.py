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
IncrementalScan must answer what first_eligible_move answers on an
IntState built from scratch, as it must under a phase-free rule.  The
exhaustive PoA oracles, min_equilibrium_factor (of all players, of a
group and of each player alone, which decides her rho-moves), group_cost,
social_cost and compute_schedule must return the values, states and
errors of their from-scratch Fraction versions kept here, also on
lower-bound games.
game._scale and compile_game, which take each quotient of a common
denominator from the next larger one's, must give the integers of
dividing directly.  The product-order walk of the PoA oracles
(verify._Walk) must give every state's loads, resource costs, social cost
and potential from scratch, and verify._rows, which reads each player's
costs from a deviation vector, the rows made from scratch state by
state.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
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
    MoveRecord,
    Schedule,
    Trace,
    compute_schedule,
    first_eligible_move,
    improves,
    run_algorithm,
    target_p,
)
from congames.errors import (
    AlreadyZeroError,
    CongamesError,
    MalformedInstanceError,
    NoEquilibriumError,
    StateSpaceTooLargeError,
    ZeroMinCostError,
)
from congames.game import (
    _horner,
    _scale,
    compile_game,
    group_cost,
    loads,
    parse_instance,
    social_cost,
    validate_state,
)
from congames.potential import alpha
from congames.verify import (
    _Row,
    _rows,
    _Walk,
    audit_trace,
    brute_force_poa,
    max_group_poa_ratio,
    max_rho_stretch_ratio,
    min_equilibrium_factor,
)

import reference
from conftest import SETTINGS, crafted_p_move_game, with_choice
from test_golden import CASES, _cli

rationals = st.builds(Fraction, st.integers(0, 12), st.integers(1, 8))
weights = st.builds(Fraction, st.integers(1, 24), st.integers(1, 8))


@st.composite
def games(draw, anchored: bool = False, zero_cost: bool = False) -> tuple[Game, State, list[int]]:
    """A game, a state of it and a player group.  An anchored game adds a
    player alone on a resource of constant cost 2^k, which stretches the
    solver's schedule so that the others move in later phases.  With
    zero_cost, a quarter of the resources cost nothing at any load."""
    degree = draw(st.integers(1, 4))
    num_resources = draw(st.integers(1, 5))
    resources = [
        CostPolynomial(
            (Fraction(0),)
            if zero_cost and draw(st.integers(0, 3)) == 3
            else tuple(draw(st.lists(rationals, min_size=1, max_size=degree + 1)))
        )
        for _ in range(num_resources)
    ]
    subsets = st.lists(st.integers(0, num_resources - 1), min_size=1, max_size=3, unique=True)
    players = [
        make_player(draw(weights), draw(st.lists(subsets, min_size=1, max_size=3)))
        for _ in range(draw(st.integers(1, 5)))
    ]
    if anchored:
        resources.append(CostPolynomial((Fraction(2 ** draw(st.integers(0, 64))),)))
        players.append(make_player(Fraction(1), [[num_resources]]))
    game = Game(degree=degree, resources=tuple(resources), players=tuple(players))
    state = State(tuple(draw(st.integers(0, len(p.strategies) - 1)) for p in players))
    group = draw(st.lists(st.integers(0, game.n - 1), unique=True))
    return game, state, group


def assert_kernel_matches_oracle(game: Game, state: State, group) -> None:
    """The kernel scaled back, and each view of it, against the oracle."""
    ig = compile_game(game)
    x = ig.loads(state.choices)
    assert [Fraction(v, ig.W) for v in x] == list(reference.loads(game, state))
    assert _exact(loads(game, state)) == _exact(reference.loads(game, state))
    x_group = [Fraction(v, ig.W) for v in ig.loads(state.choices, group)]
    assert x_group == list(reference.loads(game, state, group))
    for e, poly in enumerate(game.resources):  # d+2 values fix phi_e, of degree d+1
        for X in range(game.degree + 2):
            phi = reference.resource_potential(poly, Fraction(X, ig.W))
            assert Fraction(_horner(ig.potentials[e], X), ig.Dp) == phi
    rcosts = ig.resource_costs(x)
    costs = reference.player_costs(game, state)
    assert [ig.cost_value(k) for k in ig.player_costs(state.choices, rcosts)] == list(costs)
    assert _exact(player_costs(game, state)) == _exact(costs)
    for u in range(game.n):
        k, cost, current = ig.best_response(state.choices, x, rcosts, u)
        w = ig.weights[u]  # the kernel's sums are unweighted
        expected = reference.best_response(game, state, u)
        assert (k, ig.cost_value(w * cost)) == expected
        assert _exact(best_response(game, state, u)) == _exact(expected)
        assert ig.cost_value(w * current) == costs[u]
    expected = reference.potential(game, state)
    assert ig.potential_value(ig.potential(x)) == expected
    assert _exact(potential(game, state)) == _exact(expected)
    expected = reference.partial_potential(game, state, group)
    assert ig.potential_value(ig.partial_potential(state.choices, group)) == expected
    assert _exact(partial_potential(game, state, group)) == _exact(expected)


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


def reference_scale(polys, W: int):
    """game._scale with every quotient L // a.denominator divided directly."""
    top = max(len(coeffs) for coeffs in polys) - 1
    L = math.lcm(*sorted({a.denominator for coeffs in polys for a in coeffs}))
    powers = [W ** (top - v) for v in range(top + 1)]
    return L * powers[0], tuple(
        tuple(
            a.numerator * (L // a.denominator) * powers[v] if a else 0
            for v, a in reversed(tuple(enumerate(coeffs)))
        )
        for coeffs in polys
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


def _ratio(numer: Fraction, denom: Fraction):
    if denom == 0:
        return Fraction(1) if numer == 0 else math.inf
    return numer / denom


# --------------------------------------------------------------------------
# From-scratch Fraction versions of the layers that run on the integer game
# --------------------------------------------------------------------------


def reference_group_cost(game: Game, state: State, players) -> Fraction:
    x = reference.loads(game, state)
    x_group = reference.loads(game, state, set(players))
    total = Fraction(0)
    for e in range(game.num_resources):
        if x_group[e] != 0:
            total += x_group[e] * game.resources[e](x[e])
    return total


def reference_social_cost(game: Game, state: State) -> Fraction:
    return reference_group_cost(game, state, range(game.n))


def reference_min_equilibrium_factor(game: Game, state: State, players=None):
    costs = reference.player_costs(game, state)
    group = range(game.n) if players is None else players
    factors = [_ratio(costs[u], reference.best_response(game, state, u)[1]) for u in group]
    return max([Fraction(1), *factors])


def reference_empty_profile_best_cost(game: Game, u: int) -> Fraction:
    player = game.players[u]
    return min(
        player.weight * sum((game.resources[e](player.weight) for e in strat), Fraction(0))
        for strat in player.strategies
    )


def reference_compute_schedule(
    game: Game, s_init: State, p_override: int | None = None
) -> Schedule:
    validate_state(game, s_init)
    if not game.is_normalized:
        raise MalformedInstanceError(
            "player weights must be >= 1 for the solver; apply normalize() first"
        )
    c_max = max(reference.player_costs(game, s_init))
    if c_max == 0:
        raise AlreadyZeroError("all player costs are zero at the initial state")
    c_min = min(reference_empty_profile_best_cost(game, u) for u in range(game.n))
    if c_min == 0:
        raise ZeroMinCostError("a player can reach cost zero; phase count undefined")
    d = game.degree
    p = target_p(d) if p_override is None else p_override
    if p < alpha(d) + 1:
        raise MalformedInstanceError(f"p must be >= {alpha(d) + 1} for degree {d}, got {p}")
    m = 0
    while 2**m < c_max / c_min:
        m += 1
    m = max(1, m)
    g = game.n * p**3 * (1 + m * (1 + p)) ** d * d**d + 1
    return Schedule(
        p=p,
        alpha=alpha(d),
        c_max=c_max,
        c_min=c_min,
        m=m,
        g=g,
        boundaries=tuple(c_max * Fraction(1, g**i) for i in range(m + 1)),
        n_players=game.n,
        exact_constants=p == target_p(d),
    )


def assert_layers_match(game: Game, state: State, group) -> None:
    """The integer layers against their Fraction versions at one state,
    compared exactly with their types (see _exact).  Each player's own
    factor decides her rho-moves: she has one exactly when it exceeds rho."""
    for players in (None, group, *([u] for u in range(game.n))):
        assert _exact(min_equilibrium_factor(game, state, players)) == _exact(
            reference_min_equilibrium_factor(game, state, players)
        )
    # the group is walked twice, so a one-shot iterator must give the same answer
    assert _exact(min_equilibrium_factor(game, state, iter(group))) == _exact(
        min_equilibrium_factor(game, state, list(group))
    )
    assert _exact(min_equilibrium_factor(game, state, None)) == _exact(
        min_equilibrium_factor(game, state, range(game.n))
    )
    assert _exact(group_cost(game, state, group)) == _exact(
        reference_group_cost(game, state, group)
    )
    assert _exact(social_cost(game, state)) == _exact(reference_social_cost(game, state))


P_OVERRIDES = [None, "target", 0, 2, -1]  # offsets from d + 2; -1 is below the minimum


def assert_schedules_match(game: Game, state: State) -> None:
    for extra in P_OVERRIDES:
        p_override = (
            None if extra is None
            else target_p(game.degree) if extra == "target"
            else game.degree + 2 + extra
        )
        assert _outcome(compute_schedule, game, state, p_override) == _outcome(
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


def reference_run(game: Game, s_init: State, p_override: int | None) -> Trace:
    """The phased dynamics on Fractions alone, every value from scratch."""
    schedule = reference_compute_schedule(game, s_init, p_override)
    b = schedule.boundaries
    state, fixed, moves = s_init, set(), []
    phase_end_states, movers_per_phase, fixed_sets = [], [], []

    def find_move(phase):
        costs = reference.player_costs(game, state)
        for u in range(game.n):
            cost = costs[u]
            if u in fixed:
                continue
            if phase == 0:
                if cost < b[1]:
                    continue
                threshold, move_class = schedule.alpha_threshold, ALPHA_MOVE
            elif cost >= b[phase]:
                threshold, move_class = Fraction(schedule.p), P_MOVE
            elif cost >= b[phase + 1]:
                threshold, move_class = schedule.alpha_threshold, ALPHA_MOVE
            else:
                continue
            br, br_cost = reference.best_response(game, state, u)
            if cost > threshold * br_cost:
                return u, br, cost, br_cost, move_class
        return None

    def fix(boundary):
        costs = reference.player_costs(game, state)
        newly = frozenset(u for u in range(game.n) if u not in fixed and costs[u] >= boundary)
        fixed.update(newly)
        fixed_sets.append(newly)

    for phase in range(schedule.m):
        movers = set()
        while (found := find_move(phase)) is not None:
            u, br, cost, br_cost, move_class = found
            new_state = with_choice(state, u, br)
            moves.append(MoveRecord(
                phase=phase, step=len(moves), player=u, from_strategy=state.choices[u],
                to_strategy=br, cost_before=cost, cost_after=br_cost, move_class=move_class,
                potential_before=reference.potential(game, state),
                potential_after=reference.potential(game, new_state),
            ))
            movers.add(u)
            state = new_state
        movers_per_phase.append(frozenset(movers))
        phase_end_states.append(state)
        if phase == 0:
            fixed_sets.append(frozenset())
        else:
            fix(b[phase])
    fix(b[schedule.m])
    return Trace(
        schedule=schedule,
        initial_state=s_init,
        final_state=state,
        moves=tuple(moves),
        phase_end_states=tuple(phase_end_states),
        movers_per_phase=tuple(movers_per_phase),
        fixed_sets=tuple(fixed_sets),
        game_sha256=game.fingerprint,
    )


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
    compared with first_eligible_move, player_costs and best_response on
    loads recomputed from scratch; yields the answers."""
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
        assert found == first_eligible_move(scratch, costs, scan.rule)
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


@settings(SETTINGS, max_examples=100)
@given(st.one_of(games(zero_cost=True), games(anchored=True)), st.booleans())
def test_incremental_scan_matches_scan_from_scratch(case, p_low):
    game, state, _ = case
    game = normalize(game)
    assert_scan_matches_oracle(game, state, game.degree + 2 if p_low else None)


def test_incremental_scan_matches_scan_from_scratch_on_p_move_game():
    game, s0 = crafted_p_move_game()
    assert_scan_matches_oracle(game, s0, 4)


@SETTINGS
@given(games(zero_cost=True), st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(3)]))
def test_incremental_scan_under_phase_free_rule(case, threshold):
    """Plain lowest-index threshold dynamics on the scan: one rule for
    every player at every cost, with no schedule, phase or fixed set.  Each
    answer must be first_eligible_move's from scratch.  The run stops after
    20 moves, as plain dynamics need not converge for d >= 2."""
    game, state, _ = case
    scan = IncrementalScan(game.compiled, state.choices)
    with scan_checked_against_oracle() as answers:
        scan.start(lambda u, cost: (threshold, ALPHA_MOVE))
        while len(answers) < 20 and (found := scan.next_move()) is not None:
            scan.move(found[0], found[1])
    assert None not in answers[:-1]


def golden_case(name: str, tmp_path) -> tuple[Game, State, int | None]:
    """A golden case's game, initial state and p override, as solve reads them."""
    source, solve_flags = CASES[name]
    if isinstance(source, list):
        path = tmp_path / "game.json"
        _cli([*source, "--out", str(path)])
        game, s0 = parse_instance(path.read_bytes())
    else:
        game, s0 = source()
        game = normalize(game)
    p_override = int(solve_flags[1]) if solve_flags else None
    return game, s0 or State((0,) * game.n), p_override


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


def reference_states(game: Game, state_cap: int) -> list[State]:
    if math.prod(len(p.strategies) for p in game.players) > state_cap:
        raise StateSpaceTooLargeError(f"state space exceeds cap {state_cap}")
    return [State(c) for c in itertools.product(*(range(len(p.strategies)) for p in game.players))]


def reference_factors(game: Game, s: State) -> list:
    """Each player's ratio of current cost to best-response cost."""
    costs = reference.player_costs(game, s)
    return [_ratio(costs[u], reference.best_response(game, s, u)[1]) for u in range(game.n)]


def reference_brute_force_poa(game: Game, rho: Fraction, state_cap: int):
    states = reference_states(game, state_cap)
    costs = [reference_social_cost(game, s) for s in states]
    opt_index = min(range(len(states)), key=lambda i: costs[i])
    poa = worst_state = None
    for s, c in zip(states, costs):
        if max([Fraction(1), *reference_factors(game, s)]) > rho:
            continue
        r = _ratio(c, costs[opt_index])
        if poa is None or r > poa:
            poa, worst_state = r, s
    if poa is None:
        raise NoEquilibriumError(f"no {rho}-approximate equilibrium exists")
    return poa, worst_state, states[opt_index]


def reference_group_ratio(game: Game, rho: Fraction, state_cap: int, metric):
    """Worst metric(s, R)/metric(s', R) over every pair of states in which
    the complement of R plays alike and s is a rho-equilibrium for R."""
    states = reference_states(game, state_cap)
    n = game.n
    factors = [reference_factors(game, s) for s in states]
    worst = Fraction(0)
    for group_size in range(1, n + 1):
        for group in itertools.combinations(range(n), group_size):
            complement = [u for u in range(n) if u not in group]
            values = [metric(game, s, group) for s in states]
            buckets: dict[tuple[int, ...], list[int]] = {}
            for i, s in enumerate(states):
                buckets.setdefault(tuple(s.choices[u] for u in complement), []).append(i)
            for bucket in buckets.values():
                eq = [i for i in bucket if max(factors[i][u] for u in group) <= rho]
                for i in eq:
                    for j in bucket:
                        r = _ratio(values[i], values[j])
                        if r > worst:
                            worst = r
    return worst


def reference_rows(game: Game, rho: Fraction, state_cap: int, potential: bool):
    """verify._rows with each state's loads, resource costs, potential and
    best responses computed from scratch, in product order."""
    ig, at_least_one = game.compiled, rho >= 1
    for state in reference_states(game, state_cap):
        choices = state.choices
        rcosts = ig.resource_costs(x := ig.loads(choices))
        costs, within = [], 0
        for u in range(game.n):
            _, best, now = ig.best_response(choices, x, rcosts, u)
            costs.append(ig.weights[u] * now)
            within |= (at_least_one and not improves(now, best, rho)) << u
        yield _Row(choices, costs, ig.potential(x) if potential else None, within)


@st.composite
def oracle_games(draw) -> Game:
    """A game of 2-4 players with 2-3 strategies each over 2-4 resources;
    some resources cost nothing at any load."""
    degree = draw(st.integers(1, 4))
    num_resources = draw(st.integers(2, 4))
    resources = tuple(
        CostPolynomial(
            (Fraction(0),)  # a quarter of the resources cost nothing at any load
            if draw(st.integers(0, 3)) == 3
            else tuple(draw(st.lists(rationals, min_size=1, max_size=degree + 1)))
        )
        for _ in range(num_resources)
    )
    subsets = st.lists(st.integers(0, num_resources - 1), min_size=1, max_size=2, unique=True)
    players = tuple(
        make_player(draw(weights), draw(st.lists(subsets, min_size=2, max_size=3)))
        for _ in range(draw(st.integers(2, 4)))
    )
    return Game(degree=degree, resources=resources, players=players)


def _exact(value):
    """The value with the type of each of its parts, for an exact == that
    never passes a Fraction for an int or a float and, unlike repr, writes
    no number in decimal: a schedule's boundaries can exceed the int/str
    digit limit."""
    if isinstance(value, tuple):
        return tuple(map(_exact, value))
    if dataclasses.is_dataclass(value):
        return type(value), _exact(tuple(getattr(value, f.name) for f in dataclasses.fields(value)))
    return type(value), value


def _outcome(fn, *args):
    """A call's result as _exact gives it, or the type and message of the
    congames error it raised."""
    try:
        return _exact(fn(*args))
    except CongamesError as exc:
        return type(exc), str(exc)


@settings(SETTINGS, max_examples=50)
@given(
    oracle_games(),
    st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(3)]),
    st.sampled_from([10**6, 8]),
)
def test_poa_oracles_match_fraction_reference(game, rho, state_cap):
    got = _outcome(brute_force_poa, game, rho, state_cap)
    expected = _outcome(reference_brute_force_poa, game, rho, state_cap)
    assert got == expected  # same values, same types (Fraction or inf), same states
    for oracle, metric in (
        (max_group_poa_ratio, reference_group_cost),
        (max_rho_stretch_ratio, reference.partial_potential),
    ):
        got = _outcome(oracle, game, rho, state_cap)
        expected = _outcome(reference_group_ratio, game, rho, state_cap, metric)
        assert got == expected


@settings(SETTINGS, max_examples=50)
@given(
    oracle_games(),
    st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(3)]),
    st.sampled_from([10**6, 8]),
    st.booleans(),
)
def test_rows_of_the_walk_match_rows_from_scratch(game, rho, state_cap, potential):
    got = _outcome(lambda: tuple(_rows(_Walk(game, state_cap, potential), rho)))
    expected = _outcome(lambda: tuple(reference_rows(game, rho, state_cap, potential)))
    assert got == expected  # field by field, types included, or the same cap error


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
