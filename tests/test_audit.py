"""The trace auditor against a replay that recomputes from scratch.

reference_audit_trace (tests/reference.py) is the auditor's walk with
every load, potential and cost recomputed from scratch.  audit_trace,
which updates its loads, resource costs and potential on the resources
each move changes, must raise the same error with the same message, or
return an equal AuditReport, on every single-fault trace: each
single-field change of the move records and of the header, and each move
set to an out-of-order phase, deleted, duplicated or swapped, on the crafted
p-move run and on gen_random runs.  After every move the solver makes
and every move the auditor replays, both on IntState.move, the loads,
resource costs and potential must equal their values from scratch and
the resources it returns the mover's strategy change, on the golden
cases, the crafted p-move run and hypothesis games.  The schedule's
final-factor ceiling and move budgets, and the audit report's, must equal
the references derived from the paper's inequalities, with p down to
alpha + 1.  Each property the audit reports rather than raises fails on
a crafted trace whose every record replays exactly: the move budget, the
key bound, a fixed player's drift and the final-factor ceiling, each
with the reference's report.  The settled check does not inherit a fault
of the solver's incremental scan: a solver whose IncrementalScan.move
keeps a stale best response ends a phase early, and the audit, which
builds its scan from scratch and never moves it, reports that phase.

Two inequalities of the analysis hold on every trace whose records
replay exactly, and are tested here as properties of such traces, solver
traces and random crafted ones.  Both rest on the potential's sandwich,
w*c_e(y + w) <= Phi_e(y + w) - Phi_e(y) <= alpha*w*c_e(y + w) for a
weight w >= 1 (compute_schedule rejects an unnormalized game), and on
costs that are nondecreasing in the load.

Cost reveal: in each phase, the movers' partial potential at the phase
end is at most alpha times the sum of each mover's cost after her last
move in the phase.  That partial potential is the sum, over the movers
in the order of their last moves, of the potential each adds on top of
the non-movers and the movers before her, all at their final
strategies.  Those players were already there at her last move, and the
later movers only add load then, so by the sandwich's upper half her
term is at most alpha times her cost after her last move.  The audit
checks this bound no longer: it cannot fail once the audit's exact
replay has passed.  Equality holds when, at d = 1, a weight-1 mover ends
alone on an x-cost resource: Phi(1) = 2 = alpha * 1.

Drop floor: a legal move drops the potential by more than
cost_before/(alpha*p + 1), so its MoveAudit has drop_ok.  On the
resources the mover leaves, the sandwich's lower half gives at least her
cost there before the move; on those she joins, the upper half gives at
most alpha times her cost there after it; on those she keeps, loads and
costs do not change.  As alpha >= 1, the drop is at least
cost_before - alpha*cost_after.  A legal move beats a factor
t >= alpha + 1/p (a p-move's t = p is at least alpha + 1), so
cost_after < cost_before/t <= cost_before*p/(alpha*p + 1) and the drop
exceeds cost_before*(1 - alpha*p/(alpha*p + 1)) = cost_before/(alpha*p + 1).
The audit keeps this check and reports each move's drop and floor.
"""

from __future__ import annotations

import contextlib
import heapq
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from congames import CostPolynomial, State, gen_random, make_player, normalize, run_algorithm
from congames.dynamics import (
    ALPHA_MOVE, P_MOVE, IncrementalScan, IntState, MoveRecord, Trace, compute_schedule,
)
from congames.errors import AlreadyZeroError, ZeroMinCostError
from congames.game import Game
from congames.potential import alpha
from congames.verify import AuditReport, FixAudit, audit_trace

import reference

from conftest import (
    CASES,
    SETTINGS,
    crafted_p_move_game,
    exact,
    exact_outcome,
    games,
    golden_case,
    header_mutations,
    mutation_traces,
    record_mutations,
    vacated_game,
    weights,
    with_choice,
)
from reference import (
    reference_audit_trace,
    reference_final_factor_ceiling,
    reference_move_budget,
    reference_trace,
)


# --------------------------------------------------------------------------
# Single-fault traces: the same error and message, or an equal report
# --------------------------------------------------------------------------


def solved_traces():
    """The traces of conftest.mutation_traces and three more gen_random runs."""
    yield from mutation_traces()
    for seed, n, d in ((3, 5, 1), (21, 6, 2), (40, 4, 3)):
        game = gen_random(n, d, 5, 3, 2, (Fraction(1, 4), Fraction(2)), seed=seed)
        yield game, run_algorithm(game, State((0,) * n))[1]


def move_mutations(trace):
    """Each move with its phase set to m, m + 3, -1, -5, phase + 2 or 0;
    each move deleted, duplicated or swapped with the next; each tail
    moved to phase m; and a phase-m record appended."""
    moves, m = trace.moves, trace.schedule.m
    for i, mv in enumerate(moves):
        for phase in (m, m + 3, -1, -5, mv.phase + 2, 0):
            yield moves[:i] + (replace(mv, phase=phase),) + moves[i + 1:]
        yield moves[:i] + moves[i + 1:]
        yield moves[:i + 1] + moves[i:]
        if i + 1 < len(moves):
            yield moves[:i] + (moves[i + 1], mv) + moves[i + 2:]
        yield moves[:i] + tuple(replace(later, phase=m) for later in moves[i:])
    yield moves + (replace(moves[-1], step=len(moves), phase=m),)


def test_single_fault_traces_match_reference():
    tried = 0
    for game, trace in solved_traces():
        assert trace.moves
        tampered = [
            *(bad for _, bad in record_mutations(game, trace)),
            *(bad for _, bad in header_mutations(game, trace)),
            *(replace(trace, moves=moves) for moves in move_mutations(trace)),
        ]
        for bad in (trace, *tampered):
            assert exact_outcome(audit_trace, game, bad) == exact_outcome(
                reference_audit_trace, game, bad
            )
            tried += 1
    assert tried > 1500


# --------------------------------------------------------------------------
# The ceiling and the move budgets, from the inequalities the audit checks
# --------------------------------------------------------------------------


def schedule_cases():
    """Solved gen_random runs of degree 1 to 3, each with the paper's p and
    with p overridden down to alpha + 1, the least p compute_schedule
    takes; and the crafted p-move run."""
    for seed, n, d in ((1, 6, 1), (2, 5, 2), (3, 4, 3)):
        game = gen_random(n, d, 5, 3, 2, (Fraction(1, 4), Fraction(2)), seed=seed)
        for p_override in (None, alpha(d) + 1, alpha(d) + 2, 7 * d + 11):
            yield game, run_algorithm(game, State((0,) * n), p_override)[1]
    game, s0 = crafted_p_move_game()
    yield game, run_algorithm(game, s0, p_override=4)[1]


@pytest.mark.parametrize("game, trace", list(schedule_cases()))
def test_ceiling_and_budgets_match_reference(game, trace):
    schedule = trace.schedule
    ceiling = reference_final_factor_ceiling(schedule.p)
    budgets = [reference_move_budget(schedule, phase) for phase in range(schedule.m)]
    assert schedule.final_factor_ceiling == ceiling
    assert [schedule.move_budget(phase) for phase in range(schedule.m)] == budgets
    report = audit_trace(game, trace)
    assert report.passed, report.failures
    assert report.factor_ceiling == ceiling
    assert [ph.move_budget for ph in report.phases] == budgets


# --------------------------------------------------------------------------
# The auditor's running state after every move
# --------------------------------------------------------------------------


@contextlib.contextmanager
def replay_checked_against_scratch():
    """Patch IntState.move, the one move update of the solver's scan and
    of the auditor's replay, so that each move is checked: afterwards its
    loads, resource costs and potential must equal their values from
    scratch, and the resources it returns must be the symmetric difference
    of the mover's old and new strategy.  Yields the list of checked
    movers."""
    movers = []
    move = IntState.move

    def checked(state, u, k):
        ig = state.ig
        old = set(ig.strategies[u][state.choices[u]])
        changed = move(state, u, k)
        assert state.choices[u] == k
        assert changed == old ^ set(ig.strategies[u][k])
        assert state.x == ig.loads(state.choices)
        assert state.rcosts == ig.resource_costs(state.x)
        assert state.potential == ig.potential(state.x)
        movers.append(u)
        return changed

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(IntState, "move", checked)
        yield movers


def assert_replay_matches_scratch(game: Game, s_init: State, p_override: int | None) -> None:
    with replay_checked_against_scratch() as movers:
        try:
            _, trace = run_algorithm(game, s_init, p_override)
        except ZeroMinCostError:
            return
        report = audit_trace(game, trace)
    assert report.passed, report.failures
    assert movers == [mv.player for mv in trace.moves] * 2  # the solve, then the audit
    assert exact_outcome(audit_trace, game, trace) == exact_outcome(
        reference_audit_trace, game, trace
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_replay_matches_scratch_on_golden_cases(name, tmp_path):
    assert_replay_matches_scratch(*golden_case(name, tmp_path))


def test_replay_matches_scratch_on_p_move_game():
    game, s0 = crafted_p_move_game()
    assert_replay_matches_scratch(game, s0, 4)


@settings(SETTINGS, max_examples=60)
@given(st.one_of(games(zero_cost=True), games(anchored=True)), st.booleans())
def test_replay_matches_scratch_on_random_games(case, p_low):
    game, state, _ = case
    game = normalize(game)
    assert_replay_matches_scratch(game, state, game.degree + 2 if p_low else None)


# --------------------------------------------------------------------------
# Property failures: crafted traces whose every record replays exactly
# --------------------------------------------------------------------------


def chosen_trace(game: Game, s0: State, p: int, chosen) -> Trace:
    """The trace of the chosen moves, (phase, player, strategy, class) in
    order, under the schedule with this p: each record's costs and
    potentials are the replay's, from scratch, so every recorded value
    matches and only the paper's inequalities can fail; the header is
    reference_trace's."""
    state, moves, records = s0, [], {}
    for phase, u, k, move_class in chosen:
        key = (state, u, k)
        if key not in records:  # a toggling trace repeats two records
            after = with_choice(state, u, k)
            records[key] = after, dict(
                from_strategy=state.choices[u], to_strategy=k,
                cost_before=reference.player_costs(game, state)[u],
                cost_after=reference.player_costs(game, after)[u],
                potential_before=reference.potential(game, state),
                potential_after=reference.potential(game, after),
            )
        state, fields = records[key]
        moves.append(MoveRecord(
            phase=phase, step=len(moves), player=u, move_class=move_class, **fields
        ))
    return reference_trace(game, compute_schedule(game, s0, p), s0, tuple(moves))


def failed_audit(game: Game, trace: Trace, failure: str) -> AuditReport:
    """The audit of the trace: equal to the reference's, not passed, and
    with the failure among its failures."""
    report = audit_trace(game, trace)
    assert exact(report) == exact_outcome(reference_audit_trace, game, trace)
    assert report.passed is False
    assert failure in report.failures, report.failures
    return report


def constant(c) -> CostPolynomial:
    return CostPolynomial((Fraction(c),))


LINEAR = CostPolynomial((Fraction(0), Fraction(1)))
P = 3  # alpha + 1 at d = 1, the least p compute_schedule takes


def stranded_game() -> Game:
    """Player 0 sits on a cost-100 resource beside a cost-1 one; player 1
    has one cost-1 strategy.  c_max = 100 and c_min = 1 give m = 7 and
    g = 2 * 3^3 * (1 + 7 * 4) + 1 = 1567 at p = 3."""
    players = (make_player(1, [[0], [1]]), make_player(1, [[2]]))
    return Game(1, (constant(100), constant(1), constant(1)), players)


def test_move_budget_failure():
    """Two players, each with two unit-cost singletons: m = 1, g = 271 and
    a phase-0 budget of n*alpha*g*(alpha*p + 1) = 7,588 moves.  No legal
    move exists, as every cost is 1, so a trace can exceed the budget only
    by moves that the audit also flags as ineligible."""
    game = Game(1, (constant(1),) * 4, (make_player(1, [[0], [1]]), make_player(1, [[2], [3]])))
    toggles = [(0, 0, (i + 1) % 2, ALPHA_MOVE) for i in range(7589)]
    trace = chosen_trace(game, State((0, 0)), P, toggles)
    assert (trace.schedule.m, trace.schedule.g) == (1, 271)
    report = failed_audit(game, trace, "phase 0: 7589 moves exceed budget 7588")
    assert not report.phases[0].budget_ok and report.phases[0].move_budget == 7588


def test_key_slack_failure():
    """Player 0, at c_max = 100, waits until phase 1 to move: her start
    partial potential, 100, exceeds n*p*b_1 = 6 * 100/1567."""
    game = stranded_game()
    trace = chosen_trace(game, State((0, 0)), P, [(1, 0, 1, P_MOVE)])
    assert (trace.schedule.m, trace.schedule.g) == (7, 1567)
    report = failed_audit(
        game, trace, "phase 1: movers' start potential 100 exceeds n*p*b_1 = 600/1567"
    )
    assert not report.phases[1].key_ok and report.phases[1].key_slack == Fraction(600, 1567) - 100
    assert report.moves[0].legal  # a p-move: she is at b_1 or above and improves 100-fold


def test_fixed_player_drift_failure():
    """A 2^20 anchor makes m = 20 (g = 6562 with n = 3).  Player 1, alone
    on an x-cost resource at cost 1, is fixed after phase 2; in the last
    phase the weight-3 player 2 joins her resource, which takes her cost
    from 1 to 4, beyond the factor 1 + 3/p = 2."""
    players = (make_player(1, [[0]]), make_player(1, [[1]]), make_player(3, [[2], [1]]))
    game = Game(1, (constant(2**20), LINEAR, constant(1)), players)
    trace = chosen_trace(game, State((0, 0, 0)), P, [(19, 2, 1, ALPHA_MOVE)])
    assert (trace.schedule.m, trace.schedule.g) == (20, 6562)
    report = failed_audit(
        game, trace, "player 1: cost grew from 1 at fixing (phase 2) to 4, beyond factor 1 + 3/p"
    )
    assert report.fixes[1] == FixAudit(1, 2, Fraction(1), Fraction(4), False)


def test_final_factor_failure():
    """No move at all: player 0 ends at cost 100 beside a cost-1 strategy,
    a factor of 100 against the ceiling p(p+3)/(p-2) = 18."""
    game = stranded_game()
    report = failed_audit(
        game, chosen_trace(game, State((0, 0)), P, []), "final factor 100 exceeds ceiling 18"
    )
    assert (report.final_factor, report.factor_ceiling, report.factor_ok) == (100, 18, False)


def stale_response_move(scan: IncrementalScan, u: int, k: int) -> set[int]:
    """IncrementalScan.move with a fault: a player's cached best response
    is dropped only when she moves or her current strategy uses a changed
    resource, so a player whose other strategy got cheaper keeps a stale
    answer."""
    changed = IntState.move(scan, u, k)
    ig, choices, answers = scan.ig, scan.choices, scan.answers
    for v in set().union(*map(scan.users.__getitem__, changed)):
        if v == u or not changed.isdisjoint(ig.strategies[v][choices[v]]):
            scan.responses[v] = None
            scan.costs[v] = ig.player_cost(choices, scan.rcosts, v)
            answers[v] = scan.rule(v, scan.costs[v])
        if answers[v] is not None:
            heapq.heappush(scan.heap, v)
    return changed


def test_audit_does_not_inherit_a_stale_scan():
    """The solver with stale best responses ends phase 0 without player
    0's move; the audit, whose scan is built from scratch at each phase
    end after a move, reports it."""
    game, s0 = vacated_game(), State((0, 0))
    _, trace = run_algorithm(game, s0, P)
    assert [(mv.phase, mv.player) for mv in trace.moves] == [(0, 1), (0, 0)]
    assert audit_trace(game, trace).passed
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(IncrementalScan, "move", stale_response_move)
        _, stale = run_algorithm(game, s0, P)
    assert [(mv.phase, mv.player) for mv in stale.moves] == [(0, 1)]
    report = failed_audit(game, stale, "phase 0: ended while an eligible move remained")
    assert report.failures == ("phase 0: ended while an eligible move remained",)
    assert not report.phases[0].settled


@pytest.mark.parametrize("game, s0, p", [
    (vacated_game(), State((0, 0)), P),
    (*crafted_p_move_game(), 4),
])
def test_audit_never_moves_its_scan(game, s0, p):
    """The audit scans its replayed states but moves no IncrementalScan."""
    _, trace = run_algorithm(game, s0, p)

    def refused(*_):
        raise AssertionError("the audit moved an IncrementalScan")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(IncrementalScan, "move", refused)
        report = audit_trace(game, trace)
    assert report.passed and report.moves


# --------------------------------------------------------------------------
# Properties of exact traces: cost reveal and the drop floor
# --------------------------------------------------------------------------


def reveal_bounds(game: Game, trace: Trace) -> list[tuple[Fraction, Fraction]]:
    """Per phase: the movers' partial potential at the phase end, and alpha
    times the sum of each mover's cost after her last move in the phase."""
    ig, a = game.compiled, alpha(game.degree)
    bounds = []
    for phase, end in enumerate(trace.phase_end_states):
        last = {mv.player: mv.cost_after for mv in trace.moves if mv.phase == phase}
        partial = ig.potential_value(ig.partial_potential(end.choices, last))
        bounds.append((partial, a * sum(last.values(), Fraction(0))))
    return bounds


@st.composite
def crafted_traces(draw) -> tuple[Game, Trace]:
    """A normalized game of degree 1-3 with 2-4 players, 2-3 strategies
    each over 2-4 resources with coefficients 0 or 2^-4 to 2^8, p from
    alpha + 1 to alpha + 4, and the chosen_trace of 1-12 moves in
    nondecreasing phases, half of them drawn as phase 0: each a random
    player's move to a random strategy, or the move that cuts its mover's
    cost by the largest factor, with the class the phase's rule gives her
    cost."""
    degree = draw(st.integers(1, 3))
    spread = st.just(Fraction(0)) | st.builds(Fraction(2).__pow__, st.integers(-4, 8))
    resources = tuple(
        CostPolynomial(tuple(draw(st.lists(spread, min_size=1, max_size=degree + 1))))
        for _ in range(draw(st.integers(2, 4)))
    )
    subsets = st.lists(st.integers(0, len(resources) - 1), min_size=1, max_size=2, unique=True)
    players = tuple(
        make_player(draw(weights), draw(st.lists(subsets, min_size=2, max_size=3)))
        for _ in range(draw(st.integers(2, 4)))
    )
    game = normalize(Game(degree, resources, players))
    state = State(tuple(draw(st.integers(0, len(pl.strategies) - 1)) for pl in players))
    p = alpha(degree) + draw(st.integers(1, 4))
    try:
        schedule = compute_schedule(game, state, p)
    except (AlreadyZeroError, ZeroMinCostError):
        assume(False)
    s0, b, chosen = state, schedule.boundaries, []
    count = draw(st.integers(1, 12))
    phases = st.one_of(st.just(0), st.integers(0, schedule.m - 1))
    for phase in sorted(draw(st.lists(phases, min_size=count, max_size=count))):
        costs = reference.player_costs(game, state)
        moves = [(u, k) for u, pl in enumerate(game.players) for k in range(len(pl.strategies))]

        def cut(move):  # the factor by which the move cuts its mover's cost
            u, k = move
            after = reference.player_costs(game, with_choice(state, u, k))[u]
            return (after == 0 < costs[u], costs[u] / after if after else 0)

        u, k = draw(st.sampled_from(moves)) if draw(st.booleans()) else max(moves, key=cut)
        chosen.append((phase, u, k, P_MOVE if phase and costs[u] >= b[phase] else ALPHA_MOVE))
        state = with_choice(state, u, k)
    return game, chosen_trace(game, s0, p, chosen)


@settings(SETTINGS, max_examples=60)
@given(games(anchored=True), st.integers(1, 4))
def test_cost_reveal_on_solver_traces(case, extra):
    game, state, _ = case
    game = normalize(game)
    try:
        _, trace = run_algorithm(game, state, alpha(game.degree) + extra)
    except ZeroMinCostError:
        return
    for partial, bound in reveal_bounds(game, trace):
        assert partial <= bound


@settings(SETTINGS, max_examples=100)
@given(crafted_traces())
def test_cost_reveal_on_crafted_traces(case):
    game, trace = case
    for partial, bound in reveal_bounds(game, trace):
        assert partial <= bound


def test_cost_reveal_reaches_equality():
    """At d = 1, player 0 (weight 1) leaves a cost-5 resource to be alone
    on an x-cost one: her end partial potential is Phi(1) = 2, and alpha
    times her cost after the move is 2 * 1."""
    players = (make_player(1, [[0], [1]]), make_player(1, [[2]]))
    game = Game(1, (constant(5), LINEAR, constant(1)), players)
    trace = chosen_trace(game, State((0, 0)), P, [(0, 0, 1, ALPHA_MOVE)])
    assert reveal_bounds(game, trace)[0] == (2, 2)
    report = audit_trace(game, trace)
    assert report.passed, report.failures


def test_reveal_bound_takes_each_movers_last_move():
    """Player 0 moves twice in phase 0, to cost 44 and then back down to
    32: her last move, cost 32, counts in the bound, not her first."""
    game = gen_random(3, 1, 4, 3, 2, (Fraction(0), Fraction(4)),
                      weight_range=(Fraction(1), Fraction(9)), seed=20)
    _, trace = run_algorithm(game, State((0,) * 3))
    assert [(mv.phase, mv.player) for mv in trace.moves] == [(0, 0), (0, 1), (0, 2), (0, 0)]
    assert (trace.moves[0].cost_after, trace.moves[3].cost_after) == (44, 32)
    partial, bound = reveal_bounds(game, trace)[0]
    last = 32 + trace.moves[1].cost_after + trace.moves[2].cost_after
    assert bound == trace.schedule.alpha * last and partial <= bound
    phase = audit_trace(game, trace).phases[0]
    assert phase.move_count == 4 and phase.movers == {0, 1, 2}


@settings(SETTINGS, max_examples=100)
@given(crafted_traces())
def test_drop_floor_follows_from_legality(case):
    game, trace = case
    for mv in audit_trace(game, trace).moves:
        assert mv.drop_ok or not mv.legal, mv
