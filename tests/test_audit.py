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
with the reference's report.  The cost-reveal bound cannot fail on such
a trace.  The movers' end partial potential is the sum, over the movers
in the order of their last moves, of the potential each adds on top of
the non-movers and the movers before her, all at their final
strategies.  By the potential's sandwich
(weights are at least 1) that is at most alpha times her cost at loads
no higher than at her last move, so at most alpha times her last-move
cost, as costs are nondecreasing.
"""

from __future__ import annotations

import contextlib
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congames import CostPolynomial, State, gen_random, make_player, normalize, run_algorithm
from congames.dynamics import (
    ALPHA_MOVE, P_MOVE, IntState, MoveRecord, Trace, compute_schedule,
)
from congames.errors import ZeroMinCostError
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
