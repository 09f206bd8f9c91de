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
alpha + 1.
"""

from __future__ import annotations

import contextlib
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congames import State, gen_random, normalize, run_algorithm
from congames.dynamics import IntState
from congames.errors import ZeroMinCostError
from congames.game import Game
from congames.potential import alpha
from congames.verify import audit_trace

from conftest import (
    CASES,
    SETTINGS,
    crafted_p_move_game,
    exact_outcome,
    games,
    golden_case,
    header_mutations,
    mutation_traces,
    record_mutations,
)
from reference import (
    reference_audit_trace,
    reference_final_factor_ceiling,
    reference_move_budget,
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
