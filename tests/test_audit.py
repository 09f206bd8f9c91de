"""The trace auditor against a replay that recomputes from scratch.

reference_audit_trace is the auditor's walk with the loads and the
potential recomputed from scratch after every move, the mover's costs
from her own resources at those loads, and every player's cost recomputed
at every phase end.  audit_trace, which updates its loads, resource costs
and potential on the resources each move changes, must raise the same
error with the same message, or return an equal AuditReport, on every
single-fault trace: each single-field change of the move records and of
the header, and each move set to an out-of-order phase, deleted,
duplicated or swapped, on the crafted p-move run and on gen_random runs.
After every move the solver makes and every move the auditor replays,
both on IntState.move, the loads, resource costs and potential must equal
their values from scratch and the resources it returns the mover's
strategy change, on the golden cases, the crafted p-move run and
hypothesis games.
"""

from __future__ import annotations

import contextlib
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congames import State, gen_random, normalize, run_algorithm, social_cost
from congames.dynamics import (
    IntState,
    MoveRecord,
    compute_schedule,
    first_eligible_move,
    improves,
    newly_fixed,
)
from congames.errors import TraceMismatchError, ZeroMinCostError
from congames.game import Game
from congames.potential import alpha
from congames.verify import (
    AuditReport,
    FixAudit,
    MoveAudit,
    PhaseAudit,
    _check_indices,
    _check_same,
    audit_trace,
    min_equilibrium_factor,
)

from conftest import SETTINGS, crafted_p_move_game
from test_golden import CASES
from test_kernel import _outcome, games, golden_case
import test_verify


def reference_audit_trace(game: Game, trace) -> AuditReport:
    """audit_trace with every load, potential and cost from scratch."""
    _check_same("game fingerprint", trace.game_sha256, game.fingerprint)
    _check_indices(game, trace)
    failures: list[str] = []
    if trace.schedule is None:
        if social_cost(game, trace.initial_state) != 0:
            raise TraceMismatchError("scheduleless trace but initial costs not all zero")
        _check_same("final state", trace.final_state, trace.initial_state)
        _check_same("move count", len(trace.moves), 0)
        return AuditReport(
            moves=(), phases=(), fixes=(),
            final_factor=min_equilibrium_factor(game, trace.final_state),
            factor_ceiling=None, factor_ok=True, passed=True,
        )

    schedule = trace.schedule
    if schedule.p < alpha(game.degree) + 1:
        raise TraceMismatchError(f"schedule: p = {schedule.p} is below {alpha(game.degree) + 1}")
    recomputed = compute_schedule(
        game, trace.initial_state, p_override=None if schedule.exact_constants else schedule.p
    )
    _check_same("schedule", schedule, recomputed)

    ig, n = game.compiled, game.n
    b, m, a, p = schedule.boundaries, schedule.m, schedule.alpha, schedule.p
    bounds = [ig.cost_ceil(x) for x in b]
    _check_same("phase count (end states)", len(trace.phase_end_states), m)
    _check_same("phase count (movers)", len(trace.movers_per_phase), m)
    _check_same("fixed set count", len(trace.fixed_sets), m + 1)

    by_phase: list[list[MoveRecord]] = [[] for _ in range(m)]
    stray, last = None, 0
    for mv in trace.moves:
        if not last <= mv.phase < m:
            stray = mv
            break
        by_phase[mv.phase].append(mv)
        last = mv.phase

    move_audits, phase_audits, fix_audits = [], [], []
    choices = list(trace.initial_state.choices)
    x = ig.loads(choices)
    pot = ig.potential(x)
    fixed: dict[int, tuple[int, int]] = {}

    def cost_of(u: int) -> int:
        return ig.weights[u] * sum(ig.own_costs(choices, x, u).values())

    for phase, moves in enumerate(by_phase):
        start = tuple(choices)
        rule = schedule.rule(phase, bounds, fixed)
        for mv in moves:
            at = f"move {mv.step}"
            _check_same(f"{at} step order", mv.step, len(move_audits))
            u = mv.player
            _check_same(f"{at} from_strategy", mv.from_strategy, choices[u])
            cost = cost_of(u)
            _check_same(f"{at} cost_before", mv.cost_before, ig.cost_value(cost))
            _check_same(f"{at} potential_before", mv.potential_before, ig.potential_value(pot))
            choices[u] = mv.to_strategy
            x = ig.loads(choices)
            pot = ig.potential(x)
            new_cost = cost_of(u)
            _check_same(f"{at} cost_after", mv.cost_after, ig.cost_value(new_cost))
            _check_same(f"{at} potential_after", mv.potential_after, ig.potential_value(pot))
            answer = rule(u, cost)
            legal = (
                u not in fixed
                and answer is not None
                and answer[1] == mv.move_class
                and improves(cost, new_cost, answer[0])
            )
            if not legal:
                failures.append(f"{at}: ineligible move recorded")
            drop = mv.potential_before - mv.potential_after
            required = mv.cost_before / (a * p + 1)
            if drop < required:
                failures.append(f"{at}: potential drop {drop} below floor {required}")
            move_audits.append(MoveAudit(
                step=mv.step, phase=phase, player=u, cost_before=mv.cost_before,
                potential_drop=drop, required_drop=required, drop_ok=drop >= required,
                legal=legal,
            ))

        if stray is not None and stray.phase < last == phase:
            raise TraceMismatchError(f"move {stray.step}: phases not nondecreasing")
        state = State(tuple(choices))
        movers = frozenset(mv.player for mv in moves)
        _check_same(f"phase {phase} end state", trace.phase_end_states[phase], state)
        _check_same(f"phase {phase} movers", trace.movers_per_phase[phase], movers)
        start_partial = ig.potential_value(ig.partial_potential(start, movers))
        end_partial = ig.potential_value(ig.partial_potential(choices, movers))
        key_slack, key_ok = None, True
        if phase >= 1:
            key_slack = n * p * b[phase] - start_partial
            key_ok = key_slack >= 0
            if not key_ok:
                failures.append(
                    f"phase {phase}: movers' start potential {start_partial} "
                    f"exceeds n*p*b_{phase} = {n * p * b[phase]}"
                )
        last_costs = {mv.player: mv.cost_after for mv in moves}
        reveal_bound = a * sum(last_costs.values(), Fraction(0))
        if end_partial > reveal_bound:
            failures.append(
                f"phase {phase}: movers' end potential {end_partial} exceeds "
                f"alpha-weighted last-move costs {reveal_bound}"
            )
        budget = schedule.move_budget(phase)
        if len(moves) > budget:
            failures.append(f"phase {phase}: {len(moves)} moves exceed budget {budget}")
        scratch = IntState(ig, choices)
        settled = first_eligible_move(
            scratch, ig.player_costs(choices, scratch.rcosts), rule
        ) is None
        if not settled:
            failures.append(f"phase {phase}: ended while an eligible move remained")
        phase_audits.append(PhaseAudit(
            phase=phase, movers=movers, boundary=b[phase], start_partial_potential=start_partial,
            key_slack=key_slack, key_ok=key_ok, last_move_costs_bound=reveal_bound,
            end_partial_potential=end_partial, cost_reveal_ok=end_partial <= reveal_bound,
            move_count=len(moves), move_budget=budget, budget_ok=len(moves) <= budget,
            settled=settled,
        ))
        costs = ig.player_costs(choices, ig.resource_costs(x))
        newly = newly_fixed(costs, fixed, bounds[phase]) if phase else frozenset()
        _check_same(f"phase {phase} fixed set", trace.fixed_sets[phase], newly)
        fixed.update((u, (phase, costs[u])) for u in newly)

    if stray is not None:
        raise TraceMismatchError(f"move {stray.step}: phase {stray.phase} >= m = {m}")
    newly = newly_fixed(costs, fixed, bounds[m])
    _check_same("final fixed set", trace.fixed_sets[m], newly)
    fixed.update((u, (m, costs[u])) for u in newly)
    _check_same("all players fixed", frozenset(range(n)), frozenset(fixed))
    _check_same("final state", trace.final_state, state)
    for u in range(n):
        j, cost_then = fixed[u]
        ok = costs[u] * p <= (p + 3) * cost_then
        cost_at_fix, final_cost = ig.cost_value(cost_then), ig.cost_value(costs[u])
        if not ok:
            failures.append(
                f"player {u}: cost grew from {cost_at_fix} at fixing (phase {j}) "
                f"to {final_cost}, beyond factor 1 + 3/p"
            )
        fix_audits.append(FixAudit(
            player=u, fixed_after_phase=j, cost_at_fix=cost_at_fix, final_cost=final_cost, ok=ok,
        ))
    final_factor = min_equilibrium_factor(game, trace.final_state)
    ceiling = schedule.final_factor_ceiling
    factor_ok = final_factor <= ceiling
    if not factor_ok:
        failures.append(f"final factor {final_factor} exceeds ceiling {ceiling}")
    return AuditReport(
        moves=tuple(move_audits), phases=tuple(phase_audits), fixes=tuple(fix_audits),
        final_factor=final_factor, factor_ceiling=ceiling, factor_ok=factor_ok,
        passed=not failures, failures=tuple(failures),
    )


# --------------------------------------------------------------------------
# Single-fault traces: the same error and message, or an equal report
# --------------------------------------------------------------------------


def solved_traces():
    """The traces of TestAuditMutations and three more gen_random runs."""
    yield from test_verify.TestAuditMutations.traces()
    for seed, n, d in ((3, 5, 1), (21, 6, 2), (40, 4, 3)):
        game = gen_random(n, d, 5, 3, 2, (Fraction(1, 4), Fraction(2)), seed=seed)
        yield game, run_algorithm(game, State((0,) * n))[1]


def field_mutations(game: Game, trace):
    """Every single-field change of TestAuditMutations and TestAuditHeaderMutations."""
    for i, mv in enumerate(trace.moves):
        for name, values in test_verify.TestAuditMutations.mutations(game, mv):
            original = getattr(mv, name)
            for value in values:
                if value != original or type(value) is not type(original):
                    moves = trace.moves[:i] + (replace(mv, **{name: value}),) + trace.moves[i + 1:]
                    yield replace(trace, moves=moves)
    for _, tampered in test_verify.TestAuditHeaderMutations.header_mutations(game, trace):
        yield tampered


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
            *field_mutations(game, trace),
            *(replace(trace, moves=moves) for moves in move_mutations(trace)),
        ]
        for bad in (trace, *tampered):
            assert _outcome(audit_trace, game, bad) == _outcome(reference_audit_trace, game, bad)
            tried += 1
    assert tried > 1500


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
    assert _outcome(audit_trace, game, trace) == _outcome(reference_audit_trace, game, trace)


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
