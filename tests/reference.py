"""From-scratch oracles of the package's rules, one section per rule.

Each rule is written once in src/ and once here, and the tests compare
the two.  The sections, what each checks, and what it takes from the
package besides types (Game, State, CostPolynomial, PlayerSpec, Schedule,
MoveRecord, Trace, the move classes and the errors):

- Kernel: loads, player costs, strategy costs, best responses,
  potentials, group and social costs and equilibrium factors on
  Fractions, for game.IntGame and its views game.loads, player_costs,
  group_cost and social_cost, dynamics.best_response, the potentials of
  potential.py and verify.min_equilibrium_factor.  Types only: loads are
  summed here, and phi is written term by term off its definition.
- Scaling: game._scale, each quotient divided directly.  Nothing.
- Schedule and dynamics: dynamics.compute_schedule, the Schedule's
  final_factor_ceiling and move_budget, and run_algorithm's trace, whose
  phase end states, movers, fixed sets and final state reference_trace
  derives from the moves (the audit tests build their traces of chosen
  moves with it).  Calls validate_state, the input check; alpha,
  target_p, every threshold, the fixing rule (reference_fix), and the
  ceiling and budgets, from the inequalities the audit checks, are
  written here.  The scan, dynamics.IncrementalScan.next_move, whose
  oracle reference_first_eligible_move walks the players in index order
  from scratch; it calls the phase's rule, IntGame.best_response and
  improves on purpose.
- PoA oracles: verify.brute_force_poa, max_group_poa_ratio,
  max_rho_stretch_ratio, the states of verify._Walk, and verify._rows.
  Types only, but for reference_rows, which calls the kernel on purpose.
- Auditor: verify.audit_trace.  reference_audit_trace calls the kernel
  and the solver's rules on purpose, but takes the ceiling and the move
  budgets from this module.
- Codecs: game.serialize_instance, codec.parse_rational and
  game.parse_instance, as the json.dumps writer and the two-pass parser;
  dynamics.write_trace and read_trace, with the header listed by hand.
  The instance parser checks the JSON shape itself and leaves the values
  to the constructors it builds through, as parse_instance does.  Calls
  codec.format_rational, make_player, normalize and validate_state, and
  the trace reader codec.parse_rational.
- Lower-bound family: instances.gen_lower_bound's game, each power taken
  on its own.  Calls rational_root_below.
- Random games: instances.gen_random, each resource subset drawn by
  popping from a list of the resources not yet picked.  Calls SplitMix64
  and instances._sample_fraction, which define the stream.
- Analysis: analysis.phi_ratio, by bisection, and the grid check
  analysis._check_monomials, by the loop that computes the slack at every
  point, with every power past the float range taken as inf.  Takes
  GRID_AXIS and TOLERANCE, which define the check.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from dataclasses import fields
from fractions import Fraction
from typing import Iterable, Sequence

from congames.analysis import GRID_AXIS, TOLERANCE, CheckResult
from congames.codec import format_rational, parse_rational
from congames.dynamics import (
    ALPHA_MOVE,
    P_MOVE,
    IntState,
    MoveRecord,
    Rule,
    Schedule,
    Trace,
    compute_schedule,
    improves,
    newly_fixed,
)
from congames.errors import (
    AlreadyZeroError,
    DigitLimitError,
    InstanceError,
    MalformedInstanceError,
    MalformedTraceError,
    NoEquilibriumError,
    StateSpaceTooLargeError,
    TraceMismatchError,
    ZeroMinCostError,
)
from congames.game import (
    CostPolynomial,
    Game,
    PlayerSpec,
    State,
    make_player,
    normalize,
    social_cost,
    validate_state,
)
from congames.instances import SplitMix64, _sample_fraction, rational_root_below
from congames.potential import alpha
from congames.verify import (
    AuditReport,
    FixAudit,
    MoveAudit,
    PhaseAudit,
    _check_indices,
    _check_same,
    _Row,
    min_equilibrium_factor,
)


# --------------------------------------------------------------------------
# Kernel: loads, costs, best responses, potentials and factors
# --------------------------------------------------------------------------


def loads(game: Game, state: State, players: Iterable[int] | None = None) -> tuple[Fraction, ...]:
    """Total weight on each resource, of all players or of a group."""
    totals = [Fraction(0)] * game.num_resources
    for u in range(game.n) if players is None else players:
        player = game.players[u]
        for e in player.strategies[state.choices[u]]:
            totals[e] += player.weight
    return tuple(totals)


def resource_potential(poly: CostPolynomial, x: Fraction) -> Fraction:
    """phi(x) = a_0*x + sum_{v>=1} a_v*(x^(v+1) + (v+1)/2*x^v), term by term."""
    a = poly.coeffs
    total = a[0] * x
    for v in range(1, len(a)):
        total += a[v] * (x ** (v + 1) + Fraction(v + 1, 2) * x**v)
    return total


def player_costs(game: Game, state: State) -> tuple[Fraction, ...]:
    """All players' costs at the state (loads computed once)."""
    x = loads(game, state)
    out = []
    for u, player in enumerate(game.players):
        total = Fraction(0)
        for e in player.strategies[state.choices[u]]:
            total += game.resources[e](x[e])
        out.append(player.weight * total)
    return tuple(out)


def reference_strategy_costs(game: Game, state: State, u: int) -> list[Fraction]:
    """Player u's cost after switching to each of her strategies, the
    others' choices fixed, with the loads recomputed from scratch."""
    choices = state.choices
    return [
        player_costs(game, State(choices[:u] + (k,) + choices[u + 1:]))[u]
        for k in range(len(game.players[u].strategies))
    ]


def best_response(game: Game, state: State, u: int) -> tuple[int, Fraction]:
    """Best strategy index for player u against the others' choices, with
    its exact cost.  Ties resolve to the lowest strategy index."""
    player = game.players[u]
    base = list(loads(game, state))
    for e in player.strategies[state.choices[u]]:
        base[e] -= player.weight
    best_idx = 0
    best_cost: Fraction | None = None
    for k, strat in enumerate(player.strategies):
        total = Fraction(0)
        for e in strat:
            total += game.resources[e](base[e] + player.weight)
        cost = player.weight * total
        if best_cost is None or cost < best_cost:
            best_idx, best_cost = k, cost
    assert best_cost is not None
    return best_idx, best_cost


def potential(game: Game, state: State, players: Iterable[int] | None = None) -> Fraction:
    """Sum of resource potentials at the loads of all players, or of a
    group alone."""
    x = loads(game, state, players)
    return sum(
        (resource_potential(poly, x[e]) for e, poly in enumerate(game.resources)),
        Fraction(0),
    )


def partial_potential(game: Game, state: State, players: Iterable[int]) -> Fraction:
    """Global potential minus the potential of the complement's loads."""
    group = set(players)
    complement = [u for u in range(game.n) if u not in group]
    return potential(game, state) - potential(game, state, complement)


def _ratio(numer: Fraction, denom: Fraction):
    if denom == 0:
        return Fraction(1) if numer == 0 else math.inf
    return numer / denom


def reference_group_cost(game: Game, state: State, players) -> Fraction:
    x = loads(game, state)
    x_group = loads(game, state, set(players))
    total = Fraction(0)
    for e in range(game.num_resources):
        if x_group[e] != 0:
            total += x_group[e] * game.resources[e](x[e])
    return total


def reference_social_cost(game: Game, state: State) -> Fraction:
    return reference_group_cost(game, state, range(game.n))


def reference_factors(game: Game, s: State, players: Iterable[int]) -> list:
    """Each player's ratio of current cost to best-response cost."""
    costs = player_costs(game, s)
    return [_ratio(costs[u], best_response(game, s, u)[1]) for u in players]


def reference_min_equilibrium_factor(game: Game, state: State, players=None):
    group = range(game.n) if players is None else players
    return max([Fraction(1), *reference_factors(game, state, group)])


# --------------------------------------------------------------------------
# Scaling
# --------------------------------------------------------------------------


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


# --------------------------------------------------------------------------
# Schedule and dynamics
# --------------------------------------------------------------------------


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
    c_max = max(player_costs(game, s_init))
    if c_max == 0:
        raise AlreadyZeroError("all player costs are zero at the initial state")
    c_min = min(reference_empty_profile_best_cost(game, u) for u in range(game.n))
    if c_min == 0:
        raise ZeroMinCostError("a player can reach cost zero; phase count undefined")
    d = game.degree
    a, target = d + 1, (2 * d + 3) * (d + 1) * (4 * d) ** (d + 1)  # alpha and target_p
    p = target if p_override is None else p_override
    if p < a + 1:
        raise MalformedInstanceError(f"p must be >= {a + 1} for degree {d}, got {p}")
    m = 0
    while 2**m < c_max / c_min:
        m += 1
    m = max(1, m)
    g = game.n * p**3 * (1 + m * (1 + p)) ** d * d**d + 1
    return Schedule(
        p=p,
        alpha=a,
        c_max=c_max,
        c_min=c_min,
        m=m,
        g=g,
        boundaries=tuple(c_max * Fraction(1, g**i) for i in range(m + 1)),
        n_players=game.n,
        exact_constants=p == target,
    )


def reference_final_factor_ceiling(p: int) -> Fraction:
    """The paper's guarantee for the final state: p * (1 + 3/p) / (1 - 2/p)."""
    p = Fraction(p)
    return p * (1 + 3 / p) / (1 - 2 / p)


def reference_move_budget(schedule: Schedule, phase: int) -> int:
    """A phase's move cap from the inequalities the audit checks: every move
    of the phase drops the potential by at least its mover's cost over
    alpha*p + 1, and that cost is at least b_{phase+1}; the potential the
    phase starts from is at most alpha*n*c_max in phase 0 (the potential
    is within alpha of the social cost) and the movers' n*p*b_i in a phase
    i >= 1 (the key bound)."""
    a, p, b, n = schedule.alpha, schedule.p, schedule.boundaries, schedule.n_players
    start = a * n * schedule.c_max if phase == 0 else n * p * b[phase]
    budget = start / (b[phase + 1] / (a * p + 1))
    assert budget.denominator == 1, budget  # b_i / b_{i+1} is the integer g
    return budget.numerator


def reference_fix(game: Game, state: State, fixed, boundaries, phase: int) -> frozenset[int]:
    """The players fixed when the phase ends at the state: nobody after
    phase 0, then every player not yet fixed whose cost is at least b_i
    after phase i; phase m is the final sweep, at b_m."""
    costs = player_costs(game, state)
    return frozenset(
        u for u in range(game.n) if phase and u not in fixed and costs[u] >= boundaries[phase]
    )


def reference_trace(game: Game, schedule: Schedule, s_init: State, moves) -> Trace:
    """The trace of these moves under the schedule: its phase end states,
    movers, fixed sets and final state re-derived from the moves, phase
    by phase, with reference_fix."""
    state, fixed = s_init, set()
    phase_end_states, movers_per_phase, fixed_sets = [], [], []
    for phase in range(schedule.m):
        for mv in moves:
            if mv.phase == phase:
                u = mv.player
                state = State(state.choices[:u] + (mv.to_strategy,) + state.choices[u + 1:])
        phase_end_states.append(state)
        movers_per_phase.append(frozenset(mv.player for mv in moves if mv.phase == phase))
        fixed_sets.append(reference_fix(game, state, fixed, schedule.boundaries, phase))
        fixed |= fixed_sets[-1]
    fixed_sets.append(reference_fix(game, state, fixed, schedule.boundaries, schedule.m))
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


def reference_first_eligible_move(
    state: IntState, costs: Sequence[int], rule: Rule
) -> tuple[int, int, int, int, str] | None:
    """The scan: the lowest-index player whose best response beats the
    improvement factor the rule sets for her cost, as (player, best
    response, cost, best-response cost, move class), costs scaled; None
    when no player may move.  ``costs`` are the player costs of ``state``."""
    ig = state.ig
    for u, cost in enumerate(costs):
        if (answer := rule(u, cost)) is not None:
            br, best, now = ig.best_response(state.choices, state.x, state.rcosts, u)
            if improves(now, best, answer[0]):
                return u, br, cost, ig.weights[u] * best, answer[1]
    return None


def reference_run(game: Game, s_init: State, p_override: int | None) -> Trace:
    """The phased dynamics on Fractions alone, every value from scratch;
    it calls no rule of the package.  The trace is reference_trace of the
    moves made."""
    schedule = reference_compute_schedule(game, s_init, p_override)
    b, p = schedule.boundaries, schedule.p
    alpha_threshold = schedule.alpha + Fraction(1, p)
    state, fixed, moves = s_init, set(), []

    def find_move(phase):
        costs = player_costs(game, state)
        for u in range(game.n):
            cost = costs[u]
            if u in fixed:
                continue
            if phase == 0:
                if cost < b[1]:
                    continue
                threshold, move_class = alpha_threshold, ALPHA_MOVE
            elif cost >= b[phase]:
                threshold, move_class = Fraction(p), P_MOVE
            elif cost >= b[phase + 1]:
                threshold, move_class = alpha_threshold, ALPHA_MOVE
            else:
                continue
            br, br_cost = best_response(game, state, u)
            if cost > threshold * br_cost:
                return u, br, cost, br_cost, move_class
        return None

    for phase in range(schedule.m):
        while (found := find_move(phase)) is not None:
            u, br, cost, br_cost, move_class = found
            new_state = State(state.choices[:u] + (br,) + state.choices[u + 1:])
            moves.append(MoveRecord(
                phase=phase, step=len(moves), player=u, from_strategy=state.choices[u],
                to_strategy=br, cost_before=cost, cost_after=br_cost, move_class=move_class,
                potential_before=potential(game, state),
                potential_after=potential(game, new_state),
            ))
            state = new_state
        fixed |= reference_fix(game, state, fixed, b, phase)
    return reference_trace(game, schedule, s_init, moves)


# --------------------------------------------------------------------------
# PoA oracles
# --------------------------------------------------------------------------


def reference_states(game: Game, state_cap: int) -> list[State]:
    if math.prod(len(p.strategies) for p in game.players) > state_cap:
        raise StateSpaceTooLargeError(f"state space exceeds cap {state_cap}")
    return [State(c) for c in itertools.product(*(range(len(p.strategies)) for p in game.players))]


def reference_brute_force_poa(game: Game, rho: Fraction, state_cap: int):
    states = reference_states(game, state_cap)
    costs = [reference_social_cost(game, s) for s in states]
    opt_index = min(range(len(states)), key=lambda i: costs[i])
    poa = worst_state = None
    for s, c in zip(states, costs):
        if reference_min_equilibrium_factor(game, s) > rho:
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
    factors = [reference_factors(game, s, range(n)) for s in states]
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
    best responses computed from scratch, in product order.  It checks how
    _rows reads every state's player costs and bits from one
    IntGame.strategy_costs call per player and choice of the others, and
    the walk's memo and tables, so it calls the kernel on purpose:
    IntGame.loads, resource_costs, best_response (the argmin of
    strategy_costs, through _horner) and potential at each state, and
    dynamics.improves."""
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


# --------------------------------------------------------------------------
# Auditor
# --------------------------------------------------------------------------


def reference_audit_trace(game: Game, trace) -> AuditReport:
    """audit_trace with every load, potential and cost from scratch: the
    loads and the potential after every move (IntGame.loads, potential),
    the mover's costs from her own resources (IntGame.own_costs) and every
    player's cost at each phase end (IntGame.player_costs).  It calls the
    solver's rules on purpose: compute_schedule, Schedule.rule with
    improves, reference_first_eligible_move on an IntState, newly_fixed,
    potential.alpha, social_cost, min_equilibrium_factor and verify's
    _check_same and _check_indices."""
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
        key_slack, key_ok = None, True
        if phase >= 1:
            key_slack = n * p * b[phase] - start_partial
            key_ok = key_slack >= 0
            if not key_ok:
                failures.append(
                    f"phase {phase}: movers' start potential {start_partial} "
                    f"exceeds n*p*b_{phase} = {n * p * b[phase]}"
                )
        budget = reference_move_budget(schedule, phase)
        if len(moves) > budget:
            failures.append(f"phase {phase}: {len(moves)} moves exceed budget {budget}")
        scratch = IntState(ig, choices)
        settled = reference_first_eligible_move(
            scratch, ig.player_costs(choices, scratch.rcosts), rule
        ) is None
        if not settled:
            failures.append(f"phase {phase}: ended while an eligible move remained")
        phase_audits.append(PhaseAudit(
            phase=phase, movers=movers, boundary=b[phase], start_partial_potential=start_partial,
            key_slack=key_slack, key_ok=key_ok, move_count=len(moves), move_budget=budget,
            budget_ok=len(moves) <= budget, settled=settled,
        ))
        costs = ig.player_costs(choices, ig.resource_costs(x))
        newly = newly_fixed(costs, fixed, bounds, phase)
        _check_same(f"phase {phase} fixed set", trace.fixed_sets[phase], newly)
        fixed.update((u, (phase, costs[u])) for u in newly)

    if stray is not None:
        raise TraceMismatchError(f"move {stray.step}: phase {stray.phase} >= m = {m}")
    newly = newly_fixed(costs, fixed, bounds, m)
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
    ceiling = reference_final_factor_ceiling(p)
    factor_ok = final_factor <= ceiling
    if not factor_ok:
        failures.append(f"final factor {final_factor} exceeds ceiling {ceiling}")
    return AuditReport(
        moves=tuple(move_audits), phases=tuple(phase_audits), fixes=tuple(fix_audits),
        final_factor=final_factor, factor_ceiling=ceiling, factor_ok=factor_ok,
        passed=not failures, failures=tuple(failures),
    )


# --------------------------------------------------------------------------
# Codecs
# --------------------------------------------------------------------------


def reference_serialize_instance(game: Game, initial_state: State | None = None) -> str:
    doc: dict = {
        "degree": game.degree,
        "resources": [
            {"coeffs": [format_rational(c) for c in poly.coeffs]} for poly in game.resources
        ],
        "players": [
            {"weight": format_rational(p.weight), "strategies": [list(s) for s in p.strategies]}
            for p in game.players
        ],
    }
    if initial_state is not None:
        doc["initial_state"] = list(initial_state.choices)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def reference_parse_rational(text: str) -> Fraction:
    if not isinstance(text, str) or not re.match(r"^[+-]?\d+(/\d+)?$", text.strip()):
        raise MalformedInstanceError(f"not a rational 'p/q' string: {text!r}")
    try:
        return Fraction(text.strip())
    except ZeroDivisionError as exc:
        raise MalformedInstanceError(f"zero denominator in {text!r}") from exc


def _require_keys(obj: dict, allowed: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise MalformedInstanceError(f"unknown keys {sorted(unknown)} in {where}")


def reference_parse_instance(data):
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        raw = json.loads(data)
    except json.JSONDecodeError as exc:
        raise MalformedInstanceError(f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise MalformedInstanceError("top level must be an object")
    _require_keys(raw, {"degree", "resources", "players", "initial_state"}, "instance")

    degree = raw.get("degree")
    if not isinstance(degree, int) or isinstance(degree, bool):
        raise MalformedInstanceError(f"degree must be an integer, got {degree!r}")

    if not isinstance(raw.get("resources"), list):
        raise MalformedInstanceError("'resources' must be a list")
    resources = []
    for i, entry in enumerate(raw["resources"]):
        if not isinstance(entry, dict):
            raise MalformedInstanceError(f"resource {i} must be an object")
        _require_keys(entry, {"coeffs"}, f"resource {i}")
        coeffs = entry.get("coeffs")
        if not isinstance(coeffs, list):
            raise MalformedInstanceError(f"resource {i}: 'coeffs' must be a list")
        coeffs = tuple(reference_parse_rational(c) for c in coeffs)
        try:
            resources.append(CostPolynomial(coeffs))
        except InstanceError as exc:
            raise type(exc)(f"resource {i}: {exc}") from exc

    if not isinstance(raw.get("players"), list):
        raise MalformedInstanceError("'players' must be a list")
    players = []
    for i, entry in enumerate(raw["players"]):
        if not isinstance(entry, dict):
            raise MalformedInstanceError(f"player {i} must be an object")
        _require_keys(entry, {"weight", "strategies"}, f"player {i}")
        weight = reference_parse_rational(entry.get("weight"))
        strategies = entry.get("strategies")
        if not isinstance(strategies, list):
            raise MalformedInstanceError(f"player {i}: 'strategies' must be a list")
        for strat in strategies:
            if not isinstance(strat, list):
                raise MalformedInstanceError(f"player {i}: strategy must be a list")
            for e in strat:
                if not isinstance(e, int) or isinstance(e, bool):
                    raise MalformedInstanceError(
                        f"player {i}: resource index {e!r} must be an integer"
                    )
        try:
            players.append(make_player(weight, strategies))
        except InstanceError as exc:
            raise type(exc)(f"player {i}: {exc}") from exc

    game = Game(degree=degree, resources=tuple(resources), players=tuple(players))

    initial_state = None
    if "initial_state" in raw:
        entries = raw["initial_state"]
        if not isinstance(entries, list) or not all(
            isinstance(k, int) and not isinstance(k, bool) for k in entries
        ):
            raise MalformedInstanceError("'initial_state' must be a list of integers")
        initial_state = State(tuple(entries))
        validate_state(game, initial_state)

    return normalize(game), initial_state


def _reference_schedule_to_doc(schedule: Schedule | None) -> dict | None:
    if schedule is None:
        return None
    return {
        "p": schedule.p,
        "alpha": schedule.alpha,
        "c_max": format_rational(schedule.c_max),
        "c_min": format_rational(schedule.c_min),
        "m": schedule.m,
        "g": schedule.g,
        "boundaries": [format_rational(x) for x in schedule.boundaries],
        "exact_constants": schedule.exact_constants,
        "n_players": schedule.n_players,
    }


def _get(doc, key: str, where: str):
    if not isinstance(doc, dict) or key not in doc:
        raise MalformedTraceError(f"{where}: missing key {key!r}")
    return doc[key]


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise MalformedTraceError(f"{what} must be a list, got {value!r}")
    return value


def _int(value, what: str) -> int:
    if type(value) is not int:
        raise MalformedTraceError(f"{what} must be an integer, got {value!r}")
    return value


def _ints(value, what: str) -> tuple[int, ...]:
    return tuple(_int(k, what) for k in _list(value, what))


def _int_lists(value, what: str) -> list[tuple[int, ...]]:
    return [_ints(r, what) for r in _list(value, what)]


def _reference_schedule_from_doc(doc: dict | None) -> Schedule | None:
    if doc is None:
        return None

    def field(key: str):
        return _get(doc, key, "trace schedule")

    exact_constants = field("exact_constants")
    if not isinstance(exact_constants, bool):
        raise MalformedTraceError(f"exact_constants must be a boolean, got {exact_constants!r}")
    return Schedule(
        **{key: _int(field(key), key) for key in ("p", "alpha", "m", "g", "n_players")},
        c_max=parse_rational(field("c_max")),
        c_min=parse_rational(field("c_min")),
        boundaries=tuple(parse_rational(x) for x in _list(field("boundaries"), "boundaries")),
        exact_constants=exact_constants,
    )


_RATIONAL_MOVE_FIELDS = ("cost_before", "cost_after", "potential_before", "potential_after")


def _reference_move_from_doc(doc, where: str) -> MoveRecord:
    values = {f.name: _get(doc, f.name, where) for f in fields(MoveRecord)}
    return MoveRecord(
        **{k: parse_rational(v) if k in _RATIONAL_MOVE_FIELDS else v for k, v in values.items()}
    )


def reference_write_trace(trace: Trace, fp) -> None:
    header = {
        "game_sha256": trace.game_sha256,
        "schedule": _reference_schedule_to_doc(trace.schedule),
        "initial_state": list(trace.initial_state.choices),
        "final_state": list(trace.final_state.choices),
        "phase_end_states": [list(s.choices) for s in trace.phase_end_states],
        "movers_per_phase": [sorted(r) for r in trace.movers_per_phase],
        "fixed_sets": [sorted(r) for r in trace.fixed_sets],
    }
    fp.write(json.dumps(header, sort_keys=True) + "\n")
    for mv in trace.moves:
        doc = {f.name: getattr(mv, f.name) for f in fields(MoveRecord)}
        doc.update({k: format_rational(doc[k]) for k in _RATIONAL_MOVE_FIELDS})
        fp.write(json.dumps(doc, sort_keys=True) + "\n")


def reference_read_trace(fp) -> Trace:
    lines = [line for line in fp.read().splitlines() if line.strip()]
    if not lines:
        raise MalformedTraceError("empty trace file")
    try:
        header = json.loads(lines[0])
        move_docs = [json.loads(line) for line in lines[1:]]
    except json.JSONDecodeError as exc:
        raise MalformedTraceError(f"invalid trace JSON: {exc}") from exc
    except ValueError as exc:
        raise DigitLimitError(f"integer too long in trace: {exc}") from exc
    moves = tuple(
        _reference_move_from_doc(doc, f"trace line {i}")
        for i, doc in enumerate(move_docs, start=2)
    )

    def field(key: str):
        return _get(header, key, "trace header")

    return Trace(
        schedule=_reference_schedule_from_doc(field("schedule")),
        initial_state=State(_ints(field("initial_state"), "initial_state")),
        final_state=State(_ints(field("final_state"), "final_state")),
        moves=moves,
        phase_end_states=tuple(
            State(r) for r in _int_lists(field("phase_end_states"), "phase_end_states")
        ),
        movers_per_phase=tuple(
            frozenset(r) for r in _int_lists(field("movers_per_phase"), "movers_per_phase")
        ),
        fixed_sets=tuple(frozenset(r) for r in _int_lists(field("fixed_sets"), "fixed_sets")),
        game_sha256=field("game_sha256"),
    )


# --------------------------------------------------------------------------
# Lower-bound family
# --------------------------------------------------------------------------


def reference_lower_bound_game(d: int, rho: Fraction, n: int, digits: int) -> Game:
    """The lower-bound family's game, each coefficient r^((d+1)*j) and
    weight r^(-i) computed as a power of its own."""
    r = rational_root_below(d, rho, digits)
    resources = [CostPolynomial((r ** (d + 2) / rho,) + (Fraction(0),) * d)]
    for j in range(2, n + 2):
        resources.append(CostPolynomial((Fraction(0),) * d + (r ** ((d + 1) * j),)))
    players = tuple(
        PlayerSpec(weight=(1 / r) ** i, strategies=((i - 1,), (i,))) for i in range(1, n + 1)
    )
    return Game(degree=d, resources=tuple(resources), players=players)


# --------------------------------------------------------------------------
# Random games
# --------------------------------------------------------------------------


def reference_gen_random(
    n: int, d: int, num_resources: int, strategies_per_player: int, max_strategy_size: int,
    coeff_range=(Fraction(0), Fraction(2)), weight_range=(Fraction(1), Fraction(3)), seed: int = 0,
) -> Game:
    """instances.gen_random for valid arguments: each resource of a
    subset is popped from the list of those not yet picked, at the
    stream's index into it."""
    rng = SplitMix64(seed)
    resources = tuple(
        CostPolynomial(tuple(_sample_fraction(rng, *map(Fraction, coeff_range), 4)
                             for _ in range(d + 1)))
        for _ in range(num_resources)
    )
    players = []
    for _ in range(n):
        weight = _sample_fraction(rng, *map(Fraction, weight_range), 4)
        strategies: list[tuple[int, ...]] = []
        for _ in range(strategies_per_player):
            for _attempt in range(8):
                pool = list(range(num_resources))
                picked = [pool.pop(rng.below(len(pool)))
                          for _ in range(1 + rng.below(max_strategy_size))]
                strat = tuple(sorted(picked))
                if strat not in strategies:
                    break
            else:
                strat = next(
                    s
                    for size in range(1, max_strategy_size + 1)
                    for s in itertools.combinations(range(num_resources), size)
                    if s not in strategies
                )
            strategies.append(strat)
        players.append(PlayerSpec(weight=weight, strategies=tuple(strategies)))
    return Game(degree=d, resources=resources, players=tuple(players))


# --------------------------------------------------------------------------
# Analysis
# --------------------------------------------------------------------------


def bisect_phi(d: int, rho: float) -> float:
    """Plain interval-halving oracle for the root of rho*(x+1)^d = x^(d+1)."""
    lo, hi = 0.0, 1.0
    while rho * (hi + 1.0) ** d - hi ** (d + 1) > 0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if rho * (mid + 1.0) ** d - mid ** (d + 1) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _float_power(t: float, v: int) -> float:
    """t**v, or inf where the float power passes the float range."""
    try:
        return t**v
    except OverflowError:
        return math.inf


def reference_check_monomials(d: int, a: float, b: float) -> CheckResult:
    """analysis._check_monomials with the slack computed at every grid
    point: the least slack and the first point attaining it, or the first
    NaN slack, which fails the check, over any number.  A power past the
    float range is inf."""
    worst = math.inf
    worst_point: tuple = ()
    for v in range(d + 1):
        for x in GRID_AXIS:
            bx = b * x * _float_power(x, v)
            for y in GRID_AXIS:
                lhs = y * _float_power(x + y, v)
                rhs = a * y * _float_power(y, v) + bx
                slack = (rhs - lhs) / max(lhs, abs(rhs), 1e-300)  # lhs >= 0 on the grid
                if slack < worst or math.isnan(slack) and not math.isnan(worst):
                    worst = slack
                    worst_point = (v, x, y)
    return CheckResult(passed=worst >= -TOLERANCE, worst_slack=worst, worst_point=worst_point)
