"""Verification oracles: equilibrium factors, brute-force PoA, trace audits.

Everything here recomputes from first principles in exact arithmetic.  The
equilibrium factor, the PoA oracles and the trace auditor run on the
integer game (Game.compiled, a game.IntGame): each test is homogeneous in
the cost scale, so answers and ratios are those on Fractions.  The
auditor replays a trace on a dynamics.IntState of its own, whose move is
the solver's update of the loads, resource costs and potential, and
applies the solver's rules and scan (a fresh dynamics.IncrementalScan)
to the states it replays.  The PoA oracles walk the states in product
order, updating loads and costs only where a player's turn changes them,
and read a player's strategy costs from IntGame.strategy_costs through
the walk's memo of _horner: brute force through IntGame.best_response,
their argmin, and only at a state whose cost could change the answer;
the group oracles once per player and choice of the others, which gives
her cost at each state of that choice and her best response there.
Brute force tests the last player who refuted a state first; the order
cannot change the answer, since a state that is not refuted has had
every player tested.  The enumerations are capped and fail loudly
rather than truncating, since their whole value is oracle status.  A
player with positive cost but a zero-cost deviation gets the explicit
infinite factor (math.inf).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator, NamedTuple

from .dynamics import (
    IncrementalScan,
    IntState,
    Trace,
    compute_schedule,
    improves,
    newly_fixed,
)
from .errors import (
    NoEquilibriumError,
    StateSpaceTooLargeError,
    TraceMismatchError,
)
from .game import Game, State, _horner, social_cost
from .potential import alpha

Factor = Fraction | float  # exact rational, or math.inf as explicit sentinel


def _ratio(numer: Fraction | int, denom: Fraction | int) -> Factor:
    if denom == 0:
        return Fraction(1) if numer == 0 else math.inf
    return Fraction(numer, denom)


def min_equilibrium_factor(
    game: Game, state: State, players: Iterable[int] | None = None
) -> Factor:
    """Smallest rho for which the state is a rho-equilibrium for the group:
    the worst ratio of current cost to best-response cost over the group.

    0/0 counts as factor 1; positive cost against a zero-cost deviation is
    the explicit infinite factor.  Runs on the integer game: the cost of
    each resource the group's current strategies use is evaluated once, at
    its first user, read by each user's best response and dropped after
    its last, so no more costs are held at once than the members share
    (in the lower-bound family each is a 10^5-bit integer).  The running
    maximum K/K_br (from 1/1) is kept by cross-multiplying, in lowest
    terms: there a cost and its best response share a large factor.  The
    player's weight cancels in K/K_br, so it is never multiplied in.
    ``players`` is read into a list first, as it is walked twice.
    """
    ig, choices = game.compiled, state.choices
    players = range(game.n) if players is None else list(players)
    x, rcosts = ig.loads(choices), {}
    last = {e: u for u in players for e in ig.strategies[u][choices[u]]}  # e's last user
    worst, worst_br = 1, 1
    for u in players:
        own = ig.strategies[u][choices[u]]
        for e in own:
            if e not in rcosts:
                rcosts[e] = _horner(ig.costs[e], x[e])
        _, best, now = ig.best_response(choices, x, rcosts, u)
        for e in own:
            if last[e] == u:
                del rcosts[e]
        if now * worst_br > worst * best:
            g = math.gcd(now, best)
            worst, worst_br = now // g, best // g
    return _ratio(worst, worst_br)


class _Walk:
    """Every state once, in product order (an odometer over the choices):
    its choices, loads and resource costs (lists updated in place), social
    cost and potential (None unless asked for).  A turn updates them on
    the resources the player leaves or joins, reading c_e(X) and Phi_e(X)
    from (resource, load) tables over ``horner``, the per-call memo of
    _horner by (row, load) that the oracles hand IntGame.strategy_costs.
    These and the steps precomputed per strategy make the oracles fast: a
    dynamics.IntState walk measured 1.5 times slower per 4^4-state game."""

    def __init__(self, game: Game, state_cap: int, potential: bool = False) -> None:
        self.ig = ig = game.compiled
        self.sizes = [len(strategies) for strategies in ig.strategies]
        if math.prod(self.sizes) > state_cap:
            raise StateSpaceTooLargeError(f"state space exceeds cap {state_cap}")
        self.strides = [math.prod(self.sizes[u + 1:]) for u in range(len(self.sizes))]
        self.horner = horner = functools.cache(_horner)
        self.cost = functools.cache(lambda e, X: horner(ig.costs[e], X))
        self.phi = functools.cache(lambda e, X: horner(ig.potentials[e], X)) if potential else None

    def __iter__(self) -> Iterator[tuple[list[int], list[int], list[int], int, int | None]]:
        ig, cost_of, phi = self.ig, self.cost, self.phi
        choices = [0] * len(ig.strategies)
        x = ig.loads(choices)
        rcosts = list(map(cost_of, itertools.count(), x))
        cost = sum(map(operator.mul, x, rcosts))
        pot = sum(map(phi, itertools.count(), x)) if phi else None
        # steps[u][k]: (resource, load change) when u turns from k to the next (the last to 0)
        steps = [[[(e, -w) for e in a if e not in b] + [(e, w) for e in b if e not in a]
                  for a, b in zip(S, S[1:] + S[:1])] for w, S in zip(ig.weights, ig.strategies)]
        while True:
            yield choices, x, rcosts, cost, pot
            u = len(choices) - 1
            while (k := choices[u]) == len(steps[u]) - 1:  # carry
                if u == 0:
                    return
                u -= 1
            for v in range(u, len(choices)):  # u turns to k + 1, the players after her to 0
                for e, dw in steps[v][choices[v]]:
                    old, new = x[e], x[e] + dw
                    x[e], c = new, cost_of(e, new)
                    cost += new * c - old * rcosts[e]
                    rcosts[e] = c
                    if phi:
                        pot += phi(e, new) - phi(e, old)
                choices[v] = 0
            choices[u] = k + 1


def enumerate_states(game: Game, state_cap: int = 10**6) -> list[State]:
    """All states of the game, in product order, or StateSpaceTooLargeError above the cap."""
    return [State(tuple(choices)) for choices, *_ in _Walk(game, state_cap)]


class _Row(NamedTuple):
    """A state's choices, player costs, potential (if asked for) and players within rho, as bits."""

    choices: tuple[int, ...]
    costs: list[int]
    potential: int | None
    within: int


def _rows(walk: _Walk, rho: Fraction) -> Iterator[_Row]:
    """Every state's row, in product order: each player's scaled cost, and
    her bit set when rho >= 1 and her best response improves on her cost
    by at most rho (0/0 counts as 1, K/0 for K > 0 as infinite).  A
    player's costs are read once per choice of the others (a block of
    states), at its first state, where she plays 0: IntGame.strategy_costs,
    through the walk's memo, gives her cost on each of her strategies,
    which are her costs at the block's states, and their minimum is her
    best response at each of them.  Her weighted cost and bit on each
    strategy are kept by the block's first index, the bit as t*b <= a*min
    for rho = a/b, and every row reads its costs and bits from there."""
    ig, strides, a, b = walk.ig, walk.strides, rho.numerator, rho.denominator
    blocks = [{} for _ in strides]  # u's (cost, bit) per strategy, by her block's first index
    for i, (choices, x, rcosts, _, pot) in enumerate(walk):
        costs, within = [], 0
        for u, k in enumerate(choices):
            if k == 0:
                totals = ig.strategy_costs(choices, x, rcosts, u, walk.horner)
                low = a * min(totals)  # t * b <= low: not improves(t, min(totals), rho)
                blocks[u][i] = [(ig.weights[u] * t, (a >= b and t * b <= low) << u) for t in totals]
            cost, bit = blocks[u][i - k * strides[u]][k]
            costs.append(cost)
            within |= bit
        yield _Row(tuple(choices), costs, pot, within)


def brute_force_poa(
    game: Game, rho: Fraction, state_cap: int = 10**6
) -> tuple[Factor, State, State]:
    """Exhaustive price of anarchy of rho-approximate equilibria: the worst
    ratio C(s)/C(s*) of a state s whose equilibrium factor is at most rho to
    the optimum s*, ties going to the state enumerated first.  Raises
    NoEquilibriumError when no state qualifies (possible in weighted games,
    and always for rho < 1).  Walks the states cost first: only a state
    costlier than the worst equilibrium so far can change the answer, so
    only its players are tested, up to the first one not within rho.  They
    are tested in move-to-front order: a player who refutes a state moves
    to the front, since states next to each other in product order are
    mostly refuted by the same player.  The order cannot change the
    answer: a state is refuted if any one player is not within rho, and a
    state that is not refuted has had every player tested."""
    walk, at_least_one = _Walk(game, state_cap), rho >= 1
    best_response, memo = walk.ig.best_response, walk.horner
    opt_cost, worst_cost = math.inf, -1
    order = list(range(game.n))  # move-to-front: the last refuting player first
    for choices, x, rcosts, cost, _ in walk:
        if cost < opt_cost:
            opt_cost, optimum = cost, tuple(choices)
        # Ranking by cost ranks the ratios even when the optimum costs 0:
        # then every player has a zero-cost strategy, so every equilibrium costs 0.
        if cost > worst_cost and at_least_one:
            for u in order:
                _, best, now = best_response(choices, x, rcosts, u, memo)
                if improves(now, best, rho):
                    order.remove(u)
                    order.insert(0, u)
                    break
            else:
                worst_cost, worst = cost, tuple(choices)
    if worst_cost < 0:
        raise NoEquilibriumError(f"no {rho}-approximate equilibrium exists")
    return _ratio(worst_cost, opt_cost), State(worst), State(optimum)


def _max_group_ratio(walk: _Walk, rows: list[_Row], values: Callable, shift=lambda *_: 0) -> Factor:
    """Worst ratio M_R(s)/M_R(s') of a group metric over all triples
    (R, s, s') where s is a rho-equilibrium for R and the complement C of
    R plays the same strategies in s and s'.  A bucket holds the rows of
    one choice of C; values(R)[i] is row i's metric, less shift(choices, C)
    at the bucket's choices, once per bucket that holds an equilibrium.  The
    worst bucket ratio, max at an equilibrium over min, is kept as two ints.

    The rows are in product order, so a state's row index is the sum of
    choices[u] * strides[u] over the players: a bucket's rows are at its
    complement offset plus each of the group's offsets."""
    sizes, strides, n = walk.sizes, walk.strides, len(walk.sizes)
    within = [row.within for row in rows]

    def offsets(players: Iterable[int]) -> list[int]:
        """The players' part of the row index for each of their choices, in product order."""
        result = [0]
        for u in players:
            result = [i + k * strides[u] for i in result for k in range(sizes[u])]
        return result

    top, bottom = 0, 1
    for group_size in range(1, n + 1):
        for group in itertools.combinations(range(n), group_size):
            mask = sum(1 << u for u in group)
            complement = [u for u in range(n) if u not in group]
            group_offsets, value = offsets(group), values(group)
            for base in offsets(complement):
                bucket = [base + i for i in group_offsets]
                if eq := [i for i in bucket if within[i] & mask == mask]:
                    high = max(map(value.__getitem__, eq))
                    low = min(map(value.__getitem__, bucket))
                    s = shift(rows[base].choices, complement)
                    high, low = high - s, low - s
                    high, low = (high, low) if low else (1, int(high == 0))  # 0/0 is 1, K/0 inf
                    if high * bottom > top * low:
                        top, bottom = high, low
    return _ratio(top, bottom)


def max_group_poa_ratio(game: Game, rho: Fraction, state_cap: int = 10**6) -> Factor:
    """Worst group cost ratio C_R(s)/C_R(s*), C_R the sum of the members'
    costs, over all triples (R, s, s*) where s is a rho-equilibrium for R and
    the complement of R plays the same strategies in s and s*.  Exhaustive; tiny games only."""
    rows = list(_rows(walk := _Walk(game, state_cap), rho))
    columns = list(zip(*(row.costs for row in rows)))  # each player's costs, row by row
    return _max_group_ratio(walk, rows, lambda R: list(map(sum, zip(*map(columns.__getitem__, R)))))


def max_rho_stretch_ratio(game: Game, rho: Fraction, state_cap: int = 10**6) -> Factor:
    """Worst partial-potential ratio over the same (R, s, s') triples as
    max_group_poa_ratio; bounded by alpha * Phi(d, rho)^(d+1).  A bucket's
    values are its rows' potentials less one Phi(X_C)."""
    rows = list(_rows(walk := _Walk(game, state_cap, potential=True), rho))
    potentials = [row.potential for row in rows]
    return _max_group_ratio(walk, rows, lambda _: potentials, lambda choices, C: sum(
        map(walk.phi, itertools.count(), walk.ig.loads(choices, C))))  # Phi(X_C)


# --------------------------------------------------------------------------
# Trace auditing
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class MoveAudit:
    """Per-move ledger entry: exact potential drop against the floor
    cost_before/(alpha*p + 1), plus eligibility legality."""

    step: int
    phase: int
    player: int
    cost_before: Fraction
    potential_drop: Fraction
    required_drop: Fraction
    drop_ok: bool
    legal: bool


@dataclass(frozen=True)
class PhaseAudit:
    """Per-phase summary of the three per-phase checks: the key bound,
    ``key_slack`` = n*p*b_i minus the movers' partial potential at the
    phase start (phases >= 1 only; nonnegative slack is the bound the
    runtime argument rests on); the move budget; and ``settled``, no
    eligible player left when the phase ended.
    """

    phase: int
    movers: frozenset[int]
    boundary: Fraction
    start_partial_potential: Fraction
    key_slack: Fraction | None
    key_ok: bool
    move_count: int
    move_budget: int
    budget_ok: bool
    settled: bool


@dataclass(frozen=True)
class FixAudit:
    """Cost drift of one player from the state where she was fixed to the
    final state; bounded by the factor 1 + 3/p."""

    player: int
    fixed_after_phase: int
    cost_at_fix: Fraction
    final_cost: Fraction
    ok: bool


@dataclass(frozen=True)
class AuditReport:
    moves: tuple[MoveAudit, ...]
    phases: tuple[PhaseAudit, ...]
    fixes: tuple[FixAudit, ...]
    final_factor: Factor
    factor_ceiling: Fraction | None
    factor_ok: bool
    passed: bool
    failures: tuple[str, ...] = field(default=())


def _check_same(label: str, recorded, recomputed) -> None:
    if recorded != recomputed:
        try:
            detail = f"recorded {recorded!r} disagrees with recomputation {recomputed!r}"
        except ValueError:  # an integer past the int/str digit limit has no repr
            detail = "recorded value disagrees with recomputation, one past the int/str digit limit"
        raise TraceMismatchError(f"{label}: {detail}")


def _check_indices(game: Game, trace: Trace) -> None:
    """Every index a trace holds must be an int inside the game: Python's
    negative indexing would otherwise alias player -1 to the last player."""

    def check(label: str, value, size: int) -> None:
        if type(value) is not int or not 0 <= value < size:
            raise TraceMismatchError(f"{label} {value!r} is not an index below {size}")

    _check_same("initial state length", len(trace.initial_state.choices), game.n)
    for u, k in enumerate(trace.initial_state.choices):
        check(f"initial strategy of player {u}:", k, len(game.players[u].strategies))
    for i, mv in enumerate(trace.moves):
        for label, value in (("phase", mv.phase), ("step", mv.step)):
            if type(value) is not int:
                raise TraceMismatchError(f"move {i}: {label} {value!r} is not an integer")
        check(f"move {i}: player", mv.player, game.n)
        size = len(game.players[mv.player].strategies)
        check(f"move {i}: from_strategy", mv.from_strategy, size)
        check(f"move {i}: to_strategy", mv.to_strategy, size)


def audit_trace(game: Game, trace: Trace) -> AuditReport:
    """Replay a trace and check every invariant the run claims.

    Recorded values (costs, potentials, states, schedule, fingerprint) must
    match exact recomputation; disagreement raises TraceMismatchError, as
    does an index outside the game.
    Property violations are returned in the report, not raised, with the
    move, phase or player named: per move, an ineligible move or a drop
    below the floor; per phase, the movers' start partial potential above
    n*p*b_i (phases >= 1), moves beyond the budget, or an eligible move
    left at the end; a fixed player's cost growth beyond 1 + 3/p; a final
    factor above the ceiling.

    One walk: the moves are read once, in trace order and phase by phase,
    and replayed on an IntState of the compiled integer game: its loads,
    resource costs and potential are computed from scratch at the initial
    state and then updated by IntState.move, the solver's own update, so a
    move costs O(size of the move); the mover's costs are read from the
    resource costs, read with IntGame.player_cost.  The scan is an
    IncrementalScan built from scratch at the first phase end and at each
    one that follows a move, and never moved: each phase end starts it with
    the phase's rule, and the phase is settled when next_move is None, so
    a phase without moves reuses its cached best responses.  The fixing
    rule and the drift check read its costs.  The auditor shares the
    solver's rules (see dynamics) and the scan's loop, not its incremental
    update; the legality test and the scan both read Schedule.rule.
    """
    _check_same("game fingerprint", trace.game_sha256, game.fingerprint)
    _check_indices(game, trace)

    failures = []

    if trace.schedule is None:
        if social_cost(game, trace.initial_state) != 0:  # costs are nonnegative
            raise TraceMismatchError("scheduleless trace but initial costs not all zero")
        _check_same("final state", trace.final_state, trace.initial_state)
        _check_same("move count", len(trace.moves), 0)
        return AuditReport(
            moves=(),
            phases=(),
            fixes=(),
            final_factor=min_equilibrium_factor(game, trace.final_state),
            factor_ceiling=None,
            factor_ok=True,
            passed=True,
        )

    schedule = trace.schedule
    if schedule.p < alpha(game.degree) + 1:  # no run has it; compute_schedule rejects it
        raise TraceMismatchError(f"schedule: p = {schedule.p} is below {alpha(game.degree) + 1}")
    recomputed = compute_schedule(
        game,
        trace.initial_state,
        p_override=None if schedule.exact_constants else schedule.p,
    )
    _check_same("schedule", schedule, recomputed)

    ig = game.compiled
    n = game.n
    b = schedule.boundaries
    bounds = [ig.cost_ceil(x) for x in b]
    m = schedule.m
    a = schedule.alpha
    p = schedule.p
    drop_denominator = a * p + 1

    _check_same("phase count (end states)", len(trace.phase_end_states), m)
    _check_same("phase count (movers)", len(trace.movers_per_phase), m)
    _check_same("fixed set count", len(trace.fixed_sets), m + 1)

    move_audits = []
    phase_audits = []
    fix_audits = []

    replay = IntState(ig, trace.initial_state.choices)
    choices, rcosts = replay.choices, replay.rcosts
    fixed: dict[int, tuple[int, int]] = {}  # player -> (phase, scaled cost then)
    read = 0  # the moves are read in trace order, once, phase by phase

    for phase in range(m):
        start, first = tuple(choices), read
        rule = schedule.rule(phase, bounds, fixed)
        while read < len(trace.moves) and trace.moves[read].phase == phase:
            mv = trace.moves[read]
            read += 1
            at = f"move {mv.step}"
            _check_same(f"{at} step order", mv.step, len(move_audits))
            u = mv.player
            _check_same(f"{at} from_strategy", mv.from_strategy, choices[u])
            cost = ig.player_cost(choices, rcosts, u)
            _check_same(f"{at} cost_before", mv.cost_before, ig.cost_value(cost))
            _check_same(f"{at} potential_before", mv.potential_before,
                        ig.potential_value(replay.potential))
            replay.move(u, mv.to_strategy)
            new_cost = ig.player_cost(choices, rcosts, u)
            _check_same(f"{at} cost_after", mv.cost_after, ig.cost_value(new_cost))
            _check_same(f"{at} potential_after", mv.potential_after,
                        ig.potential_value(replay.potential))

            answer = rule(u, cost)
            legal = (
                answer is not None
                and answer[1] == mv.move_class
                and improves(cost, new_cost, answer[0])
            )
            if not legal:
                failures.append(f"{at}: ineligible move recorded")

            drop = mv.potential_before - mv.potential_after
            required = mv.cost_before / drop_denominator
            drop_ok = drop >= required
            if not drop_ok:
                failures.append(f"{at}: potential drop {drop} below floor {required}")
            move_audits.append(
                MoveAudit(
                    step=mv.step,
                    phase=phase,
                    player=u,
                    cost_before=mv.cost_before,
                    potential_drop=drop,
                    required_drop=required,
                    drop_ok=drop_ok,
                    legal=legal,
                )
            )

        moves = trace.moves[first:read]
        if read < len(trace.moves) and trace.moves[read].phase < phase:
            raise TraceMismatchError(f"move {trace.moves[read].step}: phases not nondecreasing")

        state = State(tuple(choices))
        movers = frozenset(mv.player for mv in moves)
        _check_same(f"phase {phase} end state", trace.phase_end_states[phase], state)
        _check_same(f"phase {phase} movers", trace.movers_per_phase[phase], movers)

        start_partial = ig.potential_value(ig.partial_potential(start, movers))

        key_slack: Fraction | None = None
        key_ok = True
        if phase >= 1:
            key_slack = n * p * b[phase] - start_partial
            key_ok = key_slack >= 0
            if not key_ok:
                failures.append(
                    f"phase {phase}: movers' start potential {start_partial} "
                    f"exceeds n*p*b_{phase} = {n * p * b[phase]}"
                )

        budget = schedule.move_budget(phase)
        budget_ok = len(moves) <= budget
        if not budget_ok:
            failures.append(f"phase {phase}: {len(moves)} moves exceed budget {budget}")

        if moves or not phase:
            scan = IncrementalScan(ig, choices)
        scan.start(rule)
        settled = scan.next_move() is None
        if not settled:
            failures.append(f"phase {phase}: ended while an eligible move remained")

        phase_audits.append(
            PhaseAudit(
                phase=phase,
                movers=movers,
                boundary=b[phase],
                start_partial_potential=start_partial,
                key_slack=key_slack,
                key_ok=key_ok,
                move_count=len(moves),
                move_budget=budget,
                budget_ok=budget_ok,
                settled=settled,
            )
        )

        costs = scan.costs
        newly = newly_fixed(costs, fixed, bounds, phase)
        _check_same(f"phase {phase} fixed set", trace.fixed_sets[phase], newly)
        fixed.update((u, (phase, costs[u])) for u in newly)

    if read < len(trace.moves):  # a move left over after phase m - 1
        mv = trace.moves[read]
        raise TraceMismatchError(f"move {mv.step}: phase {mv.phase} >= m = {m}")

    newly = newly_fixed(costs, fixed, bounds, m)
    _check_same("final fixed set", trace.fixed_sets[m], newly)
    fixed.update((u, (m, costs[u])) for u in newly)
    _check_same("all players fixed", frozenset(range(n)), frozenset(fixed))
    _check_same("final state", trace.final_state, state)

    for u in range(n):
        j, cost_then = fixed[u]
        ok = costs[u] * p <= (p + 3) * cost_then  # within the factor 1 + 3/p
        cost_at_fix, final_cost = ig.cost_value(cost_then), ig.cost_value(costs[u])
        if not ok:
            failures.append(
                f"player {u}: cost grew from {cost_at_fix} at fixing (phase {j}) "
                f"to {final_cost}, beyond factor 1 + 3/p"
            )
        fix_audits.append(
            FixAudit(
                player=u,
                fixed_after_phase=j,
                cost_at_fix=cost_at_fix,
                final_cost=final_cost,
                ok=ok,
            )
        )

    final_factor = min_equilibrium_factor(game, trace.final_state)
    ceiling = schedule.final_factor_ceiling
    factor_ok = final_factor <= ceiling
    if not factor_ok:
        failures.append(f"final factor {final_factor} exceeds ceiling {ceiling}")

    return AuditReport(
        moves=tuple(move_audits),
        phases=tuple(phase_audits),
        fixes=tuple(fix_audits),
        final_factor=final_factor,
        factor_ceiling=ceiling,
        factor_ok=factor_ok,
        passed=not failures,
        failures=tuple(failures),
    )
