"""Phased best-response dynamics for weighted polynomial congestion games.

The solver runs in m phases gated by geometrically decreasing cost
boundaries b_i = g^(-i) * c_max.  Phase 0 lets any player whose cost is at
least b_1 take a best response whenever that improves her cost by a factor
greater than alpha + 1/p (alpha = d+1).  Each later phase i allows a
non-fixed player to move if either her cost lies in [b_{i+1}, b_i) and she
improves beyond alpha + 1/p, or her cost is at least b_i and she improves
beyond the much larger factor p; when the phase drains, every non-fixed
player with cost >= b_i is fixed for good.  After the last phase all
remaining players are fixed (b_m is below every achievable cost), and the
final state is a p*(1+3/p)/(1-2/p)-approximate equilibrium.

All thresholds are exact rationals; the run is fully deterministic: the
scan always picks the lowest-index eligible player and ties between equal
best responses resolve to the lowest strategy index.  A complete Trace of
the run is emitted for independent auditing.  The rules are written once:
Schedule.rule with improves, and newly_fixed; so is a move's update of
the integer state, IntState.move.  The solver's IncrementalScan is an
IntState, and the auditor replays a trace on one of its own.  The scan,
IncrementalScan.next_move, is written once too.  It takes the phase's
rule and knows nothing of schedules, phases or fixing.  The solver keeps
one scan up to date across moves; the auditor builds one from scratch
at each replayed phase end that follows a move, and never moves it.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, fields
from functools import cached_property
from fractions import Fraction
from typing import IO, Callable, Container, Sequence

from .codec import format_rational, parse_rational, read_json
from .errors import (
    AlreadyZeroError, MalformedInstanceError, MalformedTraceError, MoveBudgetExceededError,
    ZeroMinCostError,
)
from .game import Game, IntGame, State, _horner, validate_state
from .potential import alpha

ALPHA_MOVE = "alpha_move"
P_MOVE = "p_move"

# A phase's eligibility rule, as Schedule.rule returns it: rule(u, cost)
Rule = Callable[[int, int], "tuple[Fraction, str] | None"]


def target_p(degree: int) -> int:
    """The schedule's improvement-factor constant p = (2d+3)(d+1)(4d)^(d+1)."""
    d = degree
    return (2 * d + 3) * (d + 1) * (4 * d) ** (d + 1)


def best_response(game: Game, state: State, u: int) -> tuple[int, Fraction]:
    """Best strategy index for player u against the others' choices, with
    its exact cost: IntGame.best_response, scaled back.  Ties resolve to
    the lowest strategy index."""
    ig = game.compiled
    x = ig.loads(state.choices)
    br, best, _ = ig.best_response(state.choices, x, ig.own_costs(state.choices, x, u), u)
    return br, ig.cost_value(ig.weights[u] * best)


@dataclass(frozen=True)
class Schedule:
    """Derived constants of one solver run.

    boundaries[i] = g^(-i) * c_max for i = 0..m; b_m never exceeds c_min,
    the cheapest best response any player has against empty resources.
    ``exact_constants`` is False when p, overridden for experimentation,
    differs from target_p(d).
    """

    p: int
    alpha: int
    c_max: Fraction
    c_min: Fraction
    m: int
    g: int
    boundaries: tuple[Fraction, ...]
    n_players: int
    exact_constants: bool = True

    @cached_property
    def alpha_threshold(self) -> Fraction:
        """The small improvement factor alpha + 1/p."""
        return Fraction(self.alpha * self.p + 1, self.p)

    @property
    def final_factor_ceiling(self) -> Fraction:
        """Guaranteed equilibrium factor of the final state:
        p * (1 + 3/p) / (1 - 2/p)."""
        return Fraction(self.p * (self.p + 3), self.p - 2)

    def rule(self, phase: int, bounds: Sequence, fixed: Container[int]) -> Rule:
        """The phase's eligibility rule: rule(u, cost) is the improvement
        factor player u, at this cost, must beat to move, with the class of
        that move, or None when she is fixed or may not move in the phase.

        ``bounds`` are the schedule's boundaries in the scale of the costs:
        the integer kernel passes them rounded up to its integer costs,
        which keeps every comparison exact.
        """
        alpha_rule, p_rule = (self.alpha_threshold, ALPHA_MOVE), (Fraction(self.p), P_MOVE)
        high, low = bounds[phase], bounds[phase + 1]

        def rule(u: int, cost) -> tuple[Fraction, str] | None:
            if u in fixed:
                return None
            if phase and cost >= high:
                return p_rule
            return alpha_rule if cost >= low else None

        return rule

    def move_budget(self, phase: int) -> int:
        """Theoretical cap on moves in a phase; exceeding it means a bug."""
        n = self.n_players
        if phase == 0:
            return n * self.alpha * self.g * (self.alpha * self.p + 1)
        return n * self.g * (self.alpha * self.p + 1) * self.p


def improves(cost, br_cost, threshold: Fraction) -> bool:
    """cost > threshold * br_cost, cross-multiplied so that integer costs
    stay integers; a weight common to both costs cancels."""
    return cost * threshold.denominator > threshold.numerator * br_cost


class IntState:
    """A state of the integer game: its choices, loads x and resource
    costs, computed from scratch once and then kept by move, and its
    scaled potential, computed on first read (move reads it before it
    changes a load) and then kept by move too.  The solver's
    IncrementalScan is one, and the auditor replays a trace on one, so a
    move's update is written here only; the PoA oracles' walk keeps its
    own, from per-call tables (see verify._Walk)."""

    def __init__(self, ig: IntGame, choices: Sequence[int]) -> None:
        self.ig = ig
        self.choices = list(choices)
        self.x = ig.loads(self.choices)
        self.rcosts = ig.resource_costs(self.x)

    @cached_property
    def potential(self) -> int:
        """The scaled potential at the loads: the auditor's scans never read it."""
        return self.ig.potential(self.x)

    def move(self, u: int, k: int) -> set[int]:
        """Switch player u to strategy k, updating the load, resource cost
        and potential on each resource the move changes; returns those
        resources, the symmetric difference of her old and new strategy."""
        ig, x, rcosts, potential = self.ig, self.x, self.rcosts, self.potential
        w, potentials = ig.weights[u], ig.potentials
        old, new = set(ig.strategies[u][self.choices[u]]), set(ig.strategies[u][k])
        changed = old ^ new
        for e in changed:
            x_new = x[e] + w if e in new else x[e] - w
            potential += _horner(potentials[e], x_new) - _horner(potentials[e], x[e])
            x[e] = x_new
            rcosts[e] = _horner(ig.costs[e], x_new)
        self.potential = potential
        self.choices[u] = k
        return changed


class IncrementalScan(IntState):
    """The scan: the lowest-index player whose best response beats the
    improvement factor the rule sets for her cost, kept up to date across
    moves.  The solver moves it; the auditor builds one at a state and
    only scans.

    An IntState that also keeps the player costs, and caches each player's
    best response (None when stale) and the rule's answer for her (None
    when she may not move).  A move touches only the players with a
    strategy on a resource whose load it changed (``users``, built at the
    first move): each loses her cached best response, and only the mover
    and the players whose current strategy uses such a resource get their
    cost and answer re-derived, as no other cost changed.  The touched
    players with an answer are queued in a heap, lowest index on top.
    next_move computes a stale best response only at the top, and pops a
    player who does not beat her answer (or a copy queued earlier) until
    a move or start queues her again."""

    def __init__(self, ig: IntGame, choices: Sequence[int]) -> None:
        super().__init__(ig, choices)
        self.costs = ig.player_costs(self.choices, self.rcosts)
        self.responses: list[tuple[int, int, int] | None] = [None] * len(self.choices)

    @cached_property
    def users(self) -> list[set[int]]:
        """Each resource's players with a strategy on it: a best response reads them all."""
        users: list[set[int]] = [set() for _ in self.x]
        for u, strategies in enumerate(self.ig.strategies):
            for e in set().union(*strategies):
                users[e].add(u)
        return users

    def start(self, rule: Rule) -> None:
        """Take the rule and re-classify every player from the cached costs."""
        self.rule = rule
        self.answers = [rule(u, cost) for u, cost in enumerate(self.costs)]
        self.heap = [u for u, answer in enumerate(self.answers) if answer]

    def next_move(self) -> tuple[int, int, int, int, str] | None:
        """The first eligible move at the current state, as (player, best
        response, cost, best-response cost, move class), costs scaled;
        None when no player may move under the rule of the last start."""
        heap = self.heap
        while heap:
            u = heap[0]
            if (answer := self.answers[u]) is not None:
                if self.responses[u] is None:
                    self.responses[u] = self.ig.best_response(self.choices, self.x, self.rcosts, u)
                br, best, now = self.responses[u]
                if improves(now, best, answer[0]):
                    return u, br, self.costs[u], self.ig.weights[u] * best, answer[1]
            heapq.heappop(heap)
        return None

    def move(self, u: int, k: int) -> set[int]:
        """IntState.move, then touch every player with a strategy on a
        resource it changed (see the class docstring)."""
        changed = super().move(u, k)
        ig, choices, answers = self.ig, self.choices, self.answers
        for v in set().union(*map(self.users.__getitem__, changed)):
            self.responses[v] = None
            if v == u or not changed.isdisjoint(ig.strategies[v][choices[v]]):
                self.costs[v] = ig.player_cost(choices, self.rcosts, v)
                answers[v] = self.rule(v, self.costs[v])
            if answers[v] is not None:
                heapq.heappush(self.heap, v)
        return changed


def newly_fixed(costs: Sequence[int], fixed: Container[int], bounds, phase: int) -> frozenset[int]:
    """The fixing rule after phase i (the final sweep is phase m): nobody
    after phase 0, else the players not yet fixed whose cost is >= bounds[i]."""
    if not phase:
        return frozenset()
    return frozenset(u for u, cost in enumerate(costs) if u not in fixed and cost >= bounds[phase])


Index = int  # an index in a move record, read as written (see _CODEC)


@dataclass(frozen=True)
class MoveRecord:
    """One executed best-response move, with exact before/after bookkeeping."""

    phase: Index
    step: Index
    player: Index
    from_strategy: Index
    to_strategy: Index
    cost_before: Fraction
    cost_after: Fraction
    move_class: str
    potential_before: Fraction
    potential_after: Fraction


@dataclass(frozen=True)
class Trace:
    """Complete audit surface of a run.

    ``phase_end_states`` holds the state after each phase 0..m-1 and
    ``movers_per_phase`` the players who moved in each.  ``fixed_sets`` has
    m+1 entries: entry i < m lists the players fixed at the end of phase i
    (always empty for phase 0), entry m the players fixed by the final
    sweep at the b_m boundary.  ``schedule`` is None only for the trivial
    run in which every initial cost is zero.
    """

    schedule: Schedule | None
    initial_state: State
    final_state: State
    moves: tuple[MoveRecord, ...]
    phase_end_states: tuple[State, ...]
    movers_per_phase: tuple[frozenset[int], ...]
    fixed_sets: tuple[frozenset[int], ...]
    game_sha256: str


def _ceil_log2(a: int, b: int) -> int:
    """Smallest k >= 0 with 2^k * b >= a, for a >= 1 and b > 0: 2^k * b >= a
    holds exactly when 2^k > (a - 1) // b."""
    return ((a - 1) // b).bit_length()


def compute_schedule(
    game: Game, s_init: State, p_override: int | None = None
) -> Schedule:
    """Derive the run's constants from the game and initial state.

    c_max is the largest player cost at s_init; c_min the smallest cost a
    player can get alone on the resources of one of her strategies (both
    found on the integer game); m = max(1, ceil(log2(c_max/c_min)));
    g = n*p^3*(1+m*(1+p))^d*d^d + 1; boundaries b_i = g^(-i)*c_max.

    Raises AlreadyZeroError when c_max = 0 (s_init is trivially an
    equilibrium) and ZeroMinCostError when c_min = 0 (m is undefined).
    """
    validate_state(game, s_init)
    if not game.is_normalized:
        # the potential's alpha-approximation property needs weights >= 1
        raise MalformedInstanceError(
            "player weights must be >= 1 for the solver; apply normalize() first"
        )
    ig = game.compiled
    k_max = max(ig.player_costs(s_init.choices, ig.resource_costs(ig.loads(s_init.choices))))
    if k_max == 0:
        raise AlreadyZeroError("all player costs are zero at the initial state")
    k_min = min(ig.alone_cost(u) for u in range(game.n))
    if k_min == 0:
        raise ZeroMinCostError("a player can reach cost zero; phase count undefined")
    c_max = ig.cost_value(k_max)

    d = game.degree
    p = target_p(d) if p_override is None else p_override
    if p < alpha(d) + 1:  # the p-move class must be stronger than alpha + 1/p
        raise MalformedInstanceError(f"p must be >= {alpha(d) + 1} for degree {d}, got {p}")
    m = max(1, _ceil_log2(k_max, k_min))
    g = game.n * p**3 * (1 + m * (1 + p)) ** d * d**d + 1
    boundaries = tuple(c_max * Fraction(1, g**i) for i in range(m + 1))
    return Schedule(
        p=p,
        alpha=alpha(d),
        c_max=c_max,
        c_min=ig.cost_value(k_min),
        m=m,
        g=g,
        boundaries=boundaries,
        exact_constants=p == target_p(d),
        n_players=game.n,
    )


def _trivial_trace(game: Game, s_init: State) -> Trace:
    return Trace(
        schedule=None,
        initial_state=s_init,
        final_state=s_init,
        moves=(),
        phase_end_states=(),
        movers_per_phase=(),
        fixed_sets=(),
        game_sha256=game.fingerprint,
    )


def run_algorithm(
    game: Game, s_init: State, p_override: int | None = None
) -> tuple[State, Trace]:
    """Run the phased best-response dynamics from s_init.

    Inside each phase the lowest-index eligible player moves first, as
    an IncrementalScan finds her and keeps that answer up to date across
    moves; the fixing reads its costs.  Every comparison against a
    boundary or an improvement threshold is exact.  Returns the final
    state and the full Trace.  If all initial costs are zero the state is
    returned unchanged with an empty trace.
    """
    try:
        schedule = compute_schedule(game, s_init, p_override)
    except AlreadyZeroError:
        return s_init, _trivial_trace(game, s_init)

    # The run works on the compiled integer game: every test below is
    # homogeneous in the cost scale, so it gives the same answer as on the
    # Fraction values, which are formed only for the MoveRecords.
    ig = game.compiled
    m = schedule.m
    bounds = tuple(ig.cost_ceil(b) for b in schedule.boundaries)

    scan = IncrementalScan(ig, s_init.choices)
    choices = scan.choices
    fixed: set[int] = set()
    moves: list[MoveRecord] = []
    phase_end_states: list[State] = []
    movers_per_phase: list[frozenset[int]] = []
    fixed_sets: list[frozenset[int]] = []

    for phase in range(m):
        budget = schedule.move_budget(phase)
        first_step = len(moves)
        movers: set[int] = set()
        scan.start(schedule.rule(phase, bounds, fixed))
        while (found := scan.next_move()) is not None:
            u, br, cost_before, cost_after, move_class = found
            if len(moves) - first_step == budget:
                raise MoveBudgetExceededError(f"phase {phase} exceeded its move budget {budget}")
            from_strategy, pot_before = choices[u], scan.potential
            scan.move(u, br)
            moves.append(
                MoveRecord(
                    phase=phase,
                    step=len(moves),
                    player=u,
                    from_strategy=from_strategy,
                    to_strategy=br,
                    cost_before=ig.cost_value(cost_before),
                    cost_after=ig.cost_value(cost_after),
                    move_class=move_class,
                    potential_before=ig.potential_value(pot_before),
                    potential_after=ig.potential_value(scan.potential),
                )
            )
            movers.add(u)
        movers_per_phase.append(frozenset(movers))
        phase_end_states.append(State(tuple(choices)))
        fixed_sets.append(newly_fixed(scan.costs, fixed, bounds, phase))
        fixed |= fixed_sets[-1]
    # the state after the last phase is final: the sweep at b_m fixes the rest
    fixed_sets.append(newly_fixed(scan.costs, fixed, bounds, m))

    trace = Trace(
        schedule=schedule,
        initial_state=s_init,
        final_state=State(tuple(choices)),
        moves=tuple(moves),
        phase_end_states=tuple(phase_end_states),
        movers_per_phase=tuple(movers_per_phase),
        fixed_sets=tuple(fixed_sets),
        game_sha256=game.fingerprint,
    )
    return trace.final_state, trace


# --------------------------------------------------------------------------
# Trace (de)serialization: JSON Lines, header first, one move per line
# --------------------------------------------------------------------------


def _get(doc, key: str, where: str):
    """doc[key]; MalformedTraceError when doc is no object or lacks the key."""
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


def _bool(value, what: str) -> bool:
    if not isinstance(value, bool):
        raise MalformedTraceError(f"{what} must be a boolean, got {value!r}")
    return value


def _ints(value, what: str) -> tuple[int, ...]:
    return tuple(_int(k, what) for k in _list(value, what))


def _int_lists(value, what: str) -> list[tuple[int, ...]]:
    return [_ints(r, what) for r in _list(value, what)]


def _same(value, what: str = ""):
    return value


# (write, strict read) for each field annotation of Schedule, MoveRecord
# and Trace; a read takes the written value and the field's name.  Index
# and str fields are read as written: audit_trace checks them against the
# game and the replay, so that a bad one reads as a trace mismatch.
_CODEC = {
    "int": (_same, _int),
    "bool": (_same, _bool),
    "str": (_same, _same),
    "Index": (_same, _same),
    "Fraction": (format_rational, lambda v, what: parse_rational(v)),
    "tuple[Fraction, ...]": (
        lambda v: [format_rational(x) for x in v],
        lambda v, what: tuple(parse_rational(x) for x in _list(v, what)),
    ),
    "State": (lambda s: list(s.choices), lambda v, what: State(_ints(v, what))),
    "tuple[State, ...]": (
        lambda v: [list(s.choices) for s in v],
        lambda v, what: tuple(State(r) for r in _int_lists(v, what)),
    ),
    "tuple[frozenset[int], ...]": (
        lambda v: [sorted(r) for r in v],
        lambda v, what: tuple(frozenset(r) for r in _int_lists(v, what)),
    ),
    "Schedule | None": (
        lambda s: None if s is None else _to_doc(s),
        lambda v, what: None if v is None else _from_doc(Schedule, v, "trace schedule"),
    ),
}
# (name, write, read) per field; a trace's moves are not a header field
# but the lines after it
_FIELDS = {
    cls: tuple((f.name, *_CODEC[f.type]) for f in fields(cls) if f.name != "moves")
    for cls in (Schedule, MoveRecord, Trace)
}


def _to_doc(obj) -> dict:
    return {name: write(getattr(obj, name)) for name, write, _ in _FIELDS[type(obj)]}


def _from_doc(cls, doc, where: str, **given):
    """An instance of cls read from its document; ``given`` fields are not read."""
    read_fields = {name: read(_get(doc, name, where), name) for name, _, read in _FIELDS[cls]}
    return cls(**given, **read_fields)


def write_trace(trace: Trace, fp: IO[str]) -> None:
    """Write a trace as JSON Lines: one header line, then one move per line."""
    fp.write(json.dumps(_to_doc(trace), sort_keys=True) + "\n")
    for mv in trace.moves:
        fp.write(json.dumps(_to_doc(mv), sort_keys=True) + "\n")


def read_trace(fp: IO[str]) -> Trace:
    """Read a trace written by write_trace.

    An empty file, text that is not UTF-8 or not JSON, missing keys and
    wrongly typed fields raise MalformedTraceError (MalformedInstanceError
    for a malformed rational, DigitLimitError for a number past the
    int/str digit limit).
    """
    docs = read_json(fp, MalformedTraceError, "invalid trace JSON", "trace", lines=True)
    if not docs:
        raise MalformedTraceError("empty trace file")
    moves = tuple(
        _from_doc(MoveRecord, doc, f"trace line {i}") for i, doc in enumerate(docs[1:], start=2)
    )
    return _from_doc(Trace, docs[0], "trace header", moves=moves)
