"""Shared helpers for the test suite, each used by more than one test
module: the Hypothesis settings and game strategies, deterministic random
rationals, tiny game and state builders, the kernel's potential of one
polynomial, the golden cases as solve reads them, exact comparison of
results and of the PoA oracles with their references, and the
single-fault changes of solver traces.  The from-scratch oracles are in
reference.py."""

from __future__ import annotations

import dataclasses
import random
from dataclasses import replace
from fractions import Fraction
from typing import Callable

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from congames import CostPolynomial, Game, State, gen_random, make_player, normalize, run_algorithm
from congames.dynamics import ALPHA_MOVE, P_MOVE, MoveRecord, Trace
from congames.errors import CongamesError
from congames.game import parse_instance
from congames.verify import brute_force_poa, max_group_poa_ratio, max_rho_stretch_ratio

import reference
from reference import reference_brute_force_poa, reference_group_cost, reference_group_ratio

# Hypothesis settings of the property tests: no deadline, as a 2-vCPU
# machine's timing is noisy, and no example database left on disk
SETTINGS = settings(max_examples=80, deadline=None, database=None)

GOLDEN = (1 + 5**0.5) / 2  # the golden ratio, the root of x^2 = x + 1

MINIMAL = """
{
  "degree": 1,
  "resources": [ {"coeffs": ["0", "1"]} ],
  "players": [ {"weight": "1", "strategies": [[0]]} ]
}
"""


def random_fraction(rng: random.Random, lo: int, hi: int, den: int = 8) -> Fraction:
    """Uniform rational in [lo, hi] on the grid Z/den."""
    return Fraction(rng.randint(lo * den, hi * den), den)


def random_polynomial(
    rng: random.Random, degree: int, max_coeff: int = 3, allow_zero: bool = True
) -> CostPolynomial:
    coeffs = [random_fraction(rng, 0, max_coeff) for _ in range(degree + 1)]
    if not allow_zero and all(c == 0 for c in coeffs):
        coeffs[rng.randrange(degree + 1)] = random_fraction(rng, 1, max_coeff)
    return CostPolynomial(tuple(coeffs))


def random_game(
    rng: random.Random,
    n: int,
    degree: int,
    num_resources: int,
    strategies: int = 3,
    max_size: int = 2,
    positive_costs: bool = False,
) -> Game:
    resources = tuple(
        random_polynomial(rng, degree, allow_zero=not positive_costs)
        for _ in range(num_resources)
    )
    players = []
    for _ in range(n):
        weight = random_fraction(rng, 1, 3)
        strats = []
        for _ in range(strategies):
            size = rng.randint(1, max_size)
            strats.append(rng.sample(range(num_resources), size))
        players.append(make_player(weight, strats))
    return Game(degree=degree, resources=resources, players=tuple(players))


def kernel_phi(poly: CostPolynomial) -> Callable[[Fraction], Fraction]:
    """The package's potential phi of one polynomial, read from the kernel:
    the IntGame.potentials row of a one-resource game whose one player
    weighs 1, so that W = 1 and a scaled load is the load itself, evaluated
    at a Fraction load by IntGame.potential."""
    degree = max(1, len(poly.coeffs) - 1)
    ig = Game(degree, (poly,), (make_player(Fraction(1), [[0]]),)).compiled
    return lambda x: ig.potential_value(ig.potential([x]))


def random_state(rng: random.Random, game: Game) -> State:
    return State(tuple(rng.randrange(len(p.strategies)) for p in game.players))


def with_choice(state: State, u: int, k: int) -> State:
    """The state with player u switched to strategy k."""
    return State(state.choices[:u] + (k,) + state.choices[u + 1:])


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


def single_player_game() -> Game:
    """One player, weight 1, single strategy on a linear resource."""
    return Game(
        degree=1,
        resources=(CostPolynomial((Fraction(0), Fraction(1))),),
        players=(make_player(Fraction(1), [[0]]),),
    )


def crafted_p_move_game() -> tuple[Game, State]:
    """Player 0 spans four quadratic resources and is settled just under the
    alpha threshold; four unit-weight players sit on constant-cost homes
    priced inside [b_2, b_1) and migrate onto her resources in phase 1,
    pushing her improvement factor past p = 4.  Player 5 only anchors c_max."""
    gamma, q, h = Fraction(1), Fraction(5, 4), Fraction(100)
    anchor = 200 * (1536 * (1 + 5 * 28) ** 2 + 1)
    res = [CostPolynomial((Fraction(0), Fraction(0), gamma)) for _ in range(4)]
    res.append(CostPolynomial((Fraction(0), Fraction(0), q)))
    res += [CostPolynomial((h,)) for _ in range(4)]
    res.append(CostPolynomial((Fraction(anchor),)))
    players = [make_player(Fraction(4), [[0, 1, 2, 3], [4]])]
    for k in range(4):
        players.append(make_player(Fraction(1), [[5 + k], [k]]))
    players.append(make_player(Fraction(1), [[9]]))
    return Game(degree=2, resources=tuple(res), players=tuple(players)), State((0,) * 6)


def vacated_game() -> Game:
    """Player 0 sits on a cost-3 resource; her other strategy is an x-cost
    resource that player 1 holds, at cost 2 to her, which does not beat
    alpha + 1/p = 7/3 at p = 3.  Player 1 then leaves it for a cost-1/4
    one, and player 0's move to it, at cost 1, becomes eligible: a scan
    that keeps player 0's best response from before player 1's move
    misses it, as her current strategy uses no resource the move changed."""
    resources = (CostPolynomial((Fraction(3),)), CostPolynomial((Fraction(0), Fraction(1))),
                 CostPolynomial((Fraction(1, 4),)))
    return Game(1, resources, (make_player(1, [[0], [1]]), make_player(1, [[1], [2]])))


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


def exact(value):
    """The value with the type of each of its parts, for an exact == that
    never passes a Fraction for an int or a float and, unlike repr, writes
    no number in decimal: a schedule's boundaries can exceed the int/str
    digit limit."""
    if isinstance(value, tuple):
        return tuple(map(exact, value))
    if dataclasses.is_dataclass(value):
        return type(value), exact(tuple(getattr(value, f.name) for f in dataclasses.fields(value)))
    return type(value), value


def exact_outcome(fn, *args):
    """A call's result as exact gives it, or the type and message of the
    congames error it raised."""
    try:
        return exact(fn(*args))
    except CongamesError as exc:
        return type(exc), str(exc)


def assert_poa_oracles_match_references(game: Game, rho: Fraction, state_cap: int) -> None:
    """brute_force_poa, max_group_poa_ratio and max_rho_stretch_ratio give
    their references' values, types (Fraction or inf), states and errors."""
    assert exact_outcome(brute_force_poa, game, rho, state_cap) == exact_outcome(
        reference_brute_force_poa, game, rho, state_cap
    )
    for oracle, metric in (
        (max_group_poa_ratio, reference_group_cost),
        (max_rho_stretch_ratio, reference.partial_potential),
    ):
        assert exact_outcome(oracle, game, rho, state_cap) == exact_outcome(
            reference_group_ratio, game, rho, state_cap, metric
        )


# --------------------------------------------------------------------------
# Single-fault changes of solver traces, for the auditor's tests
# --------------------------------------------------------------------------


def mutation_traces():
    """The crafted p-move run (alpha and p moves, phases 0 and 1) and a
    gen_random run, each with its game."""
    game, s0 = crafted_p_move_game()
    yield game, run_algorithm(game, s0, p_override=4)[1]
    game = gen_random(6, 2, 5, 3, 2, (Fraction(1, 4), Fraction(2)), seed=14)
    yield game, run_algorithm(game, State((0,) * 6))[1]


def _index_mutations(v, size: int) -> list:
    return [v + 1, v - 1, -1, size, (v + 1) % size, float(v), str(v)]


def _value_mutations(v: Fraction) -> list:
    return [v + Fraction(1, 7919), v * 2, Fraction(0)]


def _move_field_values(game: Game, mv: MoveRecord):
    """(field name, replacement values) for every field of a move record."""
    strategies = len(game.players[mv.player].strategies)
    yield "phase", [mv.phase + 1, mv.phase - 1, float(mv.phase), str(mv.phase)]
    yield "step", [mv.step + 1, mv.step - 1, float(mv.step), str(mv.step)]
    yield "player", _index_mutations(mv.player, game.n)
    yield "from_strategy", _index_mutations(mv.from_strategy, strategies)
    yield "to_strategy", _index_mutations(mv.to_strategy, strategies) + [99]
    for name in ("cost_before", "cost_after", "potential_before", "potential_after"):
        yield name, _value_mutations(getattr(mv, name))
    other = P_MOVE if mv.move_class == ALPHA_MOVE else ALPHA_MOVE
    yield "move_class", [other, "bogus"]


def record_mutations(game: Game, trace: Trace):
    """(label, tampered trace) for every single-field change of every move
    record that changes the value or its type."""
    for i, mv in enumerate(trace.moves):
        for name, values in _move_field_values(game, mv):
            original = getattr(mv, name)
            for value in values:
                if value != original or type(value) is not type(original):
                    moves = trace.moves[:i] + (replace(mv, **{name: value}),) + trace.moves[i + 1:]
                    yield (i, name, value), replace(trace, moves=moves)


def header_mutations(game: Game, trace: Trace):
    """(label, tampered trace) for every single perturbation of the trace
    header: each schedule constant and boundary, each fixed set, each
    movers set and each phase end state."""
    schedule = trace.schedule
    for name in ("p", "alpha", "m", "g", "n_players"):
        v = getattr(schedule, name)
        for value in (v + 1, v - 1):
            yield name, replace(trace, schedule=replace(schedule, **{name: value}))
    for name in ("c_max", "c_min"):
        for value in _value_mutations(getattr(schedule, name)):
            yield name, replace(trace, schedule=replace(schedule, **{name: value}))
    yield "exact_constants", replace(
        trace, schedule=replace(schedule, exact_constants=not schedule.exact_constants)
    )
    for i, b in enumerate(schedule.boundaries):
        for value in _value_mutations(b):
            boundaries = schedule.boundaries[:i] + (value,) + schedule.boundaries[i + 1:]
            yield f"boundary {i}", replace(
                trace, schedule=replace(schedule, boundaries=boundaries)
            )
    for field_name in ("fixed_sets", "movers_per_phase"):
        sets = getattr(trace, field_name)
        for i, players in enumerate(sets):
            for u in range(game.n):  # add or remove each player in turn
                tampered = sets[:i] + (players ^ {u},) + sets[i + 1:]
                yield f"{field_name}[{i}] ^ {u}", replace(trace, **{field_name: tampered})
    for i, state in enumerate(trace.phase_end_states):
        for u, k in enumerate(state.choices):
            for other in range(len(game.players[u].strategies)):
                if other != k:
                    states = list(trace.phase_end_states)
                    states[i] = with_choice(state, u, other)
                    yield f"phase_end_states[{i}] player {u}", replace(
                        trace, phase_end_states=tuple(states)
                    )


# Read last: test_golden imports crafted_p_move_game from here.
from test_golden import CASES, _cli  # noqa: E402
