"""Shared helpers for the test suite: the Hypothesis settings,
deterministic random rationals, tiny game and state builders, and the
kernel's potential of one polynomial."""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable

import pytest
from hypothesis import settings

from congames import CostPolynomial, Game, State, make_player

# Hypothesis settings of the property tests: no deadline, as a 2-vCPU
# machine's timing is noisy, and no example database left on disk
SETTINGS = settings(max_examples=80, deadline=None, database=None)


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
