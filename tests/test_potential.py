"""Potential function: closed-form values, sandwich and drop inequalities.

The package's phi is read from the kernel (conftest.kernel_phi, or
potential() on a one-resource game); tests/reference.py writes phi term by
term, as the oracle it is compared with."""

from __future__ import annotations

from fractions import Fraction

from congames import (
    CostPolynomial,
    Game,
    State,
    alpha,
    make_player,
    partial_potential,
    player_costs,
    potential,
)
from congames.game import group_cost, loads

import reference
from conftest import (
    kernel_phi,
    random_fraction,
    random_game,
    random_polynomial,
    random_state,
    with_choice,
)


def alone(poly: CostPolynomial, weight: Fraction) -> Fraction:
    """potential() of a one-resource game whose one player, of the given
    weight, uses the resource: phi(weight)."""
    game = Game(max(1, len(poly.coeffs) - 1), (poly,), (make_player(weight, [[0]]),))
    return potential(game, State((0,)))


class TestResourcePotential:
    def test_zero_cases(self):
        zero = CostPolynomial((Fraction(0), Fraction(0)))
        assert alone(zero, Fraction(5)) == 0
        linear = CostPolynomial((Fraction(0), Fraction(1)))
        assert kernel_phi(linear)(Fraction(0)) == 0

    def test_linear_at_two(self):
        linear = CostPolynomial((Fraction(0), Fraction(1)))
        assert alone(linear, Fraction(2)) == 6
        assert kernel_phi(linear)(Fraction(2)) == 6

    def test_constant_is_linear_in_load(self):
        const = CostPolynomial((Fraction(1),))
        assert alone(const, Fraction(5, 2)) == Fraction(5, 2)
        assert kernel_phi(const)(Fraction(5, 2)) == Fraction(5, 2)

    def test_matches_reference_implementation(self, rng):
        for _ in range(300):
            poly = random_polynomial(rng, rng.randint(1, 4))
            x = random_fraction(rng, 0, 6)
            assert kernel_phi(poly)(x) == reference.resource_potential(poly, x)
            if x:
                assert alone(poly, x) == reference.resource_potential(poly, x)


class TestAggregates:
    def test_single_resource_game(self, rng):
        game = random_game(rng, 2, 2, 1, max_size=1)
        s = random_state(rng, game)
        expected = reference.resource_potential(game.resources[0], loads(game, s)[0])
        assert potential(game, s) == expected

    def test_potential_matches_reference(self, rng):
        for _ in range(20):
            game = random_game(rng, 3, 2, 4)
            s = random_state(rng, game)
            assert potential(game, s) == reference.potential(game, s)

    def test_subgame_extremes(self, rng):
        # the potential at a group's loads alone: 0 for no one, Phi for all
        game = random_game(rng, 3, 2, 4)
        s = random_state(rng, game)
        ig = game.compiled
        assert ig.potential(ig.loads(s.choices, [])) == 0
        assert ig.potential_value(ig.potential(ig.loads(s.choices, range(3)))) == potential(game, s)

    def test_subgame_singleton(self, rng):
        for _ in range(10):
            game = random_game(rng, 3, 2, 4)
            s = random_state(rng, game)
            ig = game.compiled
            for u in range(3):
                w = game.players[u].weight
                expected = sum(
                    (
                        reference.resource_potential(game.resources[e], w)
                        for e in game.players[u].strategies[s.choices[u]]
                    ),
                    Fraction(0),
                )
                assert ig.potential_value(ig.potential(ig.loads(s.choices, [u]))) == expected

    def test_partial_extremes(self, rng):
        game = random_game(rng, 3, 2, 4)
        s = random_state(rng, game)
        assert partial_potential(game, s, range(3)) == potential(game, s)
        assert partial_potential(game, s, []) == 0


class TestSandwichProperties:
    def test_single_resource_sandwich(self, rng):
        # w*f(x+w) <= phi(x+w) - phi(x) <= (d+1)*w*f(x+w), for w >= 1
        for _ in range(500):
            d = rng.randint(1, 4)
            poly = random_polynomial(rng, d)
            x = random_fraction(rng, 0, 6)
            w = Fraction(1) + random_fraction(rng, 0, 4)
            phi = kernel_phi(poly)
            step = phi(x + w) - phi(x)
            lo = w * poly(x + w)
            assert lo <= step <= alpha(d) * lo

    def test_cost_revealing(self, rng):
        # C_R(s) <= partial potential of R <= (d+1) * C_R(s)
        for _ in range(30):
            d = rng.randint(1, 3)
            game = random_game(rng, 4, d, 5)
            s = random_state(rng, game)
            group = sorted(rng.sample(range(4), rng.randint(0, 4)))
            c = group_cost(game, s, group)
            part = partial_potential(game, s, group)
            assert c <= part <= alpha(d) * c

    def test_single_deviation_drop(self, rng):
        # states differing in one player u, any R containing u:
        # Phi_R(s) - Phi_R(s') >= C_u(s) - (d+1)*C_u(s')
        for _ in range(30):
            d = rng.randint(1, 3)
            game = random_game(rng, 4, d, 5)
            s = random_state(rng, game)
            u = rng.randrange(4)
            k = rng.randrange(len(game.players[u].strategies))
            s2 = with_choice(s, u, k)
            group = set(rng.sample(range(4), rng.randint(1, 4))) | {u}
            drop = partial_potential(game, s, group) - partial_potential(game, s2, group)
            assert drop >= player_costs(game, s)[u] - alpha(d) * player_costs(game, s2)[u]

    def test_alpha_improvement_decreases_potential(self, rng):
        # any move improving u by a factor > d+1 strictly lowers the potential
        found = 0
        for _ in range(300):
            d = rng.randint(1, 2)
            game = random_game(rng, 3, d, 4)
            s = random_state(rng, game)
            u = rng.randrange(3)
            for k in range(len(game.players[u].strategies)):
                s2 = with_choice(s, u, k)
                if player_costs(game, s)[u] > alpha(d) * player_costs(game, s2)[u]:
                    assert potential(game, s2) < potential(game, s)
                    found += 1
        assert found > 20  # the sample actually exercised the property
