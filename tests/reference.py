"""From-scratch Fraction loads, player costs, best responses and potentials.

The package computes every load, cost and potential once, on the integer
game (game.IntGame); game.loads, game.player_costs, dynamics.best_response
and the potentials of potential.py are views of it.  The loops here compute
the same values directly from the Fraction game, and the tests use them as
the oracle for the kernel and its views.  They take only types from the
package: loads are summed here, and the potential phi is written here term
by term, straight off its definition.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from congames.game import CostPolynomial, Game, State


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
