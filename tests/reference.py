"""From-scratch Fraction player costs, best responses and potentials.

The package computes every cost and potential once, on the integer game
(game.IntGame); game.player_costs, dynamics.best_response and the
potentials of potential.py are views of it.  The loops here compute the
same values directly from the Fraction game, on Fraction loads, and the
tests use them as the oracle for the kernel and its views.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from congames.game import Game, State, group_loads, loads
from congames.potential import resource_potential


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


def potential(game: Game, state: State) -> Fraction:
    """Global potential: sum of resource potentials at the state's loads."""
    return subgame_potential(game, state, range(game.n))


def subgame_potential(game: Game, state: State, players: Iterable[int]) -> Fraction:
    """Potential of the game restricted to a group: loads count only the
    group's weights."""
    x = group_loads(game, state, players)
    return sum(
        (resource_potential(poly, x[e]) for e, poly in enumerate(game.resources)),
        Fraction(0),
    )


def partial_potential(game: Game, state: State, players: Iterable[int]) -> Fraction:
    """Global potential minus the subgame potential of the complement."""
    group = set(players)
    complement = [u for u in range(game.n) if u not in group]
    return potential(game, state) - subgame_potential(game, state, complement)
