"""Approximate potential for weighted polynomial congestion games.

For a resource with cost c(x) = sum_v a_v x^v the per-resource potential is

    phi(x) = a_0 * x + sum_{v=1..d} a_v * (x^(v+1) + (v+1)/2 * x^v)

a scaled Faulhaber-sum construction.  It is not an exact potential, but it
satisfies the sandwich

    w * c(x+w)  <=  phi(x+w) - phi(x)  <=  (d+1) * w * c(x+w)

for all x >= 0 and w >= 1, which makes the aggregate potential decrease
whenever a player improves her cost by more than a factor alpha = d + 1.
The partial potential of a group supports the phase analysis of the
solver.  phi is written once, as the integer rows of game.IntGame.potentials;
the potentials here are views of that kernel, scaled back to exact
Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .game import Game, State


def alpha(degree: int) -> int:
    """Approximation factor of the potential: alpha = d + 1.

    The single authoritative home for this constant; the solver and the
    auditors import it rather than recomputing.
    """
    return degree + 1


def potential(game: Game, state: State) -> Fraction:
    """Global potential: sum of resource potentials at the state's loads."""
    ig = game.compiled
    return ig.potential_value(ig.potential(ig.loads(state.choices)))


def partial_potential(game: Game, state: State, players: Iterable[int]) -> Fraction:
    """Partial potential of a group: the global potential minus the
    potential of the complement's loads alone.

    Cost-revealing for the group R: C_R(s) <= partial <= (d+1) * C_R(s).
    """
    ig = game.compiled
    return ig.potential_value(ig.partial_potential(state.choices, players))
