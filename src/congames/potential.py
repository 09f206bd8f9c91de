"""Approximate potential for weighted polynomial congestion games.

For a resource with cost c(x) = sum_v a_v x^v the per-resource potential is

    phi(x) = a_0 * x + sum_{v=1..d} a_v * (x^(v+1) + (v+1)/2 * x^v)

a scaled Faulhaber-sum construction.  It is not an exact potential, but it
satisfies the sandwich

    w * c(x+w)  <=  phi(x+w) - phi(x)  <=  (d+1) * w * c(x+w)

for all x >= 0 and w >= 1, which makes the aggregate potential decrease
whenever a player improves her cost by more than a factor alpha = d + 1.
Group-restricted variants (subgame and partial potentials) support the
phase analysis of the solver.  Everything here is exact rational arithmetic:
phi is defined per polynomial here, and the game potentials are views of
the integer kernel (game.IntGame), scaled back to Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .errors import MalformedInstanceError
from .game import CostPolynomial, Game, State


def alpha(degree: int) -> int:
    """Approximation factor of the potential: alpha = d + 1.

    The single authoritative home for this constant; the solver and the
    auditors import it rather than recomputing.
    """
    return degree + 1


def potential_coefficients(poly: CostPolynomial) -> tuple[Fraction, ...]:
    """Coefficients, lowest first, of the potential phi of a cost
    polynomial (see the module docstring) as an ordinary polynomial in x.

    The x^k coefficient collects a_{k-1} (for k >= 2), a_k * (k+1)/2 and,
    for k = 1, the constant-cost term a_0.
    """
    a = poly.coeffs
    d = len(a) - 1
    b = [Fraction(0)] * (d + 2)
    b[1] += a[0]
    for v in range(1, d + 1):
        b[v + 1] += a[v]
        b[v] += a[v] * Fraction(v + 1, 2)
    return tuple(b)


def resource_potential(poly: CostPolynomial, x: Fraction) -> Fraction:
    """Evaluate the per-resource potential phi at load x (exact): its
    potential_coefficients as a CostPolynomial, evaluated by Horner's rule."""
    if x < 0:
        raise MalformedInstanceError(f"potential undefined for negative load {x}")
    return CostPolynomial(potential_coefficients(poly))(x)


def potential(game: Game, state: State) -> Fraction:
    """Global potential: sum of resource potentials at the state's loads."""
    return subgame_potential(game, state, range(game.n))


def subgame_potential(game: Game, state: State, players: Iterable[int]) -> Fraction:
    """Potential of the game restricted to a group: loads count only the
    group's weights."""
    ig = game.compiled
    return ig.potential_value(ig.potential(ig.loads(state.choices, players)))


def partial_potential(game: Game, state: State, players: Iterable[int]) -> Fraction:
    """Partial potential of a group: global potential minus the subgame
    potential of the complement.

    Cost-revealing for the group R: C_R(s) <= partial <= (d+1) * C_R(s).
    """
    ig = game.compiled
    return ig.potential_value(ig.partial_potential(state.choices, players))
