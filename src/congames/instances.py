"""Instance generators: the tight lower-bound family and random games.

The lower-bound family has n players on n+1 chained resources.  With
r the unique positive root of rho*(x+1)^d = x^(d+1), player i carries
weight r^(-i), resource 1 costs a constant r^(d+2)/rho, and resource
j >= 2 costs r^((d+1)*j) * t^d.  Each player chooses between resource i
(the "optimal" slot) and resource i+1 (the "congested" slot).  At the
all-congested profile every player's best improvement factor is exactly
rho, while the social cost ratio against the all-optimal profile
approaches r^(d+1) as n grows.

Because the root is irrational it enters the instance only as a rational
approximation r, obtained by exact bisection and taken from BELOW the true
root; this one-sided choice keeps the all-congested profile an exact
rho-equilibrium.  Player 1's weight cancels against the constant resource,
so her improvement ratio is rho for every r, and each later player's
telescopes to rho*g(r) with g(r) = r^(d+1) / (rho*(1+r)^d), which is
increasing and 1 at the root, so it is at most rho and, by the mean value
theorem, short of rho by less than 10^(-digits) relative (the proof is in
tests/test_instances.py).

Random games use a splitmix-style 64-bit generator with fixed published
constants so identical seeds reproduce identical instances across
platforms and languages.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import MalformedInstanceError
from .game import CostPolynomial, Game, PlayerSpec, State, check_degree


def rational_root_below(d: int, rho: Fraction, digits: int) -> Fraction:
    """Rational lower approximation of the positive root of
    rho*(x+1)^d = x^(d+1), within 10^(-digits) of the root.

    Pure bisection in exact arithmetic; the returned value never exceeds
    the true root, so ratio-based equilibrium properties built from it
    err on the conservative side.
    """
    if d < 1 or rho < 1:
        raise MalformedInstanceError(f"need d >= 1 and rho >= 1, got d={d}, rho={rho}")

    def f(x: Fraction) -> Fraction:
        return rho * (x + 1) ** d - x ** (d + 1)

    lo = Fraction(1)
    hi = Fraction(2)
    while f(hi) > 0:
        hi *= 2
    width = Fraction(1, 10**digits)
    while hi - lo > width:
        mid = (lo + hi) / 2
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return lo


@dataclass(frozen=True)
class LowerBoundBundle:
    """A generated lower-bound instance with its two distinguished states.

    ``equilibrium_state`` puts player i on resource i+1 (strategy index 1
    everywhere); ``optimal_state`` puts player i on resource i (index 0).
    ``root_approx`` is the rational approximation of the generalized golden
    ratio the construction used.
    """

    game: Game
    equilibrium_state: State
    optimal_state: State
    root_approx: Fraction
    precision_digits: int


def gen_lower_bound(
    d: int, rho: Fraction, n: int, precision_digits: int
) -> LowerBoundBundle:
    """Build the n-player singleton lower-bound game for (d, rho).

    Weights are below 1 by construction, so weight normalization is
    deliberately skipped: the equilibrium and cost-ratio properties are
    scale-invariant and the verifier works on ratios only.  The
    improvement ratios need no check: player 1's is rho and every later
    player's lies in (rho*(1 - 10^(-digits)), rho] (see the module
    docstring).

    Raises MalformedInstanceError for a degree above game.MAX_DEGREE
    before any power of the root is taken.
    """
    check_degree(d)
    rho = Fraction(rho)
    if n < 1:
        raise MalformedInstanceError(f"need n >= 1, got {n}")
    if precision_digits < 10:
        raise MalformedInstanceError(
            f"need precision_digits >= 10, got {precision_digits}"
        )
    r = rational_root_below(d, rho, precision_digits)
    w = 1 / r

    # r^((d+1)*j) for j = 2..n+1 and w^i for i = 1..n, each the one before
    # times r^(d+1) or w: a product of Fractions in lowest terms is the power
    step = r ** (d + 1)
    chain = itertools.accumulate(itertools.repeat(step, n - 1), operator.mul, initial=step * step)
    weights = itertools.accumulate(itertools.repeat(w, n - 1), operator.mul, initial=w)
    zeros = (Fraction(0),) * d
    resources = [CostPolynomial((r ** (d + 2) / rho, *zeros))]
    resources += (CostPolynomial((*zeros, c)) for c in chain)

    players = tuple(
        PlayerSpec(weight=weight, strategies=((i - 1,), (i,)))
        for i, weight in enumerate(weights, start=1)
    )
    return LowerBoundBundle(
        game=Game(degree=d, resources=tuple(resources), players=players),
        equilibrium_state=State((1,) * n),
        optimal_state=State((0,) * n),
        root_approx=r,
        precision_digits=precision_digits,
    )


class SplitMix64:
    """Splitmix-style 64-bit PRNG (constants 0x9E3779B97F4A7C15,
    0xBF58476D1CE4E5B9, 0x94D049BB133111EB), chosen for trivially portable
    cross-language reproduction."""

    MASK = (1 << 64) - 1

    def __init__(self, seed: int) -> None:
        self.state = seed & self.MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & self.MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform-ish integer in [0, n); modulo bias is irrelevant at the
        tiny ranges used here and keeps the stream definition one-line."""
        return self.next_u64() % n


def _sample_fraction(rng: SplitMix64, lo: Fraction, hi: Fraction, q: int) -> Fraction:
    """A rational in [lo, hi] with denominator dividing q."""
    lo_k = -((-lo.numerator * q) // lo.denominator)  # ceil(lo * q)
    hi_k = (hi.numerator * q) // hi.denominator      # floor(hi * q)
    if hi_k < lo_k:
        raise MalformedInstanceError(f"range [{lo}, {hi}] too narrow for grid 1/{q}")
    return Fraction(lo_k + rng.below(hi_k - lo_k + 1), q)


def gen_random(
    n: int,
    d: int,
    num_resources: int,
    strategies_per_player: int,
    max_strategy_size: int,
    coeff_range: tuple[Fraction, Fraction] = (Fraction(0), Fraction(2)),
    weight_range: tuple[Fraction, Fraction] = (Fraction(1), Fraction(3)),
    seed: int = 0,
) -> Game:
    """Deterministic random game: same seed, same game, byte for byte.

    Coefficients and weights are rationals on the grid Z/4 clipped to the
    given ranges; every coefficient slot 0..d is sampled
    independently.  Strategies are distinct random resource subsets of size
    1..max_strategy_size; after 8 repeated draws, the first unused subset
    in (size, lexicographic) order.  A draw takes its size
    1 + below(max_strategy_size), then its resources one at a time: for
    k = 0, 1, ... it takes j = below(num_resources - k) and picks the j-th
    (from 0) of the resources not yet picked, in increasing index order.
    A degree above game.MAX_DEGREE is rejected before anything is drawn.
    """
    check_degree(d)
    if n < 1 or d < 1 or num_resources < 1 or strategies_per_player < 1:
        raise MalformedInstanceError("all sizes must be positive")
    if not 1 <= max_strategy_size <= num_resources:
        raise MalformedInstanceError(
            f"max_strategy_size {max_strategy_size} not in [1, {num_resources}]"
        )
    subsets = sum(math.comb(num_resources, k) for k in range(1, max_strategy_size + 1))
    if strategies_per_player > subsets:
        raise MalformedInstanceError(
            f"{strategies_per_player} strategies per player exceed the {subsets} distinct subsets"
        )
    lo_c, hi_c = Fraction(coeff_range[0]), Fraction(coeff_range[1])
    lo_w, hi_w = Fraction(weight_range[0]), Fraction(weight_range[1])
    if lo_c < 0 or lo_w <= 0:
        raise MalformedInstanceError("coefficients must be >= 0 and weights > 0")
    rng = SplitMix64(seed)

    resources = tuple(
        CostPolynomial(
            tuple(_sample_fraction(rng, lo_c, hi_c, 4) for _ in range(d + 1))
        )
        for _ in range(num_resources)
    )

    players = []
    for _ in range(n):
        weight = _sample_fraction(rng, lo_w, hi_w, 4)
        strategies: list[tuple[int, ...]] = []
        for _ in range(strategies_per_player):
            for _attempt in range(8):
                size = 1 + rng.below(max_strategy_size)
                picked: list[int] = []  # increasing
                for k in range(size):
                    e = rng.below(num_resources - k)
                    for f in picked:  # step past each picked index up to e
                        if f > e:
                            break
                        e += 1
                    bisect.insort(picked, e)
                strat = tuple(picked)
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
