"""Instance generators: the lower-bound family and seeded random games."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from congames import (
    gen_lower_bound,
    gen_random,
    min_equilibrium_factor,
    normalize,
    parse_instance,
    serialize_instance,
    social_cost,
)
from congames.errors import MalformedInstanceError
from congames.game import MAX_DEGREE
from congames.instances import SplitMix64, rational_root_below

import reference
from conftest import GOLDEN, SETTINGS, with_choice
from reference import reference_gen_random, reference_lower_bound_game


class TestRationalRoot:
    def test_brackets_true_root_from_below(self):
        for d, rho in ((1, Fraction(1)), (2, Fraction(3, 2)), (3, Fraction(2))):
            digits = 25
            r = rational_root_below(d, rho, digits)
            gap = Fraction(1, 10**digits)
            assert rho * (r + 1) ** d - r ** (d + 1) > 0          # below the root
            above = r + 2 * gap
            assert rho * (above + 1) ** d - above ** (d + 1) < 0  # and close to it

    def test_golden_ratio_value(self):
        r = rational_root_below(1, Fraction(1), 30)
        assert abs(float(r) - GOLDEN) < 1e-29 + 1e-15


class TestLowerBoundFamily:
    def test_small_instance_shape(self):
        bundle = gen_lower_bound(1, Fraction(1), 2, 30)
        game = bundle.game
        assert game.n == 2 and game.num_resources == 3
        weights = [float(p.weight) for p in game.players]
        assert weights == pytest.approx([1 / GOLDEN, 1 / GOLDEN**2], abs=1e-12)
        # constant resource ~ phi^3, then phi^4 * t and phi^6 * t
        assert float(game.resources[0].coeffs[0]) == pytest.approx(GOLDEN**3, abs=1e-9)
        assert float(game.resources[1].coeffs[1]) == pytest.approx(GOLDEN**4, abs=1e-9)
        assert float(game.resources[2].coeffs[1]) == pytest.approx(GOLDEN**6, abs=1e-9)
        for p in game.players:
            assert all(len(s) == 1 for s in p.strategies)

    def test_profile_costs_match_closed_forms(self):
        for d, rho, n in ((1, Fraction(1), 3), (2, Fraction(3, 2), 4)):
            bundle = gen_lower_bound(d, rho, n, 30)
            r = bundle.root_approx
            # both closed forms are exact in the rational approximation
            assert social_cost(bundle.game, bundle.equilibrium_state) == n * r ** (d + 1)
            assert (
                social_cost(bundle.game, bundle.optimal_state)
                == r ** (d + 1) / rho + n - 1
            )

    def test_equilibrium_factor_is_exactly_rho(self):
        for d, rho in ((1, Fraction(1)), (1, Fraction(3, 2)), (2, Fraction(2))):
            bundle = gen_lower_bound(d, rho, 4, 30)
            assert min_equilibrium_factor(bundle.game, bundle.equilibrium_state) == rho

    @SETTINGS
    @given(
        st.integers(1, 8),
        st.integers(1, 8).flatmap(lambda q: st.integers(q, 8 * q).map(lambda p: Fraction(p, q))),
        st.integers(10, 50),
        st.integers(1, 6),
    )
    @example(2, Fraction(3, 2), 40, 5)
    def test_improvement_ratios(self, d, rho, digits, n):
        """At the all-congested state player 0's stay/leave ratio is rho and
        every other player's lies in (rho*(1 - 10^-digits), rho].

        Player 0's ratio is c_1(w)/c_0 = r^(d+2) / (r^(d+2)/rho) = rho for
        every r.  Player u >= 1's telescopes to rho*g(r), with
        g(x) = x^(d+1) / (rho*(1+x)^d), and g(Phi) = 1 at the root Phi.
        g'(x) = g(x)*(x+d+1) / (x*(x+1)) > 0, so g(r) <= 1, as r <= Phi.
        By the mean value theorem 1 - g(r) = g'(xi)*(Phi - r) for some xi
        in (r, Phi); there g(xi) <= 1 and (xi+d+1) / (xi*(xi+1)) decreases
        in xi, so with 0 <= Phi - r <= 10^-digits
        1 - g(r) <= (r+d+1) / (r*(r+1)) * 10^-digits.  The factor is largest
        at d = 1, rho = 1, where it is about 0.854 (for every d up to
        MAX_DEGREE), so 1 - g(r) < 0.86 * 10^-digits."""
        bundle = gen_lower_bound(d, rho, n, digits)
        s = bundle.equilibrium_state
        stay = reference.player_costs(bundle.game, s)
        ratios = [
            stay[u] / reference.player_costs(bundle.game, with_choice(s, u, 0))[u]
            for u in range(n)
        ]
        assert ratios[0] == rho
        assert all(rho * (1 - Fraction(1, 10**digits)) < q <= rho for q in ratios[1:])
        assert min_equilibrium_factor(bundle.game, s) == rho

    def test_precision_floor(self):
        with pytest.raises(MalformedInstanceError):
            gen_lower_bound(1, Fraction(1), 2, 5)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("rho", [Fraction(1), Fraction(3, 2), Fraction(7, 3)])
    def test_matches_power_construction(self, d, rho):
        """The chained products equal a fresh power for every coefficient
        and weight."""
        for n in (1, 2, 5, 60):
            assert gen_lower_bound(d, rho, n, 30).game == reference_lower_bound_game(d, rho, n, 30)


class TestRandomGames:
    def test_seed_determinism(self):
        kwargs = dict(
            n=4, d=2, num_resources=6, strategies_per_player=3, max_strategy_size=3
        )
        a = gen_random(seed=123, **kwargs)
        b = gen_random(seed=123, **kwargs)
        c = gen_random(seed=124, **kwargs)
        assert serialize_instance(a) == serialize_instance(b)
        assert serialize_instance(a) != serialize_instance(c)

    def test_ranges_respected(self):
        lo_c, hi_c = Fraction(1, 4), Fraction(2)
        lo_w, hi_w = Fraction(1), Fraction(3)
        game = gen_random(
            5, 2, 6, 3, 2, coeff_range=(lo_c, hi_c), weight_range=(lo_w, hi_w), seed=9
        )
        for poly in game.resources:
            assert all(lo_c <= c <= hi_c for c in poly.coeffs)
        for p in game.players:
            assert lo_w <= p.weight <= hi_w

    def test_round_trip(self):
        for seed in range(10):
            game = gen_random(3, 1, 4, 2, 2, seed=seed)
            assert parse_instance(serialize_instance(game))[0] == normalize(game)

    def test_infeasible_parameters(self):
        with pytest.raises(MalformedInstanceError):
            gen_random(2, 1, 3, 2, max_strategy_size=4, seed=0)

    def test_more_strategies_than_distinct_subsets(self):
        # 2 resources make 2 subsets of size 1
        with pytest.raises(MalformedInstanceError, match="distinct subsets"):
            gen_random(n=3, d=1, num_resources=2, strategies_per_player=4, max_strategy_size=1,
                       seed=1)

    def test_repeated_draws_take_first_unused_subset(self):
        # at seed 10 all 8 draws for player 1's third strategy repeat one she
        # has; (2,) is the only subset she lacks, and player 0 is drawn as before
        game = gen_random(n=2, d=1, num_resources=3, strategies_per_player=3,
                          max_strategy_size=1, seed=10)
        assert [p.strategies for p in game.players] == [((1,), (0,), (2,))] * 2
        for seed in range(40):
            game = gen_random(n=4, d=1, num_resources=3, strategies_per_player=6,
                              max_strategy_size=2, seed=seed)
            assert all(len(set(p.strategies)) == 6 for p in game.players)

    @pytest.mark.parametrize("args", [
        (5, 2, 200, 3, 3),  # many more resources than a subset holds
        (4, 1, 3, 3, 3),  # subsets as large as the resources
        (6, 2, 5, 3, 5),
        (7, 1, 3, 7, 3),  # every subset taken: the first unused one, mostly
        (3, 3, 1, 1, 1),
    ])
    def test_matches_the_pool_draw(self, args):
        for seed in range(20):
            assert gen_random(*args, seed=seed) == reference_gen_random(*args, seed=seed)

    def test_matches_the_pool_draw_at_n2000(self):
        ranges = (Fraction(1, 4), Fraction(2)), (Fraction(1), Fraction(3))
        args = (2000, 2, 500, 3, 3, *ranges)
        assert gen_random(*args, seed=5) == reference_gen_random(*args, seed=5)

    @pytest.mark.parametrize("generate", [
        lambda d: gen_random(2, d, 3, 2, 2),
        lambda d: gen_lower_bound(d, Fraction(3, 2), 2, 20),
    ])
    def test_degree_above_the_limit(self, generate):
        # rejected before any coefficient or power of the root is computed
        for d in (10**20, MAX_DEGREE + 1):
            with pytest.raises(MalformedInstanceError, match=f"^degree {d} is above MAX_DEGREE"):
                generate(d)

    def test_splitmix_reference_values(self):
        # first outputs for seed 0 of the standard splitmix64 stream
        rng = SplitMix64(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF
        assert rng.next_u64() == 0x6E789E6AA1B965F4
