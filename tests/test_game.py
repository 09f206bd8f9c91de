"""Game representation: parsing, normalization, loads and costs."""

from __future__ import annotations

from fractions import Fraction

import pytest

from congames import (
    CostPolynomial,
    Game,
    PlayerSpec,
    State,
    gen_lower_bound,
    group_cost,
    loads,
    make_player,
    normalize,
    parse_instance,
    player_costs,
    serialize_instance,
    social_cost,
)
from congames.errors import (
    DegreeMismatchError,
    EmptyStrategyError,
    MalformedInstanceError,
    NegativeCoefficientError,
    ResourceIndexError,
)
from congames.codec import parse_rational
from congames.game import MAX_DEGREE

from conftest import GOLDEN, MINIMAL, random_game, random_state, with_choice
from reference import reference_states


class TestParsing:
    def test_minimal_instance(self):
        game = parse_instance(MINIMAL)[0]
        assert game.n == 1
        assert game.degree == 1
        assert game.players[0].strategies == ((0,),)

    def test_negative_coefficient(self):
        bad = MINIMAL.replace('"0", "1"', '"-1/2", "1"')
        with pytest.raises(NegativeCoefficientError):
            parse_instance(bad)

    def test_unknown_key_rejected(self):
        bad = MINIMAL.replace('"degree": 1,', '"degree": 1, "comment": "hi",')
        with pytest.raises(MalformedInstanceError):
            parse_instance(bad)

    def test_decimal_rational_rejected(self):
        with pytest.raises(MalformedInstanceError):
            parse_instance(MINIMAL.replace('"weight": "1"', '"weight": "1.5"'))

    def test_zero_denominator_rejected(self):
        with pytest.raises(MalformedInstanceError):
            parse_rational("3/0")

    def test_empty_strategy(self):
        with pytest.raises(EmptyStrategyError):
            parse_instance(MINIMAL.replace("[[0]]", "[[]]"))

    def test_out_of_range_resource(self):
        with pytest.raises(ResourceIndexError):
            parse_instance(MINIMAL.replace("[[0]]", "[[3]]"))

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatchError):
            parse_instance(MINIMAL.replace('["0", "1"]', '["0", "1", "0"]'))

    def test_duplicate_resource_in_strategy(self):
        two = MINIMAL.replace('[[0]]', '[[0, 0]]')
        with pytest.raises(MalformedInstanceError):
            parse_instance(two)

    @pytest.mark.parametrize("degree", [10**20, MAX_DEGREE + 1])
    def test_degree_above_the_limit(self, degree):
        # rejected before any coefficient is padded to degree + 1 entries
        with pytest.raises(MalformedInstanceError, match="above MAX_DEGREE"):
            parse_instance(MINIMAL.replace('"degree": 1', f'"degree": {degree}'))

    @pytest.mark.parametrize("strategies", ["5", '"[[0]]"', "{}", "null"])
    def test_strategies_not_a_list(self, strategies):
        # a shape error, not an empty strategy list
        with pytest.raises(MalformedInstanceError, match="^player 0: 'strategies' must be a list$"):
            parse_instance(MINIMAL.replace("[[0]]", strategies))

    @pytest.mark.parametrize("edit, error, message", [
        (('"degree": 1', '"degree": 0'), MalformedInstanceError, "degree must be >= 1, got 0"),
        (('["0", "1"]', '["0", "1", "0"]'), DegreeMismatchError,
         "resource 0: 3 coefficients exceed degree 1"),
        (('["0", "1"]} ]', '["0", "1"]}, {"coeffs": ["1", "0", "2"]} ]'), DegreeMismatchError,
         "resource 1: 3 coefficients exceed degree 1"),
        (('["0", "1"]', "[]"), MalformedInstanceError,
         "resource 0: cost polynomial needs >= 1 coefficient"),
        (("[[0]]", "[]"), EmptyStrategyError, "player 0: player has no strategies"),
        (("[[0]]", "[[0, 0]]"), MalformedInstanceError,
         r"player 0: duplicate resource in strategy \(0, 0\)"),
        (('"weight": "1"', '"weight": "-1"'), MalformedInstanceError,
         "player 0: weight must be positive, got -1"),
        (("[[0]]", "[[1]]"), ResourceIndexError, "player 0: resource index 1 out of range"),
        (('["0", "1"]} ]', '["0", "1"]}, {"coeffs": ["1", "-1"]} ]'), NegativeCoefficientError,
         "resource 1: negative coefficient -1"),
        (("[[0]]} ]", '[[0]]}, {"weight": "1", "strategies": [[0], []]} ]'), EmptyStrategyError,
         "player 1: empty strategy"),
    ])
    def test_values_are_judged_by_the_constructors(self, edit, error, message):
        # with the constructors' own messages, as for a library caller, each
        # prefixed with the index of the resource or player at fault
        with pytest.raises(error, match=f"^{message}$"):
            parse_instance(MINIMAL.replace(*edit))

    def test_malformed_json(self):
        with pytest.raises(MalformedInstanceError):
            parse_instance("{not json")

    def test_initial_state_parsed_and_validated(self):
        good = MINIMAL.replace(
            '"players"', '"initial_state": [0], "players"'
        )
        game, state = parse_instance(good)
        assert state == State((0,))
        bad = MINIMAL.replace('"players"', '"initial_state": [2], "players"')
        with pytest.raises(MalformedInstanceError):
            parse_instance(bad)

    def test_lower_bound_round_trip_is_identity(self):
        game = normalize(gen_lower_bound(1, Fraction(1), 2, 30).game)
        text = serialize_instance(game)
        reparsed = parse_instance(text)[0]
        assert reparsed == game
        assert serialize_instance(reparsed) == text

    def test_random_games_round_trip(self, rng):
        for _ in range(25):
            game = random_game(rng, rng.randint(1, 4), rng.randint(1, 3), 5)
            assert parse_instance(serialize_instance(game))[0] == normalize(game)


class TestConstructionChecks:
    """The checks CostPolynomial, PlayerSpec and Game make when built,
    whatever builds them, with their exact messages."""

    @pytest.mark.parametrize("weight", [Fraction(0), Fraction(-1, 2)])
    def test_weight_must_be_positive(self, weight):
        with pytest.raises(MalformedInstanceError, match=f"^weight must be positive, got {weight}$"):
            PlayerSpec(weight, ((0,),))

    @pytest.mark.parametrize("strategy, error, message", [
        ((), EmptyStrategyError, "empty strategy"),
        ((0, 0), MalformedInstanceError, r"duplicate resource in strategy \(0, 0\)"),
        ((2, 1, 2), MalformedInstanceError, r"duplicate resource in strategy \(2, 1, 2\)"),
        ((1, 0), MalformedInstanceError, "strategy not in canonical sorted order"),
    ])
    def test_strategy_checks(self, strategy, error, message):
        PlayerSpec(Fraction(1), ((0, 1, 2),))
        with pytest.raises(error, match=f"^{message}$"):
            PlayerSpec(Fraction(1), ((0,), strategy))

    def test_negative_coefficient(self):
        assert CostPolynomial((Fraction(0), Fraction(1, 2))).coeffs[0] == 0
        with pytest.raises(NegativeCoefficientError, match="^negative coefficient -1/2$"):
            CostPolynomial((Fraction(1), Fraction(-1, 2)))

    @pytest.mark.parametrize("strategy, bad", [((-1,), -1), ((0, 2), 2), ((-2, 0, 5), -2), ((3,), 3)])
    def test_resource_index_range(self, strategy, bad):
        resources = (CostPolynomial((Fraction(1),)),) * 2
        Game(1, resources, (make_player(Fraction(1), [[0, 1]]),))
        players = (make_player(Fraction(1), [[0]]), PlayerSpec(Fraction(1), ((0,), strategy)))
        with pytest.raises(ResourceIndexError, match=f"^player 1: resource index {bad} out of range$"):
            Game(1, resources, players)

    @pytest.mark.parametrize("strategies, error", [
        ("[[-1]]", ResourceIndexError),
        ("[[1]]", ResourceIndexError),
        ("[[0], [1, 0, 1]]", MalformedInstanceError),
        ("[[true]]", MalformedInstanceError),  # a bool is an int to isinstance
        ("[[0], [0, true]]", MalformedInstanceError),
    ])
    def test_parse_index_checks(self, strategies, error):
        with pytest.raises(error):
            parse_instance(MINIMAL.replace("[[0]]", strategies))

    def test_make_player_rejects_a_duplicate_resource(self):
        assert make_player(Fraction(1), [[2, 0], [1]]).strategies == ((0, 2), (1,))
        with pytest.raises(MalformedInstanceError, match=r"^duplicate resource in strategy \(0, 1, 1\)$"):
            make_player(Fraction(1), [[0], [1, 0, 1]])

    def test_weights_at_one_are_normalized(self):
        resources = (CostPolynomial((Fraction(1),)),)
        at_one = Game(1, resources, (make_player(Fraction(1), [[0]]),) * 2)
        assert at_one.is_normalized and normalize(at_one) is at_one
        players = (make_player(Fraction(1), [[0]]), make_player(Fraction(7, 8), [[0]]))
        below = Game(1, resources, players)
        assert not below.is_normalized
        assert [p.weight for p in normalize(below).players] == [Fraction(8, 7), Fraction(1)]

    @pytest.mark.parametrize("degree", [10**20, MAX_DEGREE + 1])
    def test_degree_above_the_limit(self, degree):
        # rejected before any coefficient is padded to degree + 1 entries
        resources = (CostPolynomial((Fraction(1),)),)
        Game(MAX_DEGREE, resources, (make_player(Fraction(1), [[0]]),))
        with pytest.raises(MalformedInstanceError,
                           match=f"^degree {degree} is above MAX_DEGREE = {MAX_DEGREE}$"):
            Game(degree, resources, (make_player(Fraction(1), [[0]]),))

    def test_padding_keeps_a_full_polynomial(self):
        poly = CostPolynomial((Fraction(1), Fraction(2)))
        assert poly.padded(1) is poly
        assert poly.padded(3).coeffs == (Fraction(1), Fraction(2), Fraction(0), Fraction(0))
        with pytest.raises(DegreeMismatchError):
            poly.padded(0)


class TestNormalize:
    def test_identity_when_already_normalized(self, rng):
        game = random_game(rng, 3, 2, 4)
        assert normalize(game) is game

    def test_scaling_rule(self):
        game = Game(
            degree=1,
            resources=(CostPolynomial((Fraction(0), Fraction(1))),),
            players=(
                make_player(Fraction(1, 2), [[0]]),
                make_player(Fraction(1), [[0]]),
            ),
        )
        scaled = normalize(game)
        assert [p.weight for p in scaled.players] == [Fraction(1), Fraction(2)]
        assert scaled.resources[0].coeffs == (Fraction(0), Fraction(1, 2))
        # every cost is scaled by the same 1/w_min, so ratios are intact
        s = State((0, 0))
        for u in range(2):
            assert player_costs(scaled, s)[u] == 2 * player_costs(game, s)[u]

    def test_move_indicators_unchanged(self, rng):
        for trial in range(10):
            game = random_game(rng, 3, 2, 4)
            # shrink one weight below 1 so normalization is not the identity
            players = list(game.players)
            players[trial % 3] = make_player(
                players[trial % 3].weight / 7, players[trial % 3].strategies
            )
            game = Game(game.degree, game.resources, tuple(players))
            scaled = normalize(game)
            assert scaled is not game
            for rho in (Fraction(1), Fraction(3, 2), Fraction(2)):
                for s in reference_states(game, 10**6):
                    for u in range(game.n):
                        for k in range(len(game.players[u].strategies)):
                            dev = with_choice(s, u, k)
                            before = player_costs(game, s)[u] > rho * player_costs(game, dev)[u]
                            after = player_costs(scaled, s)[u] > rho * player_costs(scaled, dev)[u]
                            assert before == after


class TestLoadsAndCosts:
    def test_load_basics(self):
        game = Game(
            degree=1,
            resources=(
                CostPolynomial((Fraction(0), Fraction(1))),
                CostPolynomial((Fraction(1),)),
            ),
            players=(
                make_player(Fraction(1), [[0]]),
                make_player(Fraction(3, 2), [[0], [1]]),
            ),
        )
        both_on_0 = State((0, 0))
        assert loads(game, both_on_0)[0] == Fraction(5, 2)
        assert loads(game, both_on_0)[1] == 0
        ig = game.compiled  # group loads are the kernel's, scaled by W = 2
        assert ig.loads(both_on_0.choices, [])[0] == 0
        assert Fraction(ig.loads(both_on_0.choices, [0, 1])[0], ig.W) == loads(game, both_on_0)[0]

    def test_complement_additivity(self, rng):
        for _ in range(20):
            game = random_game(rng, 4, 2, 5)
            s = random_state(rng, game)
            group = [u for u in range(4) if rng.random() < 0.5]
            rest = [u for u in range(4) if u not in group]
            ig = game.compiled
            for e in range(game.num_resources):
                total = ig.loads(s.choices, group)[e] + ig.loads(s.choices, rest)[e]
                assert Fraction(total, ig.W) == loads(game, s)[e]

    def test_single_player_square_cost(self):
        game = Game(
            degree=2,
            resources=(CostPolynomial((Fraction(0), Fraction(0), Fraction(1))),),
            players=(make_player(Fraction(1), [[0]]),),
        )
        assert player_costs(game, State((0,)))[0] == 1

    def test_cost_aggregation(self, rng):
        for _ in range(20):
            game = random_game(rng, 4, 2, 5)
            s = random_state(rng, game)
            group = sorted(rng.sample(range(4), rng.randint(0, 4)))
            assert group_cost(game, s, group) == sum(
                (player_costs(game, s)[u] for u in group), Fraction(0)
            )
            assert social_cost(game, s) == sum(player_costs(game, s), Fraction(0))

    def test_group_cost_empty(self, rng):
        game = random_game(rng, 3, 1, 4)
        assert group_cost(game, random_state(rng, game), []) == 0

    def test_lower_bound_profile_costs(self):
        bundle = gen_lower_bound(1, Fraction(1), 3, 30)
        r = bundle.root_approx
        s = bundle.equilibrium_state
        # every player pays exactly r^(d+1) at the congested profile
        for u in range(3):
            assert player_costs(bundle.game, s)[u] == r**2
        assert group_cost(bundle.game, s, range(3)) == 3 * r**2
        assert abs(float(r**2) - GOLDEN**2) < 1e-12

    def test_monotonicity_of_polynomials(self, rng):
        from conftest import random_fraction, random_polynomial

        for _ in range(200):
            poly = random_polynomial(rng, rng.randint(1, 4))
            x = random_fraction(rng, 0, 5)
            y = x + random_fraction(rng, 0, 5)
            assert poly(x) <= poly(y)
