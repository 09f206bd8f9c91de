"""Best responses, schedules, and the phased solver."""

from __future__ import annotations

import io
import json
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from congames import (
    CostPolynomial,
    Game,
    State,
    best_response,
    compute_schedule,
    gen_lower_bound,
    gen_random,
    make_player,
    min_equilibrium_factor,
    normalize,
    player_costs,
    run_algorithm,
    serialize_instance,
    target_p,
)
from congames import dynamics, verify
from congames.cli import main
from congames import game as game_module
from congames.dynamics import (
    ALPHA_MOVE,
    P_MOVE,
    IncrementalScan,
    IntState,
    Schedule,
    _ceil_log2,
    read_trace,
    write_trace,
)
from congames.errors import (
    AlreadyZeroError,
    MalformedInstanceError,
    MalformedTraceError,
    MoveBudgetExceededError,
    ZeroMinCostError,
)
from congames.game import IntGame
from congames.potential import alpha
from congames.verify import audit_trace

from conftest import (
    SETTINGS,
    crafted_p_move_game,
    random_game,
    random_state,
    single_player_game,
    with_choice,
)
from reference import reference_first_eligible_move


class TestBestResponse:
    def test_single_strategy_player(self):
        game = single_player_game()
        assert best_response(game, State((0,)), 0) == (0, Fraction(1))

    def test_tie_breaks_to_lowest_index(self):
        game = Game(
            degree=1,
            resources=(
                CostPolynomial((Fraction(0), Fraction(1))),
                CostPolynomial((Fraction(0), Fraction(1))),
            ),
            players=(make_player(Fraction(1), [[1], [0]]),),
        )
        idx, cost = best_response(game, State((1,)), 0)
        assert (idx, cost) == (0, Fraction(1))

    def test_matches_exhaustive_evaluation(self, rng):
        for _ in range(40):
            game = random_game(rng, 3, 2, 5)
            s = random_state(rng, game)
            for u in range(3):
                idx, cost = best_response(game, s, u)
                brute = min(
                    player_costs(game, with_choice(s, u, k))[u]
                    for k in range(len(game.players[u].strategies))
                )
                assert cost == brute
                assert player_costs(game, with_choice(s, u, idx))[u] == cost


class TestRhoMove:
    """Player u has a rho-move, a strategy improving her cost by a factor
    greater than rho, exactly when min_equilibrium_factor(game, s, [u])
    exceeds rho."""

    def test_none_at_best_response(self):
        game = single_player_game()
        assert min_equilibrium_factor(game, State((0,)), [0]) == 1

    def test_strictness_at_exact_ratio(self):
        # two strategies with exact cost ratio 2: no 2-move, but a 3/2-move
        game = Game(
            degree=1,
            resources=(
                CostPolynomial((Fraction(2),)),
                CostPolynomial((Fraction(1),)),
            ),
            players=(make_player(Fraction(1), [[0], [1]]),),
        )
        s = State((0,))
        assert min_equilibrium_factor(game, s, [0]) == 2
        assert best_response(game, s, 0)[0] == 1

    def test_lower_bound_profile_is_tight(self):
        for rho in (Fraction(1), Fraction(3, 2)):
            bundle = gen_lower_bound(1, rho, 3, 30)
            s = bundle.equilibrium_state
            for u in range(3):
                factor = min_equilibrium_factor(bundle.game, s, [u])
                assert rho - Fraction(1, 100) < factor <= rho


class TestComputeSchedule:
    @settings(SETTINGS, max_examples=100)
    @given(st.integers(1, 2**200), st.integers(1, 2**200))
    @example(1, 1)
    @example(2**64, 1)
    @example(2**64 + 1, 1)
    @example(6, 3)
    @example(7, 3)
    def test_ceil_log2_is_the_smallest_exponent(self, a, b):
        k = _ceil_log2(a, b)
        assert k >= 0 and b * 2**k >= a
        assert k == 0 or b * 2 ** (k - 1) < a

    def test_target_p_values(self):
        assert target_p(1) == 160
        assert target_p(2) == 10752
        assert alpha(3) == 4

    def test_single_player_unit_game(self):
        game = single_player_game()
        sched = compute_schedule(game, State((0,)))
        assert sched.c_max == 1 == sched.c_min
        assert sched.m == 1
        assert sched.p == 160
        assert sched.boundaries[0] == sched.c_max
        assert sched.boundaries[1] == Fraction(1, sched.g)
        assert sched.boundaries[sched.m] <= sched.c_min

    def test_boundaries_are_geometric(self, rng):
        game = random_game(rng, 3, 2, 4, positive_costs=True)
        sched = compute_schedule(game, State((0, 0, 0)))
        for i in range(sched.m):
            assert sched.boundaries[i + 1] * sched.g == sched.boundaries[i]
        assert sched.boundaries[sched.m] <= sched.c_min

    def test_already_zero(self):
        game = Game(
            degree=1,
            resources=(CostPolynomial((Fraction(0), Fraction(1))), CostPolynomial((Fraction(1),))),
            players=(make_player(Fraction(1), [[0], [1]]),),
        )
        # zero-cost resource used at s_init, but c_min positive overall?
        # here strategy {0} costs 0 only if load-independent... c(x)=x gives 1.
        # craft true zero: zero polynomial resource
        zero_game = Game(
            degree=1,
            resources=(CostPolynomial((Fraction(0), Fraction(0))), CostPolynomial((Fraction(1),))),
            players=(make_player(Fraction(1), [[0], [1]]),),
        )
        with pytest.raises(AlreadyZeroError):
            compute_schedule(zero_game, State((0,)))

    def test_zero_min_cost(self):
        game = Game(
            degree=1,
            resources=(CostPolynomial((Fraction(0), Fraction(0))), CostPolynomial((Fraction(1),))),
            players=(make_player(Fraction(1), [[0], [1]]),),
        )
        with pytest.raises(ZeroMinCostError):
            compute_schedule(game, State((1,)))

    def test_requires_normalized_weights(self):
        # the potential's approximation property breaks below weight 1
        game = Game(
            degree=1,
            resources=(CostPolynomial((Fraction(0), Fraction(1))),),
            players=(make_player(Fraction(1, 3), [[0]]),),
        )
        with pytest.raises(MalformedInstanceError):
            compute_schedule(game, State((0,)))

    def test_classify_boundaries_are_inclusive(self):
        game, s0 = crafted_p_move_game()
        sched = compute_schedule(game, s0, p_override=4)
        b = sched.boundaries
        below = Fraction(1, 10**6)
        alpha_rule = (sched.alpha_threshold, ALPHA_MOVE)
        phase0, phase1 = (sched.rule(phase, b, frozenset()) for phase in (0, 1))
        assert phase0(0, b[1]) == alpha_rule
        assert phase0(0, b[1] - below * b[1]) is None
        assert phase1(0, b[1]) == (Fraction(4), P_MOVE)
        assert phase1(0, b[1] - below * b[1]) == alpha_rule
        assert phase1(0, b[2]) == alpha_rule
        assert phase1(0, b[2] - below * b[2]) is None


def _two_escapees() -> tuple[Game, State]:
    """Players 0 and 1 each sit on a resource of constant cost 100 and can
    escape to an empty linear one of cost 1: a factor of 100, past the
    alpha-move factor 2 + 1/p and the p-move factor p = 3."""
    res = tuple(
        CostPolynomial(coeffs)
        for coeffs in [(Fraction(100),), (Fraction(0), Fraction(1))] * 2
    )
    players = (make_player(Fraction(1), [[0], [1]]), make_player(Fraction(1), [[2], [3]]))
    return Game(degree=1, resources=res, players=players), State((0, 0))


class TestScan:
    @pytest.mark.parametrize("phase, move_class", [(0, ALPHA_MOVE), (1, P_MOVE)])
    def test_fixed_players_are_skipped(self, phase, move_class):
        """Both scans pass over a fixed player who could move, to the next
        eligible one or to None."""
        game, s0 = _two_escapees()
        schedule = compute_schedule(game, s0, p_override=3)
        ig = game.compiled
        bounds = [ig.cost_ceil(b) for b in schedule.boundaries]
        state = IntState(ig, s0.choices)
        costs = ig.player_costs(s0.choices, state.rcosts)
        scan = IncrementalScan(ig, s0.choices)
        for fixed, mover in ((set(), 0), ({0}, 1), ({1}, 0), ({0, 1}, None)):
            rule = schedule.rule(phase, bounds, fixed)
            scan.start(rule)  # the same scan, re-classified from its cache
            for found in (reference_first_eligible_move(state, costs, rule), scan.next_move()):
                if mover is None:
                    assert found is None
                else:
                    assert found is not None
                    assert (found[0], found[1], found[4]) == (mover, 1, move_class)
                    assert ig.cost_value(found[2]) == 100 and ig.cost_value(found[3]) == 1


class TestRunAlgorithm:
    def test_zero_cost_initial_state_returns_immediately(self):
        game = Game(
            degree=1,
            resources=(CostPolynomial((Fraction(0), Fraction(0))), CostPolynomial((Fraction(1),))),
            players=(make_player(Fraction(1), [[0], [1]]),),
        )
        final, trace = run_algorithm(game, State((0,)))
        assert final == State((0,))
        assert trace.schedule is None and trace.moves == ()

    def test_settled_initial_state_makes_no_moves(self):
        game = Game(
            degree=1,
            resources=(
                CostPolynomial((Fraction(0), Fraction(1))),
                CostPolynomial((Fraction(0), Fraction(1))),
            ),
            players=(
                make_player(Fraction(1), [[0], [1]]),
                make_player(Fraction(1), [[1], [0]]),
            ),
        )
        s = State((0, 0))  # players on disjoint resources, both at cost 1
        assert min_equilibrium_factor(game, s) == 1
        final, trace = run_algorithm(game, s)
        assert final == s
        assert trace.moves == ()
        assert set().union(*trace.fixed_sets) == {0, 1}

    def test_single_player_moves_at_most_once(self):
        game = Game(
            degree=1,
            resources=(
                CostPolynomial((Fraction(5),)),
                CostPolynomial((Fraction(1),)),
            ),
            players=(make_player(Fraction(1), [[0], [1]]),),
        )
        final, trace = run_algorithm(game, State((0,)))
        assert final == State((1,))
        assert len(trace.moves) == 1
        assert trace.moves[0].move_class == ALPHA_MOVE

    def test_every_move_improves_beyond_threshold(self, rng):
        for seed in range(15):
            game = random_game(rng, 4, 1, 5, positive_costs=True)
            s0 = random_state(rng, game)
            final, trace = run_algorithm(game, s0)
            if trace.schedule is None:
                continue
            thr = trace.schedule.alpha_threshold
            for mv in trace.moves:
                min_thr = Fraction(trace.schedule.p) if mv.move_class == P_MOVE else thr
                assert mv.cost_before > min_thr * mv.cost_after
                assert mv.potential_after < mv.potential_before
                drop_floor = mv.cost_before / (trace.schedule.alpha * trace.schedule.p + 1)
                assert mv.potential_before - mv.potential_after >= drop_floor

    def test_fixed_players_never_move_again(self, rng):
        game, s0 = crafted_p_move_game()
        final, trace = run_algorithm(game, s0, p_override=4)
        seen_fixed: set[int] = set()
        phase_of_fix = {}
        for i, fs in enumerate(trace.fixed_sets):
            for u in fs:
                phase_of_fix[u] = i
        for mv in trace.moves:
            assert mv.player not in seen_fixed
            if mv.phase in phase_of_fix.values():
                pass
        # reconstruct chronology: any move in phase j must involve players
        # fixed no earlier than j
        for mv in trace.moves:
            assert phase_of_fix[mv.player] >= mv.phase
        assert set(phase_of_fix) == set(range(game.n))

    def test_final_state_meets_guarantee(self, rng):
        for _ in range(15):
            game = random_game(rng, 4, 2, 5, positive_costs=True)
            s0 = random_state(rng, game)
            final, trace = run_algorithm(game, s0)
            assert trace.schedule is not None
            assert min_equilibrium_factor(game, final) <= trace.schedule.final_factor_ceiling

    def test_crafted_instance_produces_p_move(self):
        game, s0 = crafted_p_move_game()
        final, trace = run_algorithm(game, s0, p_override=4)
        assert trace.schedule is not None and not trace.schedule.exact_constants
        classes = [mv.move_class for mv in trace.moves]
        assert P_MOVE in classes
        p_moves = [mv for mv in trace.moves if mv.move_class == P_MOVE]
        assert all(mv.cost_before > 4 * mv.cost_after for mv in p_moves)
        # the heavy player escapes during a main phase, not phase 0
        assert all(mv.phase >= 1 for mv in p_moves)

    def test_best_response_count_at_n2000(self, monkeypatch):
        """The solver re-derives only the players a move concerns: on this
        n = 2000 game it makes 23,640 best-response calls, where a scan
        from scratch after every move makes 481,504, and 18,037 player-cost
        calls, where re-deriving the cost of every player with a strategy
        on a changed resource makes 49,444.  The auditor updates
        only the resources a move changes and builds a scan from scratch
        once per phase end after a move: 38,310 polynomial evaluations, 6
        load computations and one potential, its replay's (a scan that
        computes the potential it never reads makes 38,810 and 2), where a
        replay with loads and potential from scratch after every move
        makes 329,917 evaluations and 547 load computations.  It makes 4,000
        best-response calls: 2,000 at the phase-0 end, none at the
        phase-1 end, where no move came between and the scan's cached
        answers stand (a scan per phase end makes 2,000 more), and 2,000
        for the final factor.  Neither calls a Fraction view of the kernel
        (game.loads, game.player_costs, dynamics.best_response,
        potential.potential or potential.partial_potential), by any
        module's name for it."""
        game = normalize(gen_random(
            n=2000, d=2, num_resources=500, strategies_per_player=3, max_strategy_size=3,
            coeff_range=(Fraction(1, 4), Fraction(2)), weight_range=(Fraction(1), Fraction(3)),
            seed=5,
        ))
        counts = dict.fromkeys(["best_response", "player_cost", "_horner", "loads", "potential",
                                "audit_best_response", "views"], 0)

        def counting(name, fn):
            def call(*args):
                counts[name] += 1
                return fn(*args)
            return call

        views = {"loads", "player_costs", "best_response", "potential", "partial_potential"}
        with monkeypatch.context() as outer:
            for name, module in list(sys.modules.items()):
                if name.startswith("congames."):
                    for view in views & vars(module).keys():
                        outer.setattr(module, view, counting("views", getattr(module, view)))
            with monkeypatch.context() as patch:
                kernel = counting("best_response", IntGame.best_response)
                patch.setattr(IntGame, "best_response", kernel)
                patch.setattr(IntGame, "player_cost", counting("player_cost", IntGame.player_cost))
                _, trace = run_algorithm(game, State((0,) * game.n))
            assert len(trace.moves) == 540
            assert counts["best_response"] <= 100_000
            assert counts["player_cost"] == 18_037, counts
            with monkeypatch.context() as patch:
                horner = counting("_horner", game_module._horner)  # one wrapper, counted once
                for module in (game_module, dynamics, verify):
                    patch.setattr(module, "_horner", horner)
                patch.setattr(IntGame, "loads", counting("loads", IntGame.loads))
                patch.setattr(IntGame, "potential", counting("potential", IntGame.potential))
                patch.setattr(IntGame, "best_response",
                              counting("audit_best_response", IntGame.best_response))
                report = audit_trace(game, trace)
        assert report.passed, report.failures
        assert counts["_horner"] <= 75_000 and counts["loads"] <= 10, counts
        assert (counts["_horner"], counts["potential"]) == (38_310, 1), counts
        assert counts["audit_best_response"] == 4_000, counts
        assert counts["views"] == 0, counts

    def test_trace_round_trip(self):
        game, s0 = crafted_p_move_game()
        _, trace = run_algorithm(game, s0, p_override=4)
        buf = io.StringIO()
        write_trace(trace, buf)
        buf.seek(0)
        assert read_trace(buf) == trace

    def test_move_budget_guard(self, tmp_path, monkeypatch, capsys):
        """Phase 0 of this game makes k = 3 moves.  With phase 0's budget
        at k the run is unchanged; at k - 1 it raises at move k, and solve
        exits 3 with a message, not a traceback."""
        game = gen_random(4, 1, 4, 2, 2, coeff_range=(Fraction(1, 4), Fraction(2)), seed=4)
        s0 = State((0,) * game.n)
        trace = run_algorithm(game, s0)[1]
        k = sum(mv.phase == 0 for mv in trace.moves)
        assert k == 3
        budget = Schedule.move_budget

        def cap_phase_0(cap):
            monkeypatch.setattr(Schedule, "move_budget",
                                lambda self, phase: cap if phase == 0 else budget(self, phase))

        cap_phase_0(k)
        assert run_algorithm(game, s0)[1] == trace
        cap_phase_0(k - 1)
        with pytest.raises(MoveBudgetExceededError, match="phase 0 exceeded its move budget 2"):
            run_algorithm(game, s0)
        path = tmp_path / "game.json"
        path.write_text(serialize_instance(game))
        code = main(["solve", "--input", str(path), "--output", str(tmp_path / "state.json")])
        err = capsys.readouterr().err
        assert code == 3 and "Traceback" not in err
        assert "input error: phase 0 exceeded its move budget 2" in err


@pytest.mark.parametrize(
    "line, edit",
    [
        (0, lambda doc: doc.pop("fixed_sets")),
        (0, lambda doc: doc.update(initial_state="000000")),
        (0, lambda doc: doc.update(phase_end_states=[[0, "1"]])),
        (0, lambda doc: doc["schedule"].update(p="4")),
        (0, lambda doc: doc["schedule"].update(exact_constants=0)),
        (0, lambda doc: doc["schedule"].pop("boundaries")),
        (1, lambda doc: doc.pop("player")),
    ],
)
def test_read_trace_rejects_malformed_fields(line, edit):
    game, s0 = crafted_p_move_game()
    _, trace = run_algorithm(game, s0, p_override=4)
    buf = io.StringIO()
    write_trace(trace, buf)
    lines = buf.getvalue().splitlines()
    doc = json.loads(lines[line])
    edit(doc)
    lines[line] = json.dumps(doc)
    with pytest.raises(MalformedTraceError):
        read_trace(io.StringIO("\n".join(lines)))

