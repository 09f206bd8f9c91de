"""Verification oracles: factors, brute-force PoA, trace audits."""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import replace
from fractions import Fraction

import pytest

from congames import (
    CostPolynomial,
    Game,
    State,
    audit_trace,
    brute_force_poa,
    compute_schedule,
    gen_lower_bound,
    gen_random,
    make_player,
    max_group_poa_ratio,
    max_rho_stretch_ratio,
    min_equilibrium_factor,
    phi_ratio,
    run_algorithm,
    social_cost,
)
from congames import game as game_module
from congames import verify
from congames.dynamics import ALPHA_MOVE, MoveRecord, Trace
from congames.errors import (
    NoEquilibriumError,
    StateSpaceTooLargeError,
    TraceMismatchError,
)
from congames.game import IntGame
from congames.potential import alpha
from congames.verify import _max_group_ratio, _rows, _Walk, enumerate_states

import reference
from conftest import (
    assert_poa_oracles_match_references,
    crafted_p_move_game,
    exact_outcome,
    header_mutations,
    mutation_traces,
    random_game,
    random_state,
    record_mutations,
    single_player_game,
    with_choice,
)
from reference import reference_brute_force_poa, reference_group_ratio, reference_trace


class TestMinEquilibriumFactor:
    def test_best_response_state_has_factor_one(self):
        game = single_player_game()
        assert min_equilibrium_factor(game, State((0,))) == 1

    def test_lower_bound_profile(self):
        for rho in (Fraction(1), Fraction(3, 2)):
            bundle = gen_lower_bound(1, rho, 3, 30)
            assert min_equilibrium_factor(bundle.game, bundle.equilibrium_state) == rho

    def test_group_restriction(self):
        bundle = gen_lower_bound(1, Fraction(3, 2), 3, 30)
        s = bundle.equilibrium_state
        # player 0's ratio is exactly rho; a group without the binding player
        # can have a smaller factor
        full = min_equilibrium_factor(bundle.game, s)
        assert min_equilibrium_factor(bundle.game, s, [0]) == full

    def test_infinite_factor_sentinel(self):
        game = Game(
            degree=1,
            resources=(
                CostPolynomial((Fraction(1),)),
                CostPolynomial((Fraction(0), Fraction(0))),
            ),
            players=(make_player(Fraction(1), [[0], [1]]),),
        )
        assert min_equilibrium_factor(game, State((0,))) == math.inf
        assert min_equilibrium_factor(game, State((1,))) == 1  # 0/0 counts as 1


class TestBruteForcePoa:
    def test_single_player(self):
        game = single_player_game()
        poa, worst, opt = brute_force_poa(game, Fraction(1))
        assert poa == 1 and worst == opt == State((0,))

    def test_lower_bound_instance_ratio(self):
        bundle = gen_lower_bound(1, Fraction(1), 3, 30)
        r = bundle.root_approx
        poa, worst, opt = brute_force_poa(bundle.game, Fraction(1))
        designed = (3 * r**2) / (2 + r**2)
        assert poa >= designed
        assert float(poa) == pytest.approx(3 * 1.618034**2 / (2 + 1.618034**2), rel=1e-5)

    def test_optimum_agrees_with_exhaustive_minimum(self, rng):
        for _ in range(10):
            game = random_game(rng, 3, 2, 4)
            _, _, opt = brute_force_poa(game, Fraction(2))
            best = min(social_cost(game, s) for s in enumerate_states(game))
            assert social_cost(game, opt) == best

    def test_poa_below_theory(self, rng):
        for _ in range(15):
            d = rng.randint(1, 2)
            game = random_game(rng, 3, d, 4)
            for rho in (Fraction(1), Fraction(2)):
                bound = Fraction(phi_ratio(d, float(rho)) ** (d + 1)) + Fraction(1, 10**6)
                poa, _, _ = brute_force_poa(game, rho)
                assert poa <= bound

    def test_state_cap(self, rng):
        game = random_game(rng, 3, 1, 4)
        with pytest.raises(StateSpaceTooLargeError):
            brute_force_poa(game, Fraction(1), state_cap=8)

    def test_no_equilibrium_below_factor_one(self, rng):
        # every state has factor >= 1, so Q_(1/2) is provably empty
        game = random_game(rng, 2, 1, 3)
        with pytest.raises(NoEquilibriumError):
            brute_force_poa(game, Fraction(1, 2))


class TestGroupEnumerations:
    def test_group_poa_within_theory(self, rng):
        for _ in range(8):
            d = rng.randint(1, 2)
            game = random_game(rng, 3, d, 4)
            for rho in (Fraction(1), Fraction(2)):
                bound = Fraction(phi_ratio(d, float(rho)) ** (d + 1)) + Fraction(1, 10**6)
                assert max_group_poa_ratio(game, rho) <= bound

    def test_rho_stretch_within_theory(self, rng):
        for _ in range(8):
            d = rng.randint(1, 2)
            game = random_game(rng, 3, d, 4)
            for rho in (Fraction(1), Fraction(2)):
                bound = Fraction(alpha(d)) * Fraction(
                    phi_ratio(d, float(rho)) ** (d + 1)
                ) + Fraction(1, 10**6)
                assert max_rho_stretch_ratio(game, rho) <= bound

    @pytest.mark.parametrize("oracle, metric", [
        (max_group_poa_ratio, reference.reference_group_cost),
        (max_rho_stretch_ratio, reference.partial_potential),
    ])
    def test_kernel_call_count(self, monkeypatch, oracle, metric):
        # A gate on a count, not a time: a player's strategy costs are read
        # once per player and choice of the others, 4 * 3^3 = 108 calls on
        # this 3^4-state game, and every row reads its player costs and
        # within-rho bits from them.  A player cost per player per state
        # and a best response per player and choice of the others took 324
        # player_cost sums and 108 best responses.
        game, rho = gen_random(4, 2, 6, 3, 3, seed=0), Fraction(3)
        counts = dict.fromkeys(["strategy_costs", "player_cost", "player_costs", "best_response"], 0)
        for name in counts:
            def counting(self, *args, name=name, method=getattr(IntGame, name)):
                counts[name] += 1
                return method(self, *args)

            monkeypatch.setattr(IntGame, name, counting)
        got = exact_outcome(oracle, game, rho)
        monkeypatch.undo()
        assert counts == {
            "strategy_costs": 108, "player_cost": 0, "player_costs": 0, "best_response": 0,
        }
        assert got == exact_outcome(reference_group_ratio, game, rho, 10**6, metric)

    def test_group_ratio_measures_against_non_equilibria(self):
        # Pigou-like: a shared road of cost x and a bypass of cost 5/2.  The
        # only equilibrium puts both players on the road (cost 4); the
        # optimum (cost 7/2) is no equilibrium, and it is the denominator.
        game = Game(
            degree=1,
            resources=(
                CostPolynomial((Fraction(0), Fraction(1))),
                CostPolynomial((Fraction(5, 2),)),
            ),
            players=(make_player(Fraction(1), [[0], [1]]),) * 2,
        )
        assert brute_force_poa(game, Fraction(1)) == (Fraction(8, 7), State((0, 0)), State((0, 1)))
        assert max_group_poa_ratio(game, Fraction(1)) == Fraction(8, 7)


class TestOracleEdgeCases:
    def test_all_zero_cost_game(self):
        zero = CostPolynomial((Fraction(0),))
        game = Game(
            degree=2,
            resources=(zero, zero),
            players=(
                make_player(Fraction(1), [[0], [1]]),
                make_player(Fraction(3, 2), [[0], [0, 1]]),
            ),
        )
        # every factor is 0/0 = 1, so no state is a 1/2-equilibrium
        with pytest.raises(NoEquilibriumError):
            brute_force_poa(game, Fraction(1, 2))
        assert max_group_poa_ratio(game, Fraction(1, 2)) == 0
        assert max_rho_stretch_ratio(game, Fraction(1, 2)) == 0
        poa, worst, opt = brute_force_poa(game, Fraction(1))
        assert (poa, worst, opt) == (1, State((0, 0)), State((0, 0)))
        assert type(poa) is Fraction
        assert max_group_poa_ratio(game, Fraction(1)) == max_rho_stretch_ratio(game, Fraction(1)) == 1

    @staticmethod
    def zero_deviation_game() -> Game:
        """Strategy 0 costs 1 and strategy 1 nothing."""
        return Game(
            degree=1,
            resources=(CostPolynomial((Fraction(1),)), CostPolynomial((Fraction(0),))),
            players=(make_player(Fraction(1), [[0], [1]]),),
        )

    def test_zero_cost_deviation_is_never_an_equilibrium(self):
        # state (0,) has the infinite factor, however large rho is
        game = self.zero_deviation_game()
        assert brute_force_poa(game, Fraction(10**9)) == (1, State((1,)), State((1,)))

    def test_bucket_with_zero_minimum(self):
        # The one bucket holds both states; only (1,) is an equilibrium.
        game, rho = self.zero_deviation_game(), Fraction(3)
        assert max_group_poa_ratio(game, rho) == 1
        assert max_rho_stretch_ratio(game, rho) == 1

        rows = list(_rows(walk := _Walk(game, 10**6), rho))

        def ratio(values):
            """The bucket's ratio under a metric valued values[k] at state (k,)."""
            return _max_group_ratio(walk, rows, lambda group: [values[row.choices[0]] for row in rows])

        # The oracles' own metrics never reach inf: a group of value 0 uses
        # only resources that cost nothing, so a member of positive cost has
        # a zero-cost deviation and is no equilibrium.
        assert ratio((0, 5)) == math.inf
        assert ratio((5, 0)) == ratio((0, 0)) == 1
        assert ratio((2, 3)) == Fraction(3, 2)


def two_link_game(link0: tuple[int, ...], link1: tuple[int, ...]) -> Game:
    """Two unit-weight players, each on link 0 or link 1, whose costs have
    the given coefficients, constant term first."""
    return Game(
        degree=1,
        resources=tuple(CostPolynomial(tuple(map(Fraction, c))) for c in (link0, link1)),
        players=(make_player(Fraction(1), [[0], [1]]),) * 2,
    )


class TestCostFirstBruteForce:
    """brute_force_poa tests a state's players only when its cost exceeds
    the worst equilibrium cost found so far; each case must give the
    answers, states and errors of the from-scratch references."""

    @staticmethod
    def best_responses(monkeypatch, game: Game, rho: Fraction) -> tuple[int, object]:
        """brute_force_poa's outcome and how many best responses it took."""
        calls = 0
        best_response = IntGame.best_response

        def counting(self, *args):
            nonlocal calls
            calls += 1
            return best_response(self, *args)

        monkeypatch.setattr(IntGame, "best_response", counting)
        got = exact_outcome(brute_force_poa, game, rho)
        monkeypatch.undo()
        return calls, got

    def test_best_response_count(self, monkeypatch):
        # A gate on a count, not a time: testing every player of every
        # state would take n * |S| = 4 * 4^4 = 1024 best responses.  Testing
        # each admitted state's players in index order took 166.
        game, rho = gen_random(4, 2, 6, 4, 2, seed=0), Fraction(3)
        calls, got = self.best_responses(monkeypatch, game, rho)
        assert calls == 157 < game.n * len(enumerate_states(game))
        assert got == exact_outcome(reference_brute_force_poa, game, rho, 10**6)

    def test_last_refuter_first(self, monkeypatch):
        # A gate on a count, not a time: states next to each other in
        # product order are mostly refuted by the same player, so she is
        # tested first.  Testing the players in index order took 1,432
        # best responses here.
        game, rho = gen_random(6, 2, 8, 3, 2, seed=1), Fraction(3)
        calls, got = self.best_responses(monkeypatch, game, rho)
        assert calls == 830 < 1432
        assert got == exact_outcome(reference_brute_force_poa, game, rho, 10**6)

    def test_horner_count(self, monkeypatch):
        # A gate on a count, not a time: the walk reads c_e(X) and Phi_e(X)
        # from tables, so each polynomial is evaluated once per (resource,
        # load) pair; reference.reference_rows evaluates every resource at
        # every state.  Both modules' names are counted.
        game, rho = gen_random(4, 2, 6, 3, 3, seed=0), Fraction(3)
        calls = []
        horner = game_module._horner

        def counting(coeffs, x):
            calls.append(len(coeffs))
            return horner(coeffs, x)

        monkeypatch.setattr(verify, "_horner", counting)
        monkeypatch.setattr(game_module, "_horner", counting)
        got = exact_outcome(max_rho_stretch_ratio, game, rho)
        monkeypatch.undo()
        ig, players = game.compiled, range(game.n)
        pairs = {  # (resource, load of any group of players at any state)
            (e, X)
            for s in enumerate_states(game)
            for size in range(game.n + 1)
            for group in itertools.combinations(players, size)
            for e, X in enumerate(ig.loads(s.choices, group))
        }
        assert len(calls) == 120
        for length in (game.degree + 1, game.degree + 2):  # cost rows, then potential rows
            assert calls.count(length) <= len(pairs) == 60
        assert got == exact_outcome(
            reference_group_ratio, game, rho, 10**6, reference.partial_potential
        )

    def test_brute_force_horner_count(self, monkeypatch):
        # A gate on a count, not a time: the best responses read deviation
        # costs through the walk's memo, so brute force evaluates each cost
        # row once per load, as the walk's own table does; through _horner
        # directly they made 392 evaluations.  Both modules' names are counted.
        game, rho = gen_random(4, 2, 6, 3, 3, seed=0), Fraction(3)
        calls = 0
        horner = game_module._horner

        def counting(coeffs, x):
            nonlocal calls
            calls += 1
            return horner(coeffs, x)

        monkeypatch.setattr(verify, "_horner", counting)
        monkeypatch.setattr(game_module, "_horner", counting)
        got = exact_outcome(brute_force_poa, game, rho)
        monkeypatch.undo()
        assert calls == 60
        assert got == exact_outcome(reference_brute_force_poa, game, rho, 10**6)

    def test_equal_cost_equilibria_return_the_first(self):
        # At rho = 2 both players on one link (cost 4) are equilibria, as
        # (0, 0) and as (1, 1); the optimum splits them (cost 2).
        game, rho = two_link_game((0, 1), (0, 1)), Fraction(2)
        assert brute_force_poa(game, rho) == (2, State((0, 0)), State((0, 1)))
        assert_poa_oracles_match_references(game, rho, 10**6)

    def test_costliest_state_first_is_no_equilibrium(self):
        # (0, 0) costs 12 and comes first, but either player gains by
        # leaving; the worst equilibrium is (1, 1) at 6 against 5.
        game, rho = two_link_game((0, 3), (1, 1)), Fraction(1)
        assert brute_force_poa(game, rho) == (Fraction(6, 5), State((1, 1)), State((0, 1)))
        assert_poa_oracles_match_references(game, rho, 10**6)

    def test_optimum_costs_zero(self):
        # Link 1 is free: (1, 1) costs 0 and is the only equilibrium, 0/0 = 1.
        game = two_link_game((1,), (0,))
        for rho in (Fraction(1), Fraction(10**9)):
            poa, worst, opt = brute_force_poa(game, rho)
            assert (poa, worst, opt) == (1, State((1, 1)), State((1, 1)))
            assert type(poa) is Fraction
            assert_poa_oracles_match_references(game, rho, 10**6)

    def test_rho_below_one(self):
        game, rho = two_link_game((0, 3), (1, 1)), Fraction(1, 2)
        with pytest.raises(NoEquilibriumError):
            brute_force_poa(game, rho)
        assert max_group_poa_ratio(game, rho) == max_rho_stretch_ratio(game, rho) == 0
        assert_poa_oracles_match_references(game, rho, 10**6)


class TestAuditTrace:
    def test_zero_move_trace_passes(self):
        game = single_player_game()
        _, trace = run_algorithm(game, State((0,)))
        report = audit_trace(game, trace)
        assert report.passed
        assert report.final_factor == 1

    def test_run_and_audit_loop(self, rng):
        for _ in range(10):
            game = random_game(rng, 4, 2, 5, positive_costs=True)
            s0 = random_state(rng, game)
            _, trace = run_algorithm(game, s0)
            report = audit_trace(game, trace)
            assert report.passed, report.failures
            assert all(ph.key_ok and ph.budget_ok and ph.settled for ph in report.phases)
            assert all(mv.drop_ok and mv.legal for mv in report.moves)
            assert all(fx.ok for fx in report.fixes)

    def test_audit_multi_phase_trace(self):
        game, s0 = crafted_p_move_game()
        _, trace = run_algorithm(game, s0, p_override=4)
        report = audit_trace(game, trace)
        assert report.passed, report.failures
        assert any(ph.move_count for ph in report.phases[1:])

    def test_tampered_cost_raises(self, rng):
        game = random_game(rng, 4, 1, 5, positive_costs=True)
        trace = None
        for _ in range(20):
            s0 = random_state(rng, game)
            _, trace = run_algorithm(game, s0)
            if trace.moves:
                break
        assert trace is not None and trace.moves
        bad_move = replace(trace.moves[0], cost_after=trace.moves[0].cost_after + 1)
        tampered = replace(trace, moves=(bad_move,) + trace.moves[1:])
        with pytest.raises(TraceMismatchError):
            audit_trace(game, tampered)
        bad_pot = replace(trace.moves[0], potential_before=Fraction(10**9))
        tampered = replace(trace, moves=(bad_pot,) + trace.moves[1:])
        with pytest.raises(TraceMismatchError):
            audit_trace(game, tampered)

    def test_wrong_game_raises(self, rng):
        game = random_game(rng, 3, 1, 4, positive_costs=True)
        other = random_game(rng, 3, 1, 4, positive_costs=True)
        assert game.fingerprint != other.fingerprint
        _, trace = run_algorithm(game, State((0, 0, 0)))
        with pytest.raises(TraceMismatchError):
            audit_trace(other, trace)

    def test_fingerprint_serializes_once(self, rng, monkeypatch):
        """Solving and auditing one Game serialize it once: the
        fingerprint is kept on the Game, and its bytes are the SHA-256 of
        the canonical instance."""
        game = random_game(rng, 3, 1, 4, positive_costs=True)
        serialize, calls = game_module.serialize_instance, []

        def counted(*args):
            calls.append(args)
            return serialize(*args)

        monkeypatch.setattr(game_module, "serialize_instance", counted)
        _, trace = run_algorithm(game, State((0, 0, 0)))
        assert audit_trace(game, trace).passed
        assert len(calls) == 1
        assert trace.game_sha256 == hashlib.sha256(serialize(game).encode("utf-8")).hexdigest()

    def test_ineligible_move_is_reported_not_raised(self):
        # hand-built trace whose recorded values replay exactly, but whose
        # single move improves only by factor 3/2 < alpha + 1/p
        game = Game(
            degree=1,
            resources=(
                CostPolynomial((Fraction(3),)),
                CostPolynomial((Fraction(2),)),
            ),
            players=(make_player(Fraction(1), [[0], [1]]),),
        )
        s0, s1 = State((0,)), State((1,))
        schedule = compute_schedule(game, s0)
        move = MoveRecord(
            phase=0,
            step=0,
            player=0,
            from_strategy=0,
            to_strategy=1,
            cost_before=Fraction(3),
            cost_after=Fraction(2),
            move_class=ALPHA_MOVE,
            potential_before=Fraction(3),
            potential_after=Fraction(2),
        )
        trace = Trace(
            schedule=schedule,
            initial_state=s0,
            final_state=s1,
            moves=(move,),
            phase_end_states=(s1,),
            movers_per_phase=(frozenset({0}),),
            fixed_sets=(frozenset(), frozenset({0})),
            game_sha256=game.fingerprint,
        )
        report = audit_trace(game, trace)
        assert not report.passed
        assert any("ineligible" in f for f in report.failures)
        assert not report.moves[0].legal

    @staticmethod
    def solved() -> tuple[Game, Trace]:
        game = gen_random(6, 1, 5, 3, 2, (Fraction(1, 4), Fraction(2)), seed=2)
        _, trace = run_algorithm(game, State((0,) * 6))
        assert len(trace.moves) == 3
        return game, trace

    def test_unsettled_phase_is_reported_not_raised(self):
        game, trace = self.solved()
        assert reference_trace(game, trace.schedule, trace.initial_state, trace.moves) == trace
        cut = reference_trace(game, trace.schedule, trace.initial_state, trace.moves[:-1])
        report = audit_trace(game, cut)
        assert not report.passed
        assert "phase 0: ended while an eligible move remained" in report.failures
        assert not report.phases[0].settled
        assert all(mv.legal and mv.drop_ok for mv in report.moves)

    def test_drop_below_floor_is_reported_not_raised(self):
        game, trace = self.solved()
        last = trace.moves[-1]
        before = trace.final_state
        u = 0
        k = max(
            (k for k in range(len(game.players[u].strategies)) if k != before.choices[u]),
            key=lambda k: reference.player_costs(game, with_choice(before, u, k))[u],
        )
        after = with_choice(before, u, k)
        cost_before = reference.player_costs(game, before)[u]
        cost_after = reference.player_costs(game, after)[u]
        assert cost_after >= cost_before
        worse = MoveRecord(
            phase=last.phase,
            step=last.step + 1,
            player=u,
            from_strategy=before.choices[u],
            to_strategy=k,
            cost_before=cost_before,
            cost_after=cost_after,
            move_class=ALPHA_MOVE,
            potential_before=reference.potential(game, before),
            potential_after=reference.potential(game, after),
        )
        tampered = reference_trace(game, trace.schedule, trace.initial_state, (*trace.moves, worse))
        report = audit_trace(game, tampered)
        assert not report.passed
        assert any(
            f.startswith(f"move {worse.step}: potential drop") and "below floor" in f
            for f in report.failures
        )
        assert f"move {worse.step}: ineligible move recorded" in report.failures
        assert not report.moves[-1].drop_ok and not report.moves[-1].legal


class TestAuditMutations:
    """Every single-field perturbation of every move record must make the
    audit raise TraceMismatchError or report a failure; none may pass."""

    def test_every_field_of_every_move(self):
        tried = 0
        for game, trace in mutation_traces():
            assert audit_trace(game, trace).passed
            assert trace.moves
            for label, tampered in record_mutations(game, trace):
                try:
                    report = audit_trace(game, tampered)
                except TraceMismatchError:
                    pass
                else:
                    assert not report.passed, label
                tried += 1
        assert tried > 100


class TestAuditHeaderMutations:
    """Every single perturbation of the trace header must make the audit
    raise TraceMismatchError or report a failure: each schedule constant
    and boundary, each fixed set, each movers set and each phase end state."""

    def test_every_header_field(self):
        labels = set()
        for game, trace in mutation_traces():
            assert audit_trace(game, trace).passed
            for label, tampered in header_mutations(game, trace):
                try:
                    report = audit_trace(game, tampered)
                except TraceMismatchError:
                    pass
                else:
                    assert not report.passed, label
                labels.add(label.split("[")[0].split(" ")[0])
        assert labels == {
            "p", "alpha", "m", "g", "n_players", "c_max", "c_min", "exact_constants",
            "boundary", "fixed_sets", "movers_per_phase", "phase_end_states",
        }


class TestAuditOrderChecks:
    """A move out of phase or step order raises TraceMismatchError where a
    replay in trace order reaches it.  The crafted run's five moves are all
    in phase 1 of m = 33."""

    END_STATE = "phase 1 end state: recorded State(choices=(1, 1, 1, 1, 1, 0)) disagrees with "

    @staticmethod
    def audit_with(i: int, **changes) -> None:
        game, s0 = crafted_p_move_game()
        trace = run_algorithm(game, s0, p_override=4)[1]
        assert trace.schedule.m == 33 and [mv.phase for mv in trace.moves] == [1] * 5
        moves = list(trace.moves)
        if i == len(moves):  # one record past the run, a copy of its last
            moves.append(replace(moves[-1], step=i, **changes))
        else:
            moves[i] = replace(moves[i], **changes)
        audit_trace(game, replace(trace, moves=tuple(moves)))

    @pytest.mark.parametrize("i, changes, message", [
        (2, {"phase": -1}, "move 2: phases not nondecreasing"),
        (0, {"phase": -1}, "move 0: phases not nondecreasing"),
        (2, {"phase": 0}, "move 2: phases not nondecreasing"),
        (5, {"phase": 33}, "move 5: phase 33 >= m = 33"),
        (2, {"step": 3}, "move 3 step order: recorded 3 disagrees with recomputation 2"),
        # reached only after phase 1 ends without the move
        (4, {"phase": 33}, END_STATE + "recomputation State(choices=(1, 1, 1, 1, 0, 0))"),
        (0, {"phase": 2}, END_STATE + "recomputation State(choices=(0, 0, 0, 0, 0, 0))"),
    ])
    def test_message(self, i, changes, message):
        with pytest.raises(TraceMismatchError) as exc:
            self.audit_with(i, **changes)
        assert str(exc.value) == message
