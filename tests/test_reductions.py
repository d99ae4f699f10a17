"""Strategy transformations, each replayed against exhaustive adversaries.

The contract under test everywhere: a transformation either produces a
strategy that passes exhaustive verification at the input's horizon, or
raises FiniteExhaustion naming the failing step.  Silent degradation is
the one outcome these tests exist to rule out.
"""

from itertools import combinations

import pytest

from gowerslab import (
    GameKind,
    Move,
    Player,
    build_payoff,
    negate,
    seeded_payoff,
    solve,
    strategy_from_rule,
    verified,
    verify_strategy,
)
from gowerslab.cli import RULES
from gowerslab.errors import Budget, FiniteExhaustion, PigeonholeUnavailable
from gowerslab.games import initial_position
from gowerslab.instances import (
    counterexample_sets,
    mathias_silver,
    provider_for,
    top_subspace,
)
from gowerslab.payoffs import Payoff
from gowerslab.reductions import (
    adversarial_from_kastanas,
    asymptotic_from_gowers,
    check_diagonalization,
    check_ramsey_dichotomy,
    decorate_space,
    diagonalize_states,
    gowers_from_asymptotic,
    homogeneous_from_asymptotic,
    project_tilde_strategy,
    projected_payoff,
    reachable_set,
    reinterpret_adversarial,
    tilde_lift,
    unfold_asymptotic,
)


def constant_rule(subspace):
    def play(space, pos):
        return Move(Player.I, subspace=subspace)

    return play


def odd_responder(ms):
    return RULES["stay-in-set"](ms, {"labels": [x for x in range(len(ms.points)) if x % 2]})


class TestDiagonalization:
    def test_empty_state_list_is_vacuous(self, ms8):
        top = top_subspace(ms8)
        payoff = build_payoff(ms8, "point_odd", 2, {"index": 1})
        tau = verified(
            ms8,
            strategy_from_rule(
                ms8, GameKind.KASTANAS, top, 2, Player.II, odd_responder(ms8)
            ),
            payoff,
        )
        out = diagonalize_states(ms8, [], tau, top)
        assert ms8.leq(out, top)

    def test_single_state_postcondition(self, ms8):
        top = top_subspace(ms8)
        payoff = build_payoff(ms8, "point_odd", 2, {"index": 1})
        tau = verified(
            ms8,
            strategy_from_rule(
                ms8, GameKind.KASTANAS, top, 2, Player.II, odd_responder(ms8)
            ),
            payoff,
        )
        start = initial_position(GameKind.KASTANAS, top, 2)
        state = start.child(tau.move_at(start))
        out = diagonalize_states(ms8, [state], tau, top)
        assert ms8.leq(out, top)
        assert check_diagonalization(ms8, [state], tau, out) == []

    def test_reply_ignoring_strategy_stabilizes(self, ms6):
        # A responder whose replies never depend on the probe leaves
        # nothing for the chain to chase beyond its first descent.
        top = top_subspace(ms6)
        payoff = build_payoff(ms6, "everything", 2)
        tau = verified(
            ms6,
            strategy_from_rule(
                ms6,
                GameKind.KASTANAS,
                top,
                2,
                Player.II,
                RULES["stay-in-set"](ms6, {"labels": [0, 1, 2, 3, 4, 5]}),
            ),
            payoff,
        )
        start = initial_position(GameKind.KASTANAS, top, 2)
        state = start.child(tau.move_at(start))
        out = diagonalize_states(ms6, [state], tau, top)
        assert check_diagonalization(ms6, [state], tau, out) == []


class TestAdversarialFromKastanas:
    def test_second_player_oddball(self, ms10):
        top = top_subspace(ms10)
        payoff = build_payoff(ms10, "point_odd", 2, {"index": 1})
        tau = verified(
            ms10,
            strategy_from_rule(
                ms10, GameKind.KASTANAS, top, 2, Player.II, odd_responder(ms10)
            ),
            payoff,
        )
        transfer = adversarial_from_kastanas(ms10, tau, Player.II, payoff)
        assert ms10.leq(transfer.q, top)
        report = verify_strategy(ms10, transfer.strategy, payoff, target="accepts")
        assert report.passed and report.plays > 50

    def test_first_player_nonzero(self, ms6):
        top = top_subspace(ms6)
        payoff = build_payoff(ms6, "first_in", 2, {"labels": [1, 2, 3, 4, 5]})
        result = solve(ms6, GameKind.KASTANAS, top, payoff, Player.I)
        assert result.winner is Player.I
        transfer = adversarial_from_kastanas(ms6, result.strategy, Player.I, payoff)
        report = verify_strategy(ms6, transfer.strategy, payoff, target="accepts")
        assert report.passed

    def test_first_player_horizon_two(self):
        ms3 = mathias_silver(3, 2, 1)
        top = top_subspace(ms3)
        payoff = Payoff(4, lambda s: s[0] <= 1 and s[2] <= 1, "small-firsts")
        result = solve(ms3, GameKind.KASTANAS, top, payoff, Player.I)
        if result.winner is not Player.I:
            pytest.skip("payoff not first-player-winnable here")
        transfer = adversarial_from_kastanas(ms3, result.strategy, Player.I, payoff)
        report = verify_strategy(ms3, transfer.strategy, payoff, target="accepts")
        assert report.passed

    def test_second_player_horizon_two(self):
        ms3 = mathias_silver(3, 2, 1)
        top = top_subspace(ms3)
        payoff = seeded_payoff(4, 40, density=0.15)
        result = solve(ms3, GameKind.KASTANAS, top, payoff, Player.II)
        assert result.winner is Player.II
        transfer = adversarial_from_kastanas(
            ms3, result.strategy, Player.II, payoff
        )
        report = verify_strategy(ms3, transfer.strategy, payoff, target="accepts")
        assert report.passed

    def test_degenerate_space_relabels(self, degenerate):
        payoff = build_payoff(degenerate, "equal_pair", 2)
        result = solve(degenerate, GameKind.KASTANAS, 0, payoff, Player.II)
        transfer = adversarial_from_kastanas(
            degenerate, result.strategy, Player.II, payoff
        )
        assert transfer.q == 0
        report = verify_strategy(
            degenerate, transfer.strategy, payoff, target="accepts"
        )
        assert report.passed

    def test_his_transfer_reads_in_her_game(self, ms6):
        # The remark-level transfer: his constrained-game strategy is
        # legal, and still winning, when she is the constrained one.
        top = top_subspace(ms6)
        payoff = build_payoff(ms6, "first_in", 2, {"labels": [1, 2, 3, 4, 5]})
        result = solve(ms6, GameKind.KASTANAS, top, payoff, Player.I)
        transfer = adversarial_from_kastanas(ms6, result.strategy, Player.I, payoff)
        reread = reinterpret_adversarial(transfer.strategy)
        report = verify_strategy(ms6, reread, payoff, target="accepts")
        assert report.passed

    def test_solved_strategy_reads_in_her_game(self, ms6):
        # A solved table is keyed by state, which holds no game kind, so
        # it carries over unchanged.
        top = top_subspace(ms6)
        payoff = build_payoff(ms6, "first_in", 2, {"labels": [1, 2, 3, 4, 5]})
        result = solve(ms6, GameKind.ADVERSARIAL_A, top, payoff, Player.I)
        assert result.winner is Player.I and result.strategy.positional
        reread = reinterpret_adversarial(result.strategy)
        assert reread.kind is GameKind.ADVERSARIAL_B and reread.positional
        assert reread.table == result.strategy.table
        report = verify_strategy(ms6, reread, payoff, target="accepts")
        assert report.plays > 0 and report.fraction_accepts == 1

    def test_refuses_unverified_input(self, ms6):
        top = top_subspace(ms6)
        payoff = build_payoff(ms6, "point_odd", 2, {"index": 1})
        raw = strategy_from_rule(
            ms6, GameKind.KASTANAS, top, 2, Player.II, odd_responder(ms6)
        )
        with pytest.raises(ValueError):
            adversarial_from_kastanas(ms6, raw, Player.II, payoff)

    def test_transcript_records_rounds(self, ms6):
        top = top_subspace(ms6)
        payoff = build_payoff(ms6, "point_odd", 2, {"index": 1})
        tau = verified(
            ms6,
            strategy_from_rule(
                ms6, GameKind.KASTANAS, top, 2, Player.II, odd_responder(ms6)
            ),
            payoff,
        )
        transfer = adversarial_from_kastanas(ms6, tau, Player.II, payoff)
        transcript = transfer.transcript()
        assert transcript["q"] == transfer.q
        assert transcript["rounds"] and all(
            r["fictive_probe"] for r in transcript["rounds"]
        )


class TestTildePipeline:
    def test_payoff_unfolds_to_odd_entries(self, ms8):
        payoff = build_payoff(ms8, "point_even", 1, {"index": 0})
        _, doubled = tilde_lift(ms8, payoff)
        assert doubled.horizon == 2
        assert doubled.accepts((1, 0)) and not doubled.accepts((0, 1))

    def test_parity_of_twisted_admission(self, ms8):
        twisted, _ = tilde_lift(ms8, build_payoff(ms8, "everything", 1))
        evens = ms8.palette.index((0, 2, 4, 6))
        # Odd-length histories read the first-player entries.
        assert twisted.admits((0,), evens)
        assert not twisted.admits((1,), evens)
        # Even-length histories read the second-player entries.
        assert twisted.admits((1, 0), evens)
        assert not twisted.admits((0, 1), evens)

    def test_his_side_projects_to_asymptotic(self, ms8_tail):
        top = top_subspace(ms8_tail)
        payoff = build_payoff(ms8_tail, "first_in", 1, {"labels": [3]})
        twisted, doubled = tilde_lift(ms8_tail, payoff)
        result = solve(twisted, GameKind.ADVERSARIAL_A, top, negate(doubled), Player.I)
        assert result.winner is Player.I
        f_strat = project_tilde_strategy(ms8_tail, twisted, result.strategy)
        report = verify_strategy(ms8_tail, f_strat, payoff, target="complement")
        assert report.passed

    def test_her_side_projects_to_gowers(self, ms8_tail):
        top = top_subspace(ms8_tail)
        payoff = build_payoff(ms8_tail, "point_even", 1, {"index": 0})
        twisted, doubled = tilde_lift(ms8_tail, payoff)
        result = solve(twisted, GameKind.ADVERSARIAL_B, top, doubled, Player.II)
        assert result.winner is Player.II
        g_strat = project_tilde_strategy(ms8_tail, twisted, result.strategy)
        report = verify_strategy(ms8_tail, g_strat, payoff, target="accepts")
        assert report.passed


class TestUnfolding:
    def test_bit_blind_strategy_survives_unchanged(self, ms6):
        top = top_subspace(ms6)
        decorated = decorate_space(ms6)
        payoff_prime = Payoff(
            1, lambda s: decorated.points[s[0]][0][0] if False else decorated.points[s[0]][0] == 3, "hit-3"
        )
        result = solve(decorated, GameKind.ASYMPTOTIC_F, top, negate(payoff_prime), Player.I)
        assert result.winner is Player.I
        tau = unfold_asymptotic(ms6, result.strategy, payoff_prime)
        start = initial_position(GameKind.ASYMPTOTIC_F, top, 1)
        dec_start = initial_position(GameKind.ASYMPTOTIC_F, top, 1)
        assert tau.move_at(start).subspace == result.strategy.move_at(dec_start).subspace

    def test_horizon_one_unfold(self, ms6):
        top = top_subspace(ms6)
        decorated = decorate_space(ms6)
        payoff_prime = Payoff(
            1, lambda s: decorated.points[s[0]] == (3, 1), "hit-3-bit1"
        )
        result = solve(
            decorated, GameKind.ASYMPTOTIC_F, top, negate(payoff_prime), Player.I
        )
        assert result.winner is Player.I
        tau = unfold_asymptotic(ms6, result.strategy, payoff_prime)
        report = verify_strategy(
            ms6, tau, projected_payoff(payoff_prime), target="complement"
        )
        assert report.passed

    def test_horizon_two_unfold(self, ms6):
        top = top_subspace(ms6)
        decorated = decorate_space(ms6)

        def accepts(seq):
            (x0, b0), (x1, b1) = (
                decorated.points[seq[0]],
                decorated.points[seq[1]],
            )
            return (x0 == 3 and b0 == 1) or (x1 == 5 and b1 == 0)

        payoff_prime = Payoff(2, accepts, "decorated-pair")
        result = solve(
            decorated, GameKind.ASYMPTOTIC_F, top, negate(payoff_prime), Player.I
        )
        assert result.winner is Player.I
        tau = unfold_asymptotic(ms6, result.strategy, payoff_prime)
        report = verify_strategy(
            ms6, tau, projected_payoff(payoff_prime), target="complement"
        )
        assert report.passed


class TestGowersFromAsymptotic:
    def test_constant_recommendation(self, ms6):
        top = top_subspace(ms6)
        payoff = build_payoff(ms6, "everything", 2)
        tau = verified(
            ms6,
            strategy_from_rule(
                ms6, GameKind.ASYMPTOTIC_F, top, 2, Player.I, constant_rule(top)
            ),
            payoff,
        )
        sigma = gowers_from_asymptotic(ms6, tau, payoff)
        report = verify_strategy(ms6, sigma, payoff, target="accepts")
        assert report.passed

    def test_solver_strategy_verified_or_exhausts(self, ms6):
        # A near-full recommendation cannot meet the all-small subspaces
        # her game allows; the transfer must then fail loudly, never
        # produce an unverified table.
        top = top_subspace(ms6)
        payoff = build_payoff(ms6, "first_in", 1, {"labels": [1, 2, 3, 4, 5]})
        result = solve(ms6, GameKind.ASYMPTOTIC_F, top, payoff, Player.I)
        assert result.winner is Player.I
        try:
            sigma = gowers_from_asymptotic(ms6, result.strategy, payoff)
        except FiniteExhaustion as exc:
            assert "meet" in str(exc)
        else:
            assert verify_strategy(ms6, sigma, payoff, target="accepts").passed

    def test_binary_field_tail_case(self, f2d4):
        # His recommendation is the zero-first-coordinate tail; her game
        # admits the lone line outside it, so the transfer either
        # verifies or reports the missing meet.  On this palette the
        # line's meet with the tail is the zero subspace: exhaustion.
        top = top_subspace(f2d4)
        payoff = Payoff(1, lambda s, sp=f2d4: sp.points[s[0]][0] == 0, "coord0-zero")
        result = solve(f2d4, GameKind.ASYMPTOTIC_F, top, payoff, Player.I)
        assert result.winner is Player.I
        try:
            sigma = gowers_from_asymptotic(f2d4, result.strategy, payoff)
        except FiniteExhaustion as exc:
            assert "meet" in str(exc)
        else:
            assert verify_strategy(f2d4, sigma, payoff, target="accepts").passed

    def test_meet_starvation_is_loud(self):
        # His recommendation is the even half; her game lets the
        # adversary play all-odd subspaces, whose meets with it vanish.
        ms = mathias_silver(8, 2, 4)
        top = top_subspace(ms)
        evens = ms.palette.index((0, 2, 4, 6))
        payoff = build_payoff(ms, "all_even", 2)
        tau = verified(
            ms,
            strategy_from_rule(
                ms, GameKind.ASYMPTOTIC_F, top, 2, Player.I, constant_rule(evens)
            ),
            payoff,
        )
        with pytest.raises(FiniteExhaustion):
            gowers_from_asymptotic(ms, tau, payoff)


class TestReachability:
    def test_constant_responder(self, degenerate):
        # On the one-subspace space every point is always admitted, so a
        # constant answer is legal and reaches exactly itself.
        payoff = build_payoff(degenerate, "everything", 1)

        def always_zero(space, pos):
            return Move(Player.II, point=0)

        sigma = verified(
            degenerate,
            strategy_from_rule(
                degenerate, GameKind.GOWERS_G, 0, 1, Player.II, always_zero
            ),
            payoff,
        )
        state = initial_position(GameKind.GOWERS_G, 0, 1)
        budget = Budget()
        assert reachable_set(degenerate, state, sigma, budget) == frozenset({0})
        assert budget.used == len(degenerate.below(0))

    def test_least_admitted_responder(self, ms6):
        top = top_subspace(ms6)
        payoff = build_payoff(ms6, "everything", 1)

        def least(space, pos):
            constraint = pos.moves[-1].subspace
            return Move(Player.II, point=space.admitted_points((), constraint)[0])

        sigma = verified(
            ms6,
            strategy_from_rule(ms6, GameKind.GOWERS_G, top, 1, Player.II, least),
            payoff,
        )
        state = initial_position(GameKind.GOWERS_G, top, 1)
        expected = frozenset(
            min(ms6.admitted_points((), r)) for r in ms6.below(top)
        )
        assert reachable_set(ms6, state, sigma, Budget()) == expected


class TestAsymptoticFromGowers:
    def test_nonzero_target_transfers(self, ms6):
        top = top_subspace(ms6)
        payoff = Payoff(2, lambda s: all(x >= 1 for x in s), "all-nonzero")
        result = solve(ms6, GameKind.GOWERS_G, top, payoff, Player.II)
        assert result.winner is Player.II
        transfer = asymptotic_from_gowers(
            ms6, result.strategy, payoff, provider_for(ms6)
        )
        report = verify_strategy(ms6, transfer.strategy, payoff, target="accepts")
        assert report.passed

    def test_trivial_target(self, ms6):
        top = top_subspace(ms6)
        payoff = build_payoff(ms6, "everything", 1)
        result = solve(ms6, GameKind.GOWERS_G, top, payoff, Player.II)
        transfer = asymptotic_from_gowers(
            ms6, result.strategy, payoff, provider_for(ms6)
        )
        assert verify_strategy(ms6, transfer.strategy, payoff).passed

    def test_counterexample_payoff_refused_by_provider(self, f3d4):
        top = top_subspace(f3d4)
        target = counterexample_sets(f3d4, "FirstCoordOne")
        payoff = Payoff(1, lambda s: s[0] in target, "first-coord-one")
        result = solve(f3d4, GameKind.GOWERS_G, top, payoff, Player.II)
        assert result.winner is Player.II
        with pytest.raises(PigeonholeUnavailable):
            asymptotic_from_gowers(f3d4, result.strategy, payoff, provider_for(f3d4))


class TestHomogeneousExtraction:
    def test_unconstrained_strategy_gives_initial_segment(self, ms12):
        top = top_subspace(ms12)
        payoff = build_payoff(ms12, "everything", 2)
        tau = verified(
            ms12,
            strategy_from_rule(
                ms12, GameKind.ASYMPTOTIC_F, top, 2, Player.I, constant_rule(top)
            ),
            payoff,
        )
        chosen = homogeneous_from_asymptotic(ms12, tau, payoff)
        assert chosen == tuple(range(12))

    def test_tail_jumping_recursion(self):
        # Recommendations are final segments: from three at the root,
        # then from two past the last answer.  The extracted set walks
        # 3, 5, 7, ... exactly as the max-recursion prescribes.
        ms = mathias_silver(12, 1, 12)
        top = top_subspace(ms)

        def tails(space, pos):
            history = pos.point_prefix
            start = 3 if not history else min(history[-1] + 2, 11)
            label = tuple(range(start, 12))
            return Move(Player.I, subspace=space.palette.index(label))

        payoff = Payoff(2, lambda s: s[1] >= min(s[0] + 2, 11) and s[0] >= 3, "spread")
        tau = verified(
            ms,
            strategy_from_rule(ms, GameKind.ASYMPTOTIC_F, top, 2, Player.I, tails),
            payoff,
        )
        chosen = homogeneous_from_asymptotic(ms, tau, payoff)
        assert chosen == (3, 5, 7, 9, 11)
        assert all(payoff.accepts(pair) for pair in combinations(chosen, 2))

    def test_solver_strategy_extraction_checks_out(self, ms12):
        top = top_subspace(ms12)
        payoff = Payoff(2, lambda s: s[1] >= 1, "second-nonzero")
        result = solve(ms12, GameKind.ASYMPTOTIC_F, top, payoff, Player.I)
        assert result.winner is Player.I
        chosen = homogeneous_from_asymptotic(ms12, result.strategy, payoff)
        assert len(chosen) >= 2
        assert all(payoff.accepts(pair) for pair in combinations(chosen, 2))


class TestDichotomy:
    def test_even_target_on_small_instance(self, ms8):
        top = top_subspace(ms8)
        payoff = build_payoff(ms8, "point_even", 1, {"index": 0})
        report = check_ramsey_dichotomy(ms8, payoff, top, "strategic")
        assert report.realized_at
        evens = ms8.palette.index((0, 2, 4, 6))
        entry = next(e for e in report.entries if e.q == evens)
        assert entry.second_side  # she reaches the even set below evens

    def test_everything_realizes_everywhere(self, ms6):
        top = top_subspace(ms6)
        payoff = build_payoff(ms6, "everything", 1)
        report = check_ramsey_dichotomy(ms6, payoff, top, "strategic")
        assert all(e.second_side for e in report.entries)

    def test_first_coordinate_counterexample_is_one_sided(self, f3d4):
        # Below every subspace the asymptotic side fails and the chooser
        # side succeeds: scalars defeat him, membership serves her.
        top = top_subspace(f3d4)
        payoff = build_payoff(
            f3d4, "in_counterexample", 1, {"which": "FirstCoordOne", "index": 0}
        )
        report = check_ramsey_dichotomy(f3d4, payoff, top, "strategic")
        assert all(not e.first_side for e in report.entries)
        assert all(e.second_side for e in report.entries)

    def test_adversarial_flavor_runs(self, ms6):
        top = top_subspace(ms6)
        payoff = seeded_payoff(2, 31)
        report = check_ramsey_dichotomy(ms6, payoff, top, "adversarial")
        assert len(report.entries) == len(ms6.below(top))
