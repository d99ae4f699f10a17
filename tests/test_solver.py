"""Backward induction, the naive oracle, and exhaustive verification."""

import pytest

from gowerslab import (
    GameKind,
    Player,
    Strategy,
    build_payoff,
    negate,
    seeded_payoff,
    solve,
    strategy_from_rule,
    verify_strategy,
)
import time
from dataclasses import replace
from itertools import product

from gowerslab import payoffs, solver
from gowerslab.errors import CLOCK_EVERY, ExhaustionBudget, IllegalMove, StrategyIncomplete
from gowerslab.errors import Budget, TimeExhausted
from gowerslab.games import (
    GamePosition,
    Move,
    initial_position,
    legal_moves,
    move_legal,
    play_outcome,
    rules_key,
)
from gowerslab.approx import DeltaSeq, discretize, field_subspace_system
from gowerslab.instances import grid_sphere, mathias_silver, rosendal, top_subspace
from gowerslab.payoffs import Payoff, _canonical_outcome
from gowerslab.solver import expand, table_rule, winning_roots
from gowerslab.space import FORGETFUL, FULL_HISTORY, LENGTH_INDEXED
from gowerslab.util import stable_fraction_hash
from corpus import corpus
from historywalk import count_histories, over_histories, walk_histories
from microsuite import MicroGame, micro_games, remembering_strategy
from oracle import naive_solve_oracle, per_root_winners


def seeded_games() -> list:
    """Seeded G, F, A and B games on three instances, each owner as
    goal owner once, at the longest horizons the history oracle solves
    in well under a second."""
    games = []
    for label, space in (
        ("ms4", mathias_silver(4, 2, 1)),
        ("ms5", mathias_silver(5, 2, 1)),
        ("ros331", rosendal(3, 3, 1)),
    ):
        for kind, horizon in (
            (GameKind.GOWERS_G, 3),
            (GameKind.ASYMPTOTIC_F, 3),
            (GameKind.ADVERSARIAL_A, 4),
            (GameKind.ADVERSARIAL_B, 4),
        ):
            for seed, goal in ((1, Player.I), (2, Player.II)):
                games.append(
                    MicroGame(
                        f"{label}/{kind.value}/h{horizon}/s{seed}",
                        space,
                        kind,
                        top_subspace(space),
                        seeded_payoff(horizon, seed, 0.7),
                        goal,
                    )
                )
    return games


def _score(space, payoff):
    return lambda pos, shadow: (1, 1 if payoff.accepts(play_outcome(pos, space)) else 0)


def check_against_the_oracle(game) -> None:
    """The state-graph solve against the history oracle: the same
    winner, the same table once restricted to the states its replay
    reaches, and the same (plays, in_accepts) from counting over states
    as from replaying the table over every history."""
    fast = solve(game.space, game.kind, game.root, game.payoff, game.goal)
    slow = naive_solve_oracle(game.space, game.kind, game.root, game.payoff, game.goal)
    assert fast.winner is slow.winner
    strat = fast.strategy
    assert strat.memoryless and slow.strategy.memoryless
    reached: dict = {}
    pos0 = initial_position(strat.kind, strat.root, strat.horizon)
    expand(game.space, pos0, strat.owner, table_rule(game.space, strat), 0, table=reached)
    assert reached == slow.strategy.table
    history = replace(strat, table=over_histories(game.space, strat))
    target = "accepts" if fast.winner is game.goal else "complement"
    by_state = verify_strategy(game.space, strat, game.payoff, target=target)
    by_replay = count_histories(game.space, history, _score(game.space, game.payoff))
    assert (by_state.plays, by_state.in_accepts) == by_replay
    assert by_state.passed
    # Against a payoff the table was not solved for, some plays land on
    # each side, so the count of in_accepts is tested too.
    other = seeded_payoff(strat.horizon, 99, 0.5)
    by_state = verify_strategy(game.space, strat, other)
    by_replay = count_histories(game.space, history, _score(game.space, other))
    assert (by_state.plays, by_state.in_accepts) == by_replay


class TestSolveExamples:
    def test_even_first_point_unreachable(self):
        # Any near-full subspace keeps an odd point available, so she
        # dodges the even target.
        ms = mathias_silver(4, 2, 1)
        top = top_subspace(ms)
        payoff = build_payoff(ms, "point_even", 1, {"index": 0})
        result = solve(ms, GameKind.ASYMPTOTIC_F, top, payoff, Player.I)
        assert result.winner is Player.II
        report = verify_strategy(ms, result.strategy, payoff, target="complement")
        assert report.passed and report.fraction_accepts == 0

    def test_full_set_trivially_forced(self):
        ms = mathias_silver(4, 2, 1)
        top = top_subspace(ms)
        payoff = build_payoff(ms, "first_in", 1, {"labels": [0, 1, 2, 3]})
        result = solve(ms, GameKind.ASYMPTOTIC_F, top, payoff, Player.I)
        assert result.winner is Player.I

    def test_copying_wins_the_degenerate_game(self, degenerate):
        payoff = build_payoff(degenerate, "equal_pair", 2)
        result = solve(degenerate, GameKind.GOWERS_G, 0, payoff, Player.II)
        assert result.winner is Player.II
        report = verify_strategy(degenerate, result.strategy, payoff)
        assert report.passed and report.fraction_accepts == 1

    def test_winner_strategy_always_verifies(self, ms6):
        top = top_subspace(ms6)
        for seed in (3, 4, 5):
            payoff = seeded_payoff(2, seed)
            result = solve(ms6, GameKind.GOWERS_G, top, payoff, Player.II)
            target = "accepts" if result.winner is Player.II else "complement"
            report = verify_strategy(ms6, result.strategy, payoff, target=target)
            assert report.passed


class TestSeededPayoff:
    @pytest.mark.parametrize("seed,density", [(1, 0.5), (40, 0.15), (86, 0.85)])
    def test_memberships_are_the_hash_verdicts(self, seed, density):
        # Every outcome of a point game and of an SF game (frozenset
        # entries), each read twice: the second reading is a kept verdict.
        ms4, f2 = mathias_silver(4, 2, 1), rosendal(2, 3, 1)
        threshold = int(density * 1_000_000)
        for outcomes in (
            list(product(range(len(ms4.points)), repeat=3)),
            list(product(field_subspace_system(f2).family, repeat=2)),
        ):
            payoff = seeded_payoff(len(outcomes[0]), seed, density)
            for outcome in outcomes + outcomes:
                want = stable_fraction_hash(seed, _canonical_outcome(outcome)) < threshold
                assert payoff.accepts(outcome) == want

    def test_a_solve_and_its_verify_hash_each_outcome_once(self, ms6, monkeypatch):
        hashed, read = [], []
        real_hash = payoffs.stable_fraction_hash

        def counted(seed, payload):
            hashed.append(payload)
            return real_hash(seed, payload)

        monkeypatch.setattr(payoffs, "stable_fraction_hash", counted)
        seeded = seeded_payoff(2, 3)
        payoff = Payoff(2, lambda outcome: read.append(outcome) or seeded.accepts(outcome))
        result = solve(ms6, GameKind.GOWERS_G, top_subspace(ms6), payoff, Player.II)
        target = "accepts" if result.winner is Player.II else "complement"
        solved = len(read)
        assert verify_strategy(ms6, result.strategy, payoff, target=target).passed
        assert len(read) > solved
        assert len(hashed) == len(set(hashed)) == len(set(read))


class TestNaiveOracle:
    def test_agreement_on_examples(self, degenerate):
        ms = mathias_silver(4, 2, 1)
        top = top_subspace(ms)
        cases = [
            (ms, GameKind.ASYMPTOTIC_F, top, build_payoff(ms, "point_even", 1, {"index": 0}), Player.I),
            (ms, GameKind.ASYMPTOTIC_F, top, build_payoff(ms, "first_in", 1, {"labels": [0, 1, 2, 3]}), Player.I),
            (degenerate, GameKind.GOWERS_G, 0, build_payoff(degenerate, "equal_pair", 2), Player.II),
        ]
        for space, kind, root, payoff, goal in cases:
            fast = solve(space, kind, root, payoff, goal)
            slow = naive_solve_oracle(space, kind, root, payoff, goal)
            assert fast.winner == slow.winner

    @pytest.mark.parametrize("game", micro_games(), ids=lambda game: game.label)
    def test_table_matches_the_oracle_on_the_micro_suite(self, game):
        check_against_the_oracle(game)

    @pytest.mark.parametrize("game", seeded_games(), ids=lambda game: game.label)
    def test_table_matches_the_oracle_on_seeded_games(self, game):
        check_against_the_oracle(game)

    def test_empty_payoff_never_won_by_goal_owner(self, ms6):
        top = top_subspace(ms6)
        payoff = build_payoff(ms6, "nothing", 1)
        for kind in (GameKind.ASYMPTOTIC_F, GameKind.GOWERS_G):
            assert naive_solve_oracle(ms6, kind, top, payoff, Player.I).winner is Player.II

    def test_full_payoff_always_won_by_goal_owner(self, ms6):
        top = top_subspace(ms6)
        payoff = build_payoff(ms6, "everything", 1)
        for kind in (GameKind.ASYMPTOTIC_F, GameKind.GOWERS_G):
            assert naive_solve_oracle(ms6, kind, top, payoff, Player.II).winner is Player.II


class TestVerify:
    def test_truncated_table_detected(self, ms6):
        top = top_subspace(ms6)
        payoff = build_payoff(ms6, "everything", 2)
        result = solve(ms6, GameKind.GOWERS_G, top, payoff, Player.II)
        broken = Strategy(
            result.strategy.owner,
            result.strategy.kind,
            result.strategy.root,
            result.strategy.horizon,
            dict(list(result.strategy.table.items())[:1]),
        )
        with pytest.raises(StrategyIncomplete):
            verify_strategy(ms6, broken, payoff)

    @pytest.mark.parametrize("horizon", [1, 2, 4])
    def test_payoff_of_another_horizon_refused(self, horizon):
        # Outcomes of three entries used to be scored by a payoff of any
        # horizon: 17,576 plays with 7,663 accepted whatever it was.
        ms = mathias_silver(5, 2, 1)
        strat = solve(ms, GameKind.GOWERS_G, top_subspace(ms), seeded_payoff(3, 1), Player.I)
        with pytest.raises(ValueError, match="horizon"):
            verify_strategy(ms, strat.strategy, seeded_payoff(horizon, 1, 0.5))

    def test_illegal_table_move_detected_by_the_state_count(self, ms6):
        top = top_subspace(ms6)
        payoff = build_payoff(ms6, "everything", 2)
        strat = solve(ms6, GameKind.GOWERS_G, top, payoff, Player.II).strategy
        key, (move, after) = next(iter(strat.table.items()))
        strat.table[key] = (Move(move.player, point=-1), after)
        with pytest.raises(IllegalMove):
            verify_strategy(ms6, strat, payoff)

    def test_move_legal_only_at_a_sibling_state_detected(self, ms6):
        # The owner's table moves are checked at their own state, never
        # read from a move list shared between positions.
        top = top_subspace(ms6)
        payoff = build_payoff(ms6, "everything", 2)
        strat = solve(ms6, GameKind.GOWERS_G, top, payoff, Player.II).strategy
        pos0 = initial_position(GameKind.GOWERS_G, top, 2)
        siblings = [pos0.child(m) for m in legal_moves(ms6, pos0)]
        pos, move = next(
            (pos, m)
            for pos in siblings
            for other in siblings
            for m in legal_moves(ms6, other)
            if not move_legal(ms6, pos, m)
        )
        strat.table[(pos.state(), 0)] = (move, 0)
        with pytest.raises(IllegalMove):
            verify_strategy(ms6, strat, payoff)

    def test_state_count_skips_a_stranded_opponent(self):
        # Her second point must have a larger id than her first, so after
        # opening with point 1 inside {0, 1} she has no legal move: that
        # line ends without a play in the count over states as in the
        # replay, and only the line (0, 1) is counted.
        ms = mathias_silver(4, 2, 1)
        base = ms.admits
        climb = ms.derive(
            admits=lambda h, p: base(h, p) and (len(h) < 2 or h[-1] > h[0]),
            admission=FULL_HISTORY,
        )
        top = top_subspace(climb)
        payoff = build_payoff(climb, "everything", 2)
        game = MicroGame("climb/G/h2", climb, GameKind.GOWERS_G, top, payoff, Player.I)
        check_against_the_oracle(game)
        strat = solve(climb, GameKind.GOWERS_G, top, payoff, Player.I).strategy
        report = verify_strategy(climb, strat, payoff)
        assert (report.plays, report.in_accepts) == (1, 1)

    def test_misspelled_target_rejected(self, ms6):
        top = top_subspace(ms6)
        payoff = build_payoff(ms6, "everything", 1)
        strat = solve(ms6, GameKind.GOWERS_G, top, payoff, Player.II).strategy
        with pytest.raises(ValueError):
            verify_strategy(ms6, strat, payoff, target="acepts")

    def test_verification_has_no_mode(self, ms6):
        # Verification is the exhaustive count, and its report says so.
        top = top_subspace(ms6)
        payoff = build_payoff(ms6, "everything", 1)
        strat = solve(ms6, GameKind.GOWERS_G, top, payoff, Player.II).strategy
        assert verify_strategy(ms6, strat, payoff).mode == "exhaustive"
        with pytest.raises(TypeError):
            verify_strategy(ms6, strat, payoff, mode="sampled")

    def test_budget_exhaustion_raises(self, ms8):
        top = top_subspace(ms8)
        payoff = build_payoff(ms8, "everything", 2)
        with pytest.raises(ExhaustionBudget):
            solve(ms8, GameKind.GOWERS_G, top, payoff, Player.II, Budget(10, "tiny"))

    def test_replay_charges_its_budget(self, ms6):
        top = top_subspace(ms6)
        payoff = build_payoff(ms6, "everything", 2)
        strat = solve(ms6, GameKind.GOWERS_G, top, payoff, Player.II).strategy
        budget = Budget(1_000_000, "replay")
        assert verify_strategy(ms6, strat, payoff, budget=budget).passed
        assert budget.used > 0
        with pytest.raises(ExhaustionBudget):
            verify_strategy(ms6, strat, payoff, budget=Budget(10, "tiny"))

    def test_deadline_is_read_every_few_thousand_ticks(self):
        budget = Budget(10 * CLOCK_EVERY, "late", deadline=time.monotonic() - 1)
        budget.tick(CLOCK_EVERY)
        with pytest.raises(TimeExhausted, match="time budget exhausted in late"):
            budget.tick()
        assert budget.used == CLOCK_EVERY + 1

    def test_deadline_stops_a_solve(self, ms8):
        top = top_subspace(ms8)
        payoff = seeded_payoff(3, 1, 0.95)
        budget = Budget(deadline=0)
        with pytest.raises(TimeExhausted):
            solve(ms8, GameKind.GOWERS_G, top, payoff, Player.II, budget)
        assert budget.used == CLOCK_EVERY + 1

    def test_rule_expansion_charges_its_budget(self, ms6):
        top = top_subspace(ms6)
        first = lambda spc, pos: legal_moves(spc, pos)[0]  # noqa: E731
        strat = strategy_from_rule(ms6, GameKind.GOWERS_G, top, 2, Player.II, first)
        assert strat.table
        with pytest.raises(ExhaustionBudget):
            strategy_from_rule(
                ms6, GameKind.GOWERS_G, top, 2, Player.II, first, budget=Budget(10, "tiny")
            )


class TestMoveLists:
    def test_one_legal_moves_call_per_rules_key(self, monkeypatch):
        # Figures pinned from the search that called legal_moves at every
        # state (597 calls in the solve, 21 in the count).
        space = mathias_silver(5, 2, 1)
        top = top_subspace(space)
        payoff = seeded_payoff(3, 1, 0.95)
        keys = []

        def counted(spc, pos, state):
            keys.append(rules_key(spc, state))
            return legal_moves(spc, pos, state)

        monkeypatch.setattr(solver, "legal_moves", counted)
        result = solve(space, GameKind.GOWERS_G, top, payoff, Player.II)
        solve_keys, keys[:] = list(keys), []
        report = verify_strategy(space, result.strategy, payoff)
        assert len(solve_keys) == len(set(solve_keys)) == 81
        assert len(keys) == len(set(keys)) == 3
        assert result.winner is Player.II
        assert (result.nodes_expanded, len(result.strategy.table)) == (672, 572)
        assert (report.plays, report.in_accepts) == (17576, 17576)

    def test_one_position_per_memo_miss_and_one_check_per_rules_key_and_move(self, monkeypatch):
        # The solve builds no position, and the count one per memo miss.
        # Figures pinned from the walks that built every child before
        # reading the memo (1,196 positions in the solve, then 671, one
        # per memo miss, until the solve read states only) and checked
        # every table move at its own position (546 move_legal calls in
        # the count, for 88 distinct (rules key, move) pairs).  The nodes,
        # entries, plays and ticks are theirs too.
        space = mathias_silver(5, 2, 1)
        top = top_subspace(space)
        payoff = seeded_payoff(3, 1, 0.95)
        children = []
        checked = []
        child = GamePosition.child

        def counted_child(pos, *args):
            children.append(pos)
            return child(pos, *args)

        def counted_legal(spc, pos, move):
            checked.append((rules_key(spc, pos.state()), move))
            return move_legal(spc, pos, move)

        monkeypatch.setattr(GamePosition, "child", counted_child)
        monkeypatch.setattr(solver, "move_legal", counted_legal)
        budget = Budget()
        result = solve(space, GameKind.GOWERS_G, top, payoff, Player.II, budget)
        assert (result.nodes_expanded, len(result.strategy.table), budget.used) == (672, 572, 672)
        assert children == []
        budget = Budget()
        report = verify_strategy(space, result.strategy, payoff, budget=budget)
        assert (report.plays, report.in_accepts, budget.used) == (17576, 17576, 631)
        assert len(children) == budget.used - 1 == 630
        assert len(checked) == len(set(checked)) == 88

    def test_solves_share_the_instance_moves_in_fresh_lists(self, monkeypatch):
        # Each distinct move is built once per instance: a second solve
        # on the instance is handed the first one's move objects, in
        # lists of its own, and a derived view builds its own moves.
        space = mathias_silver(5, 2, 1)
        top = top_subspace(space)
        payoff = seeded_payoff(3, 1, 0.95)
        lists = []

        def kept(spc, pos, state):
            lists.append((rules_key(spc, state), legal_moves(spc, pos, state)))
            return lists[-1][1]

        monkeypatch.setattr(solver, "legal_moves", kept)
        for spc in (space, space, space.derive()):
            solve(spc, GameKind.GOWERS_G, top, payoff, Player.II)
        first, second, derived = (lists[i:i + 81] for i in (0, 81, 162))
        assert len(lists) == 3 * 81
        for (key, a), (again, b), (_, c) in zip(first, second, derived):
            assert key == again and a == b == c and a is not b
            assert all(x is y for x, y in zip(a, b))
            assert not any(x is z for x, z in zip(a, c))

    def test_a_move_legal_at_one_rules_key_is_checked_again_at_another(self, ms6):
        # The replay checks a table move once per (rules key, move).  One
        # move object, legal after the first subspace he plays and illegal
        # after a later one, is refused at the later one; a check
        # remembered by the move alone would let it through.
        top = top_subspace(ms6)
        payoff = build_payoff(ms6, "everything", 2)
        strat = solve(ms6, GameKind.GOWERS_G, top, payoff, Player.II).strategy
        pos0 = initial_position(GameKind.GOWERS_G, top, 2)
        firsts = [pos0.child(m) for m in legal_moves(ms6, pos0)]  # in the replay's order
        earlier, later = next(
            (a, b)
            for i, a in enumerate(firsts)
            for b in firsts[i + 1:]
            if not move_legal(ms6, b, strat.table[(a.state(), 0)][0])
        )
        assert rules_key(ms6, earlier.state()) != rules_key(ms6, later.state())
        strat.table[(later.state(), 0)] = strat.table[(earlier.state(), 0)]
        with pytest.raises(IllegalMove):
            verify_strategy(ms6, strat, payoff)

    @pytest.mark.parametrize("admission", [FORGETFUL, FULL_HISTORY])
    def test_legality_keeps_both_verdicts_per_rules_key_and_move(self, admission, monkeypatch):
        # Two of her points after his first subspace leave states that
        # differ in the point prefix only, which forgetful admission
        # does not read: his next move is checked once there, and twice
        # when admission reads the full history.  A refusal is kept too.
        space = mathias_silver(5, 2, 1).derive(admission=admission)
        top = top_subspace(space)
        checked = []

        def counted_legal(spc, pos, move):
            checked.append(move)
            return move_legal(spc, pos, move)

        monkeypatch.setattr(solver, "move_legal", counted_legal)
        legal = solver.legality(space)
        first = initial_position(GameKind.GOWERS_G, top, 2).child(Move(Player.I, subspace=top))
        his, wrong = Move(Player.I, subspace=top), Move(Player.II, point=0)
        for point in legal_moves(space, first)[:2]:
            pos = first.child(point)
            for _ in range(2):
                assert legal(pos, his) and not legal(pos, wrong)
        assert len(checked) == (2 if admission == FORGETFUL else 4)

    def test_strategy_from_rule_checks_each_rules_key_and_move_once(self, ms6, monkeypatch):
        # The wrapper used to check the rule's move at every state the
        # walk reached.
        top = top_subspace(ms6)
        checked = []

        def counted_legal(spc, pos, move):
            checked.append((rules_key(spc, pos.state()), move))
            return move_legal(spc, pos, move)

        monkeypatch.setattr(solver, "move_legal", counted_legal)
        strat = strategy_from_rule(
            ms6, GameKind.GOWERS_G, top, 3, Player.I, lambda spc, pos: Move(Player.I, subspace=top)
        )
        assert len(checked) == len(set(checked)) < len(strat.table)


class TestMealyTables:
    def test_expand_keeps_the_memory_a_state_needs(self):
        space = mathias_silver(4, 2, 1)
        strat, rule = remembering_strategy(space, 2)
        assert not strat.memoryless
        states = {state for state, _ in strat.table}
        assert len(states) < len(strat.table)
        # Memory 0 at the root, then one per subspace of his first move,
        # numbered in the order the walk first meets them.
        firsts = [(m, after) for (state, m), (_, after) in strat.table.items() if state[0] == 1]
        assert [m for m, _ in firsts] == [0] * len(firsts)
        assert [after for _, after in firsts] == list(range(1, len(firsts) + 1))
        # Replayed over histories, the table is the history walk's table.
        by_history: dict = {}
        pos0 = initial_position(strat.kind, strat.root, strat.horizon)
        walk_histories(space, pos0, Player.II, rule, table=by_history)
        assert over_histories(space, strat) == by_history

    def test_count_over_pairs_matches_the_replay_of_every_history(self):
        space = mathias_silver(4, 2, 1)
        strat, _ = remembering_strategy(space, 3)
        payoff = seeded_payoff(3, 5, 0.5)
        report = verify_strategy(space, strat, payoff)
        history = replace(strat, table=over_histories(space, strat))
        assert (report.plays, report.in_accepts) == count_histories(
            space, history, _score(space, payoff)
        )
        assert 0 < report.in_accepts < report.plays

    def test_memory_survives_a_round_trip(self):
        import json

        space = mathias_silver(4, 2, 1)
        strat, _ = remembering_strategy(space, 2)
        again = Strategy.from_json(json.loads(json.dumps(strat.to_json())))
        assert again == strat and not again.memoryless
        payoff = seeded_payoff(2, 5, 0.5)
        one, two = (verify_strategy(space, s, payoff) for s in (strat, again))
        assert (one.plays, one.in_accepts) == (two.plays, two.in_accepts)

    def test_move_at_reads_memory_zero(self):
        space = mathias_silver(4, 2, 1)
        top = top_subspace(space)
        strat = solve(space, GameKind.GOWERS_G, top, seeded_payoff(2, 1), Player.II).strategy
        assert all(not memory and not after for (_, memory), (_, after) in strat.table.items())
        pos0 = initial_position(GameKind.GOWERS_G, top, 2)
        positions = [pos0] + [pos0.child(m) for m in legal_moves(space, pos0)]
        pos = next(p for p in positions if (p.state(), 0) in strat.table)
        assert strat.move_at(pos) == strat.table[(pos.state(), 0)][0]
        with pytest.raises(StrategyIncomplete):
            strat.move_at(initial_position(GameKind.ASYMPTOTIC_F, top, 2))


class TestDeterminacyProperties:
    def test_exactly_one_winner_with_verified_strategy(self, ms6):
        top = top_subspace(ms6)
        for seed in (11, 12):
            payoff = seeded_payoff(1, seed)
            for kind in (GameKind.ASYMPTOTIC_F, GameKind.GOWERS_G, GameKind.KASTANAS):
                horizon = 2 if kind is GameKind.KASTANAS else 1
                pay = seeded_payoff(horizon, seed)
                result = solve(ms6, kind, top, pay, Player.I)
                target = "accepts" if result.winner is Player.I else "complement"
                assert verify_strategy(ms6, result.strategy, pay, target=target).passed

    def test_monotonicity_in_the_target(self, ms6):
        # Enlarging the accepted set never flips the winner away from the
        # goal owner.
        top = top_subspace(ms6)
        for seed in (21, 22, 23):
            small = seeded_payoff(1, seed, density=0.3)
            union = Payoff(
                1,
                lambda s, a=small.accepts, b=seeded_payoff(1, seed + 50, 0.3).accepts: a(s) or b(s),
                "union",
            )
            for kind in (GameKind.ASYMPTOTIC_F, GameKind.GOWERS_G):
                first = solve(ms6, kind, top, small, Player.I)
                second = solve(ms6, kind, top, union, Player.I)
                if first.winner is Player.I:
                    assert second.winner is Player.I

    def test_complement_flips_roles_in_degenerate_game(self, degenerate):
        payoff = build_payoff(degenerate, "equal_pair", 2)
        a = solve(degenerate, GameKind.GOWERS_G, 0, payoff, Player.II)
        b = solve(degenerate, GameKind.GOWERS_G, 0, negate(payoff), Player.I)
        assert a.winner is Player.II and b.winner is Player.II


def _stranding_views() -> list:
    """Two views of ``mathias_silver(4, 2, 1)`` on which a line strands a
    player: under "climb" (full-history admission) a second point must
    have a larger id than the first, which can leave the chooser no
    point; under "bare-pairs" no two-point subspace lies below itself,
    so the subspace player has no move below one."""
    ms = mathias_silver(4, 2, 1)
    admits, leq = ms.admits, ms.leq
    pairs = frozenset(q for q, label in enumerate(ms.palette) if len(label) == 2)
    climb = ms.derive(
        name="climb",
        admits=lambda h, p: admits(h, p) and (len(h) < 2 or h[-1] > h[0]),
        admission=FULL_HISTORY,
    )
    bare = ms.derive(name="bare-pairs", leq=lambda p, q: leq(p, q) and not (p == q and q in pairs))
    return [("climb", climb, "ms"), ("bare-pairs", bare, "ms")]


def _pruning_views() -> list:
    """Three views that the search's pruning of dominated subspaces must
    read right.  On "twins" the pair {0} and {0, 1} are <=-equivalent
    and both admit the point 0 alone, so their signatures are equal and
    only the lower id may dominate the other: they are his two moves in
    G that force an even point.  On "late-strand" (length-indexed
    admission) no point is admitted below the top subspace after two
    points, while after one all of its points are: in A his pair with
    the top strands her, though a smaller subspace dominates the top in
    a signature read one point short.  On "skip" {1} <= {0} <= {0, 2}
    but not {1} <= {0, 2}, so {0} leaves the player who answers it in K
    the subspace {1}, which {0, 2} does not: its signature is no subset
    of {0, 2}'s, though its points are."""
    twins = mathias_silver(3, 1, 0, explicit_palette=[(0,), (0, 1), (0, 1, 2)])
    admits, leq = twins.admits, twins.leq
    twins = twins.derive(
        name="twins",
        leq=lambda p, q: leq(p, q) or (p, q) == (1, 0),
        admits=lambda h, p: admits(h, 0 if p == 1 else p),
    )
    ms = mathias_silver(3, 2, 1)
    top, ms_admits = top_subspace(ms), ms.admits
    late = ms.derive(
        name="late-strand",
        admits=lambda h, p: ms_admits(h, p) and not (len(h) == 2 and p == top),
        admission=LENGTH_INDEXED,
    )
    ms = mathias_silver(3, 1, 0, explicit_palette=[(0,), (1,), (0, 2), (0, 1, 2)])
    skip_leq = ms.leq
    skip = ms.derive(name="skip", leq=lambda p, q: skip_leq(p, q) or (p, q) == (1, 0))
    return [("twins", twins, "ms"), ("late-strand", late, "ms"), ("skip", skip, "ms")]


def _discretized_grid():
    grid = grid_sphere(2, "1/2", 1)
    return discretize(grid, range(len(grid.points)), DeltaSeq.of("1/2", "1"))


# (label, instance, family): the family names the registry payoffs the
# instance's point labels can be read by.
ROOTS_INSTANCES = [
    ("ms421", mathias_silver(4, 2, 1), "ms"),
    ("ms521", mathias_silver(5, 2, 1), "ms"),
    ("ms431", mathias_silver(4, 3, 1), "ms"),
    ("ros231", rosendal(2, 3, 1), "vector"),
    ("ros321", rosendal(3, 2, 1), "vector"),
    ("disc", _discretized_grid(), "grid"),
] + _stranding_views() + _pruning_views() + [(label, space, "ms") for label, space in corpus(20)]
ROOTS_GAMES = [("F", 1), ("F", 2), ("G", 1), ("G", 2), ("A", 2), ("B", 2), ("K", 2)]


def _root_payoffs(space, family, horizon) -> list:
    """Seeded payoffs, and the registry payoffs the pipelines workload's
    dichotomy sweeps read, at ``horizon``."""
    payoffs = [seeded_payoff(horizon, seed, 0.5) for seed in (1, 2)]
    index = horizon - 1
    if family == "ms":
        payoffs.append(build_payoff(space, "point_even", horizon, {"index": index}))
        payoffs.append(build_payoff(space, "increasing", horizon))
    elif family == "vector":
        params = {"value": 1, "index": index}
        payoffs.append(build_payoff(space, "first_nonzero_is", horizon, params))
    return payoffs


class TestWinningRoots:
    """``winning_roots`` against one ``solve`` per root
    (``oracle.per_root_winners``)."""

    @pytest.mark.parametrize("kind,horizon", ROOTS_GAMES, ids=[f"{k}-h{h}" for k, h in ROOTS_GAMES])
    @pytest.mark.parametrize(
        "space,family", [case[1:] for case in ROOTS_INSTANCES], ids=[c[0] for c in ROOTS_INSTANCES]
    )
    def test_each_root_bit_is_the_solve_verdict(self, space, family, kind, horizon):
        every = (1 << len(space.palette)) - 1
        alternate = every & int("01" * len(space.palette), 2)
        for payoff in _root_payoffs(space, family, horizon):
            for goal in (Player.I, Player.II):
                want = per_root_winners(space, GameKind(kind), every, payoff, goal)
                assert winning_roots(space, GameKind(kind), every, payoff, goal) == want
                # A move's mask is read within the roots asked for.
                got = winning_roots(space, GameKind(kind), alternate, payoff, goal)
                assert got == want & alternate

    def test_the_stranding_views_strand_each_player(self):
        # No play is in "nothing", so a goal owner wins a root only by
        # stranding the other player on every line: the differential
        # above reads the stranding convention on both views.
        climb, bare = (space for _, space, _ in _stranding_views())
        # On "climb" he leaves her no larger second point.
        every = (1 << len(climb.palette)) - 1
        nothing = build_payoff(climb, "nothing", 2)
        assert winning_roots(climb, GameKind.GOWERS_G, every, nothing, Player.I)
        # On "bare-pairs" she opens the nested game with a pair, and he
        # has no subspace below it.
        assert winning_roots(bare, GameKind.KASTANAS, every, nothing, Player.II)

    def test_the_pruning_views_need_their_one_move(self):
        twins, late, skip = (space for _, space, _ in _pruning_views())
        # His {0} (id 0) in G, or its equivalent twin {0, 1} (id 1),
        # which also admits only 0, forces an even point below every root.
        even = build_payoff(twins, "point_even", 1, {"index": 0})
        assert winning_roots(twins, GameKind.GOWERS_G, 0b111, even, Player.I) == 0b111
        # His pair with the top strands her at the top root and nowhere
        # else, since below a pair no subspace but itself is lessapprox it.
        every = (1 << len(late.palette)) - 1
        nothing = build_payoff(late, "nothing", 2)
        top = top_subspace(late)
        assert winning_roots(late, GameKind.ADVERSARIAL_A, every, nothing, Player.I) == 1 << top
        # In K she opens with {0, 2} (id 2) below it and the top, and
        # answers an even point below whatever he plays; below {0} he
        # would play {1} and force her odd point.
        even = build_payoff(skip, "point_even", 2, {"index": 1})
        assert winning_roots(skip, GameKind.KASTANAS, 0b1111, even, Player.II) == 0b1100

    def test_no_roots_no_search(self, ms6):
        budget = Budget(1, "empty")
        payoff = seeded_payoff(1, 1)
        assert winning_roots(ms6, GameKind.GOWERS_G, 0, payoff, Player.I, budget) == 0
        assert budget.used == 0

    def test_the_search_runs_in_the_ticks_it_charges(self, ms6):
        top = top_subspace(ms6)
        payoff = seeded_payoff(2, 5)
        roots = ms6._leq_column(top)
        budget = Budget(10_000_000, "roots")
        winning_roots(ms6, GameKind.GOWERS_G, roots, payoff, Player.I, budget)
        assert budget.used > 0
        with pytest.raises(ExhaustionBudget):
            winning_roots(ms6, GameKind.GOWERS_G, roots, payoff, Player.I, Budget(budget.used - 1, "x"))
        winning_roots(ms6, GameKind.GOWERS_G, roots, payoff, Player.I, Budget(budget.used, "x"))

    def test_the_game_is_checked_as_solve_checks_it(self, ms6):
        top = top_subspace(ms6)
        with pytest.raises(ValueError):
            winning_roots(ms6, GameKind.ADVERSARIAL_A, 1 << top, seeded_payoff(1, 1), Player.I)
