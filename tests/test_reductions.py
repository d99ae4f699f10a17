"""Strategy transformations, each replayed against exhaustive adversaries.

The contract under test everywhere: a transformation either produces a
strategy that passes exhaustive verification at the input's horizon, or
raises FiniteExhaustion naming the failing step.  Silent degradation is
the one outcome these tests exist to rule out.
"""

from dataclasses import replace
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
from gowerslab import approx, solver, with_system
from gowerslab.approx import (
    DeltaSeq,
    approx_asymptotic_from_gowers,
    discretize,
    enumerate_block_sequences,
    expanded_target,
    lift_strategy,
    ms_singleton_system,
    restrict_payoff,
    strong_asymptotic_from_asymptotic,
)
from gowerslab.cli import RULES
from gowerslab.errors import Budget, FiniteExhaustion, PigeonholeUnavailable, StrategyRefused
from gowerslab.games import GamePosition, initial_position, legal_moves, move_legal, play_outcome
from gowerslab.instances import (
    counterexample_sets,
    grid_sphere,
    mathias_silver,
    provider_for,
    rosendal,
    top_subspace,
)
from gowerslab.payoffs import Payoff
from gowerslab import reductions
from gowerslab.reductions import (
    adversarial_from_kastanas,
    asymptotic_from_gowers,
    check_diagonalization,
    check_ramsey_dichotomy,
    continuation_tables,
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
from gowerslab.solver import expand, legality, table_rule
import oracle
from corpus import corpus_space
from historywalk import count_histories, over_histories, walk_histories
from microsuite import remembering_strategy


def constant_rule(subspace):
    def play(space, pos):
        return Move(Player.I, subspace=subspace)

    return play


def odd_responder(ms):
    return RULES["stay-in-set"](ms, {"labels": [x for x in range(len(ms.points)) if x % 2]})


def _point_odd(ms):
    return build_payoff(ms, "point_odd", 2, {"index": 1})


# The nested-game strategies the transfer tests and the benchmark's
# pipelines hand to ``adversarial_from_kastanas``: label -> (the
# Mathias-Silver parameters, the payoff, the owner, and her hand rule's
# labels, or None for a solved strategy).
NESTED = {
    "II/ms8-hand-h2": ((8, 2, 1), _point_odd, Player.II, [1, 3, 5, 7]),
    "II/ms6-everything-h2": (
        (6, 2, 1), lambda ms: build_payoff(ms, "everything", 2), Player.II, list(range(6))
    ),
    "II/ms10-hand-h2": ((10, 2, 1), _point_odd, Player.II, [1, 3, 5, 7, 9]),
    "I/ms6-h2": (
        (6, 2, 1),
        lambda ms: build_payoff(ms, "first_in", 2, {"labels": [1, 2, 3, 4, 5]}),
        Player.I,
        None,
    ),
    "I/ms3-h4": (
        (3, 2, 1),
        lambda ms: Payoff(4, lambda s: s[0] <= 1 and s[2] <= 1, "small-firsts"),
        Player.I,
        None,
    ),
    "II/ms3-h4": ((3, 2, 1), lambda ms: seeded_payoff(4, 40, density=0.15), Player.II, None),
    "II/ms4-h4": ((4, 3, 1), lambda ms: seeded_payoff(4, 86, 0.2), Player.II, None),
    "I/ms4-h4": ((4, 3, 1), lambda ms: seeded_payoff(4, 70, 0.85), Player.I, None),
}


def _nested_rounds(label):
    """``(space, tau, rounds)`` for a ``NESTED`` case: per diagonal round
    of its transfer, the nested states, their continuation tables, the
    chain element before the round and the round's diagonal subspace,
    advanced as
    ``adversarial_from_kastanas`` advances them.  Her transfer at
    horizon 2 has no diagonal round; its one round here is the
    diagonalization of her opening state below the root."""
    args, make_payoff, owner, labels = NESTED[label]
    space = mathias_silver(*args)
    tau = _nested_strategy(space, make_payoff(space), owner, labels)
    if owner is Player.II:
        states = [reductions._opening_state(tau, tau.horizon)]
        r, n_rounds = states[0].moves[0].subspace, tau.horizon // 2 - 1
    else:
        states = [initial_position(GameKind.KASTANAS, tau.root, tau.horizon)]
        r, n_rounds = tau.root, tau.horizon // 2
    rounds = []
    for _ in range(max(n_rounds, 1)):
        tables = continuation_tables(space, states, tau)
        q = diagonalize_states(space, tables, r)
        rounds.append((states, tables, r, q))
        states = reductions._stored_pairs_for(space, tables, q, Budget())[1]
        r = q
    return space, tau, rounds


def _table_against_scan(label) -> tuple:
    """Assert that the chain, its check and the stored pairs of every
    round of a ``NESTED`` case equal the scan's, ticks included, and
    return the numbers of violations the checks found and of pairs
    stored.  The checks run against the round's diagonal subspace, where
    they must find none, and against subspaces the chain passed
    through.  Her last reply is a bare point, so at horizon 2 her
    opening state has no candidate continuation at all."""
    space, tau, rounds = _nested_rounds(label)
    legal = legality(space)
    violations = stored = 0
    for states, tables, r, q in rounds:
        mine, ref = Budget(), Budget()
        assert diagonalize_states(space, tables, r, mine) == q
        assert oracle.diagonalize_by_scan(space, states, tau, r, legal, ref) == q
        assert mine.used == ref.used > 0
        below = space.below(r)
        for r_star in {q, r, *below[:: max(1, len(below) // 6)]}:
            mine, ref = Budget(), Budget()
            bad = check_diagonalization(space, states, tau, r_star, mine)
            assert bad == oracle.check_by_scan(space, states, tau, r_star, ref)
            assert mine.used == ref.used and (bad == [] or r_star != q)
            violations += len(bad)
        mine, ref = Budget(), Budget()
        got = reductions._stored_pairs_for(space, tables, q, mine)
        assert got == oracle.stored_pairs_by_scan(space, legal, states, tau, q, ref)
        assert mine.used == ref.used
        stored += len(got[0])
    return violations, stored


class TestContinuationTable:
    """The chain, its check and the stored pairs read one continuation
    table per nested state; each must give what a scan of the candidate
    continuations per (state, a, b) triple gives (``oracle``), with the
    same ticks."""

    @pytest.mark.parametrize("label", list(NESTED))
    def test_the_table_agrees_with_the_scan(self, label):
        _table_against_scan(label)

    def test_the_comparisons_are_not_vacuous(self):
        # Else they would hold of a check that reports nothing, or of a
        # table that stores nothing.
        counts = [_table_against_scan(label) for label in NESTED]
        assert all(map(sum, zip(*counts)))

    def test_stored_pairs_take_the_reply_from_the_table(self, monkeypatch):
        # A stored pair's next state is its adversary move (a, u) and the
        # reply (b, v) the table holds, which is what tau plays there.
        # Her horizon-2 transfers store no pair, so the cases run as one.
        reads, checked = [], 0
        for label in NESTED:
            space, tau, rounds = _nested_rounds(label)
            for _, tables, _, q in rounds:
                with monkeypatch.context() as patch:
                    patch.setattr(solver.Strategy, "move_at", lambda tau, pos: reads.append(pos))
                    stored, next_states = reductions._stored_pairs_for(space, tables, q, Budget())
                assert len(next_states) == len(stored)
                for ((state, a, b), (u, v)), after in zip(stored.items(), next_states):
                    mid = GamePosition(after.kind, after.root, after.horizon, after.moves[:-1])
                    before = GamePosition(mid.kind, mid.root, mid.horizon, mid.moves[:-1])
                    assert before.state() == state
                    assert mid == before.child(Move(before.to_move, point=a, subspace=u))
                    assert tau.move_at(mid) == Move(mid.to_move, point=b, subspace=v)
                    assert after == mid.child(tau.move_at(mid))
                    checked += 1
        assert reads == [] and checked > 0

    @pytest.mark.parametrize("label", list(NESTED))
    def test_the_strategy_is_read_once_per_legal_continuation(self, label, monkeypatch):
        # One table per nested state and round serves the chain and the
        # stored pairs, so a transfer reads each legal continuation of
        # its diagonal rounds' states once.
        args, make_payoff, owner, labels = NESTED[label]
        space = mathias_silver(*args)
        payoff = make_payoff(space)
        tau = _nested_strategy(space, payoff, owner, labels)
        real_tables, real_read = continuation_tables, solver.Strategy.move_at
        rounds, reads, tabling = [], [], []

        def counted(strategy, pos):
            if tabling:
                reads.append(pos)
            return real_read(strategy, pos)

        def tables(space, states, tau):
            tabling.append(True)
            rounds.append(states)
            try:
                return real_tables(space, states, tau)
            finally:
                tabling.clear()

        monkeypatch.setattr(solver.Strategy, "move_at", counted)
        monkeypatch.setattr(reductions, "continuation_tables", tables)
        adversarial_from_kastanas(space, tau, owner, payoff)
        assert len(rounds) == tau.horizon // 2 - (owner is Player.II)
        tabled = [pos for states in rounds for pos in states]
        continuations = [pos.child(m) for pos in tabled for m in legal_moves(space, pos)]
        assert len(tabled) == len(set(tabled))
        assert len(reads) == len(set(reads)) and set(reads) == set(continuations)


class TestDiagonalization:
    """The chain's postcondition on states that have candidate
    continuations: the nested states of the ``NESTED`` transfers."""

    def test_empty_state_list_is_vacuous(self, ms8):
        top = top_subspace(ms8)
        out = diagonalize_states(ms8, [], top)
        assert ms8.leq(out, top)

    @pytest.mark.parametrize("label", list(NESTED))
    def test_single_state_postcondition(self, label):
        _single_state_postcondition(label)

    def test_the_postcondition_is_not_vacuous(self):
        # Her horizon-2 openings have no candidate at all; a check that
        # skipped the star test would find no violation.
        counts = map(sum, zip(*map(_single_state_postcondition, NESTED)))
        assert all(count > 0 for count in counts)

    def test_reply_ignoring_strategy_stabilizes(self):
        # A responder whose replies never depend on the probe, at a
        # horizon where her opening state has candidate continuations.
        ms4 = mathias_silver(4, 2, 1)
        top = top_subspace(ms4)
        tau = _nested_strategy(ms4, build_payoff(ms4, "everything", 4), Player.II, [0, 1, 2, 3])
        states = [reductions._opening_state(tau, tau.horizon)]
        tables = continuation_tables(ms4, states, tau)
        assert any(by_reply for _, table in tables for by_reply in table.values())
        out = diagonalize_states(ms4, tables, top)
        assert check_diagonalization(ms4, states, tau, out) == []


def _single_state_postcondition(label) -> tuple:
    """Diagonalize each nested state of each round of a ``NESTED`` case
    alone, below the round's chain element, assert that the result lies
    below it, that its check finds nothing and that every stored pair's
    reply subspace is compatible with it and star-above it.  Below the
    chain element, the check must report exactly the (a, b) whose
    candidates hold a reply subspace compatible with the subspace checked
    and none also star-above it.  Returns the numbers of compatible
    (state, a, b) triples, of stored pairs and of violations reported."""
    space, tau, rounds = _nested_rounds(label)
    compatible = stored = violations = 0
    for states, _, r, _ in rounds:
        for pos in states:
            tables = continuation_tables(space, [pos], tau)
            [(_, table)] = tables
            q = diagonalize_states(space, tables, r)
            assert space.leq(q, r)
            assert check_diagonalization(space, [pos], tau, q) == []
            pairs, _ = reductions._stored_pairs_for(space, tables, q, Budget())
            for u, v in pairs.values():
                assert space.compatible(v, q) and space.leq_star(q, v)
            compatible += sum(
                any(space.compatible(v, q) for _, v in candidates)
                for by_reply in table.values()
                for candidates in by_reply.values()
            )
            stored += len(pairs)
            for r_star in space.below(r):
                bad = check_diagonalization(space, [pos], tau, r_star)
                assert bad == [
                    (0, a, b)
                    for a, by_reply in table.items()
                    for b in range(len(space.points))
                    if any(space.compatible(v, r_star) for _, v in by_reply.get(b, ()))
                    and not any(
                        space.compatible(v, r_star) and space.leq_star(r_star, v)
                        for _, v in by_reply.get(b, ())
                    )
                ]
                violations += len(bad)
    return compatible, stored, violations


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
        assert result.winner is Player.I and result.strategy.memoryless
        reread = reinterpret_adversarial(result.strategy)
        assert reread.kind is GameKind.ADVERSARIAL_B and reread.memoryless
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


class TestKastanasRound:
    """One simulated round on a hand-built nested-game table for her, in
    which the stored reply subspace v is not below q: the fictive probe
    and the stored continuation differ in his subspace, and her fictive
    and stored replies differ in theirs."""

    @pytest.fixture(scope="class")
    def played(self):
        ms = mathias_silver(4, 2, 1)
        top = top_subspace(ms)
        label = ms.palette.index
        q, u, v = label((0, 1, 2)), top, label((0, 2, 3))
        sim = initial_position(GameKind.KASTANAS, top, 4).child(Move(Player.II, subspace=top))
        probe = Move(Player.I, point=0, subspace=label((1, 2, 3)))
        fict_reply = Move(Player.II, point=2, subspace=label((1, 2)))
        real_mid = sim.child(Move(Player.I, point=0, subspace=u))
        real_reply = Move(Player.II, point=2, subspace=v)
        for pos, move in [
            (sim, probe),
            (sim.child(probe), fict_reply),
            (sim, real_mid.moves[-1]),
            (real_mid, real_reply),
        ]:
            assert move_legal(ms, pos, move)
        tau = solver.Strategy(Player.II, GameKind.KASTANAS, top, 4, verified=True)
        tau.table[(sim.child(probe).state(), 0)] = (fict_reply, 0)
        tau.table[(real_mid.state(), 0)] = (real_reply, 0)
        stored = [{(sim.state(), 0, 2): (u, v)}]
        assert not ms.leq(v, q)
        out = reductions._kastanas_round(
            ms, tau, q, [top, q], stored, sim, 0, probe, "answer meet"
        )
        return ms, q, (u, v), (fict_reply, real_mid.moves[-1], real_reply), out

    def test_answer_is_the_stored_reply_met_with_q(self, played):
        ms, q, (u, v), (fict_reply, _, _), (fict, pair, answer, _) = played
        assert (fict, pair) == (fict_reply, (u, v))
        met = ms.meet_witness(q, v)
        assert met != v
        assert answer == Move(Player.II, point=2, subspace=met)

    def test_real_state_carries_the_stored_pair(self, played):
        _, _, (u, v), (_, real_probe, real_reply), (_, _, _, real) = played
        assert real.moves[-2:] == (real_probe, real_reply)
        assert (real.moves[-2].subspace, real.moves[-1].subspace) == (u, v)
        assert real.state()[2] == v


def test_his_next_probe_meets_his_real_subspace(monkeypatch):
    # His shadow is the real nested state after his stored reply (u, v),
    # with v strictly below u; her next round move s is probed as the
    # meet of s with v, his real subspace, which differs from the meet
    # with u.  The walk and the round are stubbed so the rule is driven
    # at one hand-built position.
    ms = mathias_silver(4, 2, 1)
    top = top_subspace(ms)
    label = ms.palette.index
    q = s = label((1, 2, 3))
    u, v = top, label((0, 2, 3))
    real = (
        initial_position(GameKind.KASTANAS, top, 4)
        .child(Move(Player.II, subspace=u))
        .child(Move(Player.I, point=0, subspace=v))
    )
    her_pos = initial_position(GameKind.ADVERSARIAL_A, q, 4)
    for move in [
        Move(Player.II, subspace=q),
        Move(Player.I, point=1, subspace=q),
        Move(Player.II, point=2, subspace=s),
    ]:
        assert move_legal(ms, her_pos, move)
        her_pos = her_pos.child(move)
    assert ms.meet_witness(s, v) != ms.meet_witness(s, u)

    walked, probes = {}, []

    def walk(space, pos0, owner, rule, **kwargs):
        walked["rule"] = rule

    def one_round(space, tau, q, chain, stored_by_round, sim_pos, n, probe, meet_stage):
        probes.append((sim_pos, n, probe))
        return probe, None, Move(Player.I, point=3, subspace=q), sim_pos

    monkeypatch.setattr(reductions, "expand", walk)
    monkeypatch.setattr(reductions, "_kastanas_round", one_round)
    strategy = solver.Strategy(Player.I, GameKind.ADVERSARIAL_A, q, 4)
    transfer = reductions.KastanasTransfer(q, strategy, [top, q])
    reductions._build_first_player(ms, None, q, [top, q], [], transfer, None)
    walked["rule"](her_pos, (real, 0))
    assert probes == [(real, 1, Move(Player.II, point=2, subspace=ms.meet_witness(s, v)))]


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

    def test_budget_pins_the_exact_transfer(self, ms6):
        top = top_subspace(ms6)
        payoff = Payoff(2, lambda s: all(x >= 1 for x in s), "all-nonzero")
        result = solve(ms6, GameKind.GOWERS_G, top, payoff, Player.II)
        budget = Budget()
        asymptotic_from_gowers(ms6, result.strategy, payoff, provider_for(ms6), budget)
        assert budget.used == 519

    def test_exact_transfer_refused_where_the_approximate_one_succeeds(self, grid_half):
        # Radius zero asks the pigeonhole principle to hold exactly, which
        # it does not on the grid sphere; at delta 1/2 it holds up to
        # expansion and the transfer goes through.
        payoff = _lex_positive_first(grid_half)
        result = solve(grid_half, GameKind.GOWERS_G, top_subspace(grid_half), payoff, Player.II)
        assert result.winner is Player.II
        budget = Budget()
        with pytest.raises(PigeonholeUnavailable):
            asymptotic_from_gowers(
                grid_half, result.strategy, payoff, provider_for(grid_half), budget
            )
        assert budget.used == 118
        _, strategy, target, _ = _approx_from_solved(grid_half, ("1/2", "1/2"))
        assert strategy.memoryless
        assert verify_strategy(grid_half, strategy, target).passed

    def test_counterexample_payoff_refused_by_provider(self, f3d4):
        top = top_subspace(f3d4)
        target = counterexample_sets(f3d4, "FirstCoordOne")
        payoff = Payoff(1, lambda s: s[0] in target, "first-coord-one")
        result = solve(f3d4, GameKind.GOWERS_G, top, payoff, Player.II)
        assert result.winner is Player.II
        with pytest.raises(PigeonholeUnavailable):
            asymptotic_from_gowers(f3d4, result.strategy, payoff, provider_for(f3d4))


# -- the chooser-game transfers, walked over states and over histories ---------------


def _gowers_from_constant(space, subspace, payoff_name):
    top = top_subspace(space)
    payoff = build_payoff(space, payoff_name, 2)
    tau = verified(
        space,
        strategy_from_rule(
            space,
            GameKind.ASYMPTOTIC_F,
            top,
            2,
            Player.I,
            constant_rule(top if subspace is None else subspace),
        ),
        payoff,
    )
    return space, gowers_from_asymptotic(space, tau, payoff), payoff, "accepts"


def _asymptotic_from_solved(space, payoff):
    result = solve(space, GameKind.GOWERS_G, top_subspace(space), payoff, Player.II)
    assert result.winner is Player.II
    transfer = asymptotic_from_gowers(space, result.strategy, payoff, provider_for(space))
    return space, transfer.strategy, payoff, "accepts"


def _unfolded(space, horizon):
    decorated = decorate_space(space)
    if horizon == 1:
        payoff_prime = Payoff(1, lambda s: decorated.points[s[0]] == (3, 1), "hit-3-bit1")
    else:
        payoff_prime = Payoff(
            2,
            lambda s: decorated.points[s[0]] == (3, 1) or decorated.points[s[1]] == (5, 0),
            "decorated-pair",
        )
    result = solve(
        decorated, GameKind.ASYMPTOTIC_F, top_subspace(space), negate(payoff_prime), Player.I
    )
    tau = unfold_asymptotic(space, result.strategy, payoff_prime)
    return space, tau, projected_payoff(payoff_prime), "complement"


def _evens(space):
    return space.palette.index((0, 2, 4, 6))


def _f3_counterexample():
    f3 = rosendal(3, 4, 1)
    target = counterexample_sets(f3, "FirstCoordOne")
    return _asymptotic_from_solved(f3, Payoff(1, lambda s: s[0] in target, "first-coord-one"))


def _lex_positive_first(grid):
    # Her target at horizon 2: the first entry's first nonzero coordinate is positive.
    return Payoff(
        2, lambda s: next(c for c in grid.points[s[0]] if c != 0) > 0, "lex-positive"
    )


def _approx_from_solved(grid, delta):
    """His approximate transfer from her solved strategy, verified against
    the tripled expansion of the target."""
    payoff = _lex_positive_first(grid)
    result = solve(grid, GameKind.GOWERS_G, top_subspace(grid), payoff, Player.II)
    assert result.winner is Player.II
    delta = DeltaSeq.of(*delta)
    transfer = approx_asymptotic_from_gowers(
        grid, result.strategy, payoff, delta, provider_for(grid)
    )
    return grid, transfer.strategy, expanded_target(grid, payoff, delta.tripled()), "accepts"


def _nested_strategy(space, payoff, owner, labels=None):
    """A solved nested-game strategy, or her verified hand rule staying
    inside ``labels``."""
    top = top_subspace(space)
    if labels is None:
        result = solve(space, GameKind.KASTANAS, top, payoff, owner)
        assert result.winner is owner
        return result.strategy
    rule = RULES["stay-in-set"](space, {"labels": labels})
    return verified(
        space,
        strategy_from_rule(space, GameKind.KASTANAS, top, payoff.horizon, owner, rule),
        payoff,
    )


def _kastanas(space, payoff, owner, labels=None):
    """Her or his adversarial strategy from a solved nested-game strategy,
    or from her hand rule staying inside ``labels``."""
    tau = _nested_strategy(space, payoff, owner, labels)
    return space, adversarial_from_kastanas(space, tau, owner, payoff).strategy, payoff


def _tilde(kind, payoff_name, params, owner, side, space=None, horizon=1):
    space = space or mathias_silver(8, 6, 1)
    payoff = build_payoff(space, payoff_name, horizon, params)
    twisted, doubled = tilde_lift(space, payoff)
    goal = negate(doubled) if side == "complement" else doubled
    result = solve(twisted, kind, top_subspace(space), goal, owner)
    assert result.winner is owner
    return space, project_tilde_strategy(space, twisted, result.strategy), payoff


def _lex_positive(grid):
    return lambda s: next(c for c in grid.points[s[0]] if c != 0) > 0


def _corner(grid):
    corner = grid.points.index((1, 1))
    return lambda s: s[0] == corner


def _seeded(horizon, seed, density):
    return lambda space: seeded_payoff(horizon, seed, density).accepts


def _discrete(space):
    return space.derive(metric=space.distance)


def _lifted(direction, kind, accepts_of, horizon, goal, side, grid=None):
    grid = grid or grid_sphere(2, "1/2", 1)
    payoff = Payoff(horizon, accepts_of(grid), direction)
    delta = DeltaSeq.of(*["1/2"] * horizon)
    disc = discretize(grid, range(len(grid.points)), delta)
    disc_payoff = restrict_payoff(disc, payoff)
    if side == "complement":
        disc_payoff = negate(disc_payoff)
    result = solve(disc, kind, top_subspace(grid), disc_payoff, goal)
    assert result.winner is goal
    lifted = lift_strategy(grid, disc, result.strategy, direction, payoff, delta)
    return grid, lifted, expanded_target(grid, payoff, delta, side)


def _strong_singletons():
    """His strong-asymptotic strategy, scored by the block sequences of
    each outcome as ``verify_strong_asymptotic`` scores it."""
    ms6 = mathias_silver(6, 2, 1)
    system = ms_singleton_system(ms6)
    space = with_system(ms6, system)
    top = top_subspace(space)
    payoff = Payoff(2, lambda s: all(x >= 1 for x in s), "all-nonzero")
    tail = ms6.palette.index((1, 2, 3, 4, 5))
    tau = verified(
        ms6,
        strategy_from_rule(ms6, GameKind.ASYMPTOTIC_F, top, 2, Player.I, constant_rule(tail)),
        payoff,
    )
    strong = strong_asymptotic_from_asymptotic(
        space, system, tau, payoff, DeltaSeq.of("1/2", "1/2")
    )

    def score(pos, memory):
        sets = tuple(system.family[b] for b in pos.block_prefix)
        seqs = enumerate_block_sequences(system, sets, 2)
        return len(seqs), sum(1 for seq in seqs if payoff.accepts(seq))

    return space, strong, score


def _rule_built():
    ms = mathias_silver(5, 2, 1)
    first = lambda spc, pos: legal_moves(spc, pos)[0]  # noqa: E731
    strat = strategy_from_rule(ms, GameKind.GOWERS_G, top_subspace(ms), 2, Player.II, first)
    return ms, strat, build_payoff(ms, "everything", 2)


TRANSFORMS = (reductions, approx)

# label -> (build, the replay's (plays, in_accepts) or the refusal's
# type, the modules whose ``expand`` the build walks with)
TRANSFERS = {
    "G-from-F/ms6": (
        lambda: _gowers_from_constant(mathias_silver(6, 2, 1), None, "everything"),
        (3_249, 3_249),
    ),
    "G-from-F/ms7": (
        lambda: _gowers_from_constant(mathias_silver(7, 2, 1), None, "everything"),
        (14_400, 14_400),
    ),
    "G-from-F/ms8": (
        lambda: _gowers_from_constant(mathias_silver(8, 2, 1), None, "everything"),
        (61_009, 61_009),
    ),
    "G-from-F/ms84-evens-starved": (
        lambda: _gowers_from_constant(
            mathias_silver(8, 2, 4), _evens(mathias_silver(8, 2, 4)), "all_even"
        ),
        "FiniteExhaustion",
    ),
    "F-from-G/ms6": (
        lambda: _asymptotic_from_solved(
            mathias_silver(6, 2, 1), Payoff(2, lambda s: all(x >= 1 for x in s), "all-nonzero")
        ),
        (4, 4),
    ),
    "F-from-G/f3-counterexample": (_f3_counterexample, "PigeonholeUnavailable"),
    "approxF-from-G/grid-half/delta-half": (
        lambda: _approx_from_solved(grid_sphere(2, "1/2", 1), ("1/2", "1/2")),
        (4, 4),
    ),
    "approxF-from-G/grid-half/delta-two": (
        lambda: _approx_from_solved(grid_sphere(2, "1/2", 1), ("2", "2")),
        (256, 256),
    ),
    "approxF-from-G/grid-half/delta-quarter": (
        lambda: _approx_from_solved(grid_sphere(2, "1/2", 1), ("1/4", "1/4")),
        "PigeonholeUnavailable",
    ),
    # Uneven deltas: the refinement of a sequence reads the next stage's delta.
    "approxF-from-G/grid-half/delta-half-one": (
        lambda: _approx_from_solved(grid_sphere(2, "1/2", 1), ("1/2", "1")),
        (4, 4),
    ),
    "approxF-from-G/grid-half/delta-one-half": (
        lambda: _approx_from_solved(grid_sphere(2, "1/2", 1), ("1", "1/2")),
        "PigeonholeUnavailable",
    ),
    "approxF-from-G/grid-quarter/delta-quarter": (
        lambda: _approx_from_solved(grid_sphere(2, "1/4", 1), ("1/4", "1/4")),
        (4, 4),
    ),
    "unfold/h1": (lambda: _unfolded(mathias_silver(6, 2, 1), 1), (5, 0)),
    "unfold/h2": (lambda: _unfolded(mathias_silver(6, 2, 1), 2), (25, 0)),
    "kastanas/II/ms10-hand": (
        lambda: _kastanas(
            mathias_silver(10, 2, 1),
            build_payoff(mathias_silver(10, 2, 1), "point_odd", 2, {"index": 1}),
            Player.II,
            [1, 3, 5, 7, 9],
        ),
        (130, 130),
    ),
    "kastanas/II/ms4-h4": (
        lambda: _kastanas(mathias_silver(4, 3, 1), seeded_payoff(4, 86, 0.2), Player.II),
        (9, 9),
    ),
    # Corpus spaces where the fused subspace lies above a minimal one, so
    # that his subspace moves have more than one option.
    "kastanas/II/corpus-7-h4": (
        lambda: _kastanas(corpus_space(7), seeded_payoff(4, 3, 0.5), Player.II), (36, 36)
    ),
    "kastanas/II/corpus-58-h4": (
        lambda: _kastanas(corpus_space(58), seeded_payoff(4, 0, 0.9), Player.II), (144, 144)
    ),
    "kastanas/I/ms6": (
        lambda: _kastanas(
            mathias_silver(6, 2, 1),
            build_payoff(mathias_silver(6, 2, 1), "first_in", 2, {"labels": [1, 2, 3, 4, 5]}),
            Player.I,
        ),
        None,
    ),
    "kastanas/I/ms3-h4": (
        lambda: _kastanas(
            mathias_silver(3, 2, 1), Payoff(4, lambda s: s[0] <= 1 and s[2] <= 1, "small-firsts"),
            Player.I,
        ),
        None,
    ),
    "tilde/A-to-F": (
        lambda: _tilde(GameKind.ADVERSARIAL_A, "first_in", {"labels": [3]}, Player.I, "complement"),
        None,
    ),
    "tilde/B-to-G": (
        lambda: _tilde(GameKind.ADVERSARIAL_B, "point_even", {"index": 0}, Player.II, "accepts"),
        None,
    ),
    "tilde/B-to-G/h2": (
        lambda: _tilde(
            GameKind.ADVERSARIAL_B, "all_even", {}, Player.II, "accepts", mathias_silver(5, 3, 1), 2
        ),
        None,
    ),
    "lift/G-II": (
        lambda: _lifted("G-II", GameKind.GOWERS_G, _lex_positive, 1, Player.II, "accepts"), None
    ),
    "lift/F-I": (
        lambda: _lifted("F-I", GameKind.ASYMPTOTIC_F, _corner, 1, Player.I, "complement"), None
    ),
    "lift/A-I": (
        lambda: _lifted("A-I", GameKind.ADVERSARIAL_A, _lex_positive, 2, Player.I, "accepts"),
        None,
    ),
    "lift/B-II": (
        lambda: _lifted("B-II", GameKind.ADVERSARIAL_B, _corner, 2, Player.II, "complement"),
        None,
    ),
    # The same lifts on a Mathias-Silver instance under its discrete
    # metric, at horizons where she answers more than one of his moves.
    "lift/G-II/ms53-h2": (
        lambda: _lifted(
            "G-II", GameKind.GOWERS_G, _seeded(2, 2, 0.5), 2, Player.II, "accepts",
            _discrete(mathias_silver(5, 3, 1)),
        ),
        None,
    ),
    "lift/A-I/ms32-h4": (
        lambda: _lifted(
            "A-I", GameKind.ADVERSARIAL_A, _seeded(4, 1, 0.99), 4, Player.I, "accepts",
            _discrete(mathias_silver(3, 2, 1)),
        ),
        None,
    ),
    "lift/B-II/ms32-h4": (
        lambda: _lifted(
            "B-II", GameKind.ADVERSARIAL_B, _seeded(4, 1, 0.01), 4, Player.II, "complement",
            _discrete(mathias_silver(3, 2, 1)),
        ),
        None,
    ),
    "strong-asymptotic/singletons": (_strong_singletons, None),
    "rule/G-II-first-legal": (_rule_built, None, (solver,)),
}


def _walked(monkeypatch, label, over_histories, mutate):
    """Build a transfer with the ``expand`` of its modules patched: the
    walk stays over (state, memory) pairs or is forced onto histories,
    and ``mutate`` may swap the transfer's rule.  A refusal comes back as
    its message."""
    build, _, *modules = TRANSFERS[label]
    walk = walk_histories if over_histories else expand

    def patched(space, pos0, owner, rule, *args, **kwargs):
        return walk(space, pos0, owner, mutate(space, rule), *args, **kwargs)

    with monkeypatch.context() as patch:
        for module in modules[0] if modules else TRANSFORMS:
            patch.setattr(module, "expand", patched)
        try:
            return build()
        except (FiniteExhaustion, PigeonholeUnavailable) as exc:
            return f"{type(exc).__name__}: {exc}"


def _replay_leaf(space, scored):
    """A build's payoff as a replay leaf (one play per outcome, a hit
    when the payoff accepts it), or the build's own leaf."""
    if not isinstance(scored, Payoff):
        return scored
    return lambda pos, memory: (1, 1 if scored.accepts(play_outcome(pos, space)) else 0)


def _differential(monkeypatch, label, mutate=lambda space, rule: rule):
    """``(table, (plays, in_accepts))`` of the transfer walked over
    (state, memory) pairs and over histories.  The first table is
    replayed over every history it reaches, threading its memory; the
    first count is the table's replay by ``expand`` over pairs, the
    second a replay of the history table over every history.  Also
    returns the built strategies."""
    mealy = _walked(monkeypatch, label, False, mutate)
    history = _walked(monkeypatch, label, True, mutate)
    if isinstance(mealy, str) or isinstance(history, str):
        return mealy, history, None
    space, strat, scored = mealy[:3]
    leaf = _replay_leaf(space, scored)
    pos0 = initial_position(strat.kind, strat.root, strat.horizon)
    by_pairs = expand(space, pos0, strat.owner, table_rule(space, strat), 0, leaf=leaf)
    return (
        (over_histories(space, strat), by_pairs),
        (history[1].table, count_histories(space, history[1], leaf)),
        (strat, history[1]),
    )


def _reads_the_first_move(space, rule):
    """A mutant reading past the state: the owner's point depends on the
    opponent's first move, which the state forgets once the opponent has
    moved again.  Its subspace and block are the rule's, so the shadow
    stays in step with the play."""

    def mutant(pos, shadow):
        move, shadow = rule(pos, shadow)
        theirs = [m for m in pos.moves if m.player is not pos.to_move]
        if not theirs:
            return move, shadow
        first = next(v for v in (theirs[0].subspace, theirs[0].block, theirs[0].point) if v is not None)
        options = [
            m for m in legal_moves(space, pos) if (m.subspace, m.block) == (move.subspace, move.block)
        ]
        return options[first % len(options)], shadow

    return mutant


def _state_of(key) -> tuple:
    kind, root, horizon, moves = key
    return GamePosition(
        GameKind(kind), root, horizon, tuple(Move(Player(m[0]), *m[1:]) for m in moves)
    ).state()


# Transfers whose owner's histories are one-to-one with their states, so
# that a walk over states visits every history once and no rule can fail
# the differential:
# * his chooser-game strategies (F, SF): her moves, points or blocks, are
#   in the state, and his own moves follow from them;
# * one-round outputs, where the opponent's only move is the last one;
# * the nested-game transfers on Mathias-Silver instances: the fused
#   subspace is minimal there, so the opponent's subspace moves have one
#   option.  The corpus ones are not, and their differential is not
#   vacuous.
ONE_TO_ONE = {
    "F-from-G/ms6", "unfold/h1", "unfold/h2", "tilde/A-to-F", "lift/F-I",
    "strong-asymptotic/singletons", "tilde/B-to-G", "lift/G-II", "lift/A-I", "lift/B-II",
    "kastanas/II/ms10-hand", "kastanas/II/ms4-h4", "kastanas/I/ms6", "kastanas/I/ms3-h4",
} | {label for label in TRANSFERS if label.startswith("approxF-from-G/")}


class TestTransferWalks:
    @pytest.mark.parametrize("label", list(TRANSFERS))
    def test_state_walk_matches_history_walk(self, label, monkeypatch):
        expected = TRANSFERS[label][1]
        mealy, history, _ = _differential(monkeypatch, label)
        assert mealy == history
        if isinstance(expected, str):
            assert mealy.startswith(expected)
        elif expected is not None:
            assert mealy[1] == expected

    # The mutant runs on every transfer that succeeds, G-from-F/ms6
    # standing for its larger instances.
    @pytest.mark.parametrize(
        "label",
        [
            label
            for label, case in TRANSFERS.items()
            if not isinstance(case[1], str) and label not in ("G-from-F/ms7", "G-from-F/ms8")
        ],
    )
    def test_rule_reading_past_the_state_fails_the_differential(self, label, monkeypatch):
        mealy, history, built = _differential(monkeypatch, label, _reads_the_first_move)
        strat, by_history = built
        states = [_state_of(key) for key in by_history.table]
        one_to_one = len(set(states)) == len(states) == len(strat.table)
        assert one_to_one is (label in ONE_TO_ONE)
        if one_to_one:
            assert mealy == history  # vacuous: see ONE_TO_ONE
        else:
            assert mealy != history

    def test_gowers_from_asymptotic_keeps_one_entry_per_state(self):
        _, sigma, _, _ = TRANSFERS["G-from-F/ms8"][0]()
        assert sigma.memoryless and len(sigma.table) == 1_976


def _gowers_and_reference(monkeypatch, label):
    """``(table, reference, prefixes)`` of a G-from-F case: the
    transfer's table, or its refusal's type, the same for the
    shadow-threading reference given the same strategy, and the point
    prefix of each position the transfer read the strategy at."""
    made = []

    def both(space, tau, payoff, budget=None):
        def attempt(build):
            try:
                return build().table
            except FiniteExhaustion as exc:
                return type(exc).__name__

        move_at, prefixes = tau.move_at, []
        tau.move_at = lambda pos: prefixes.append(pos.point_prefix) or move_at(pos)
        table = attempt(lambda: real(space, tau, payoff, budget))
        del tau.move_at
        made.append((table, attempt(lambda: oracle.gowers_from_asymptotic_by_shadow(space, tau))))
        made.append(prefixes)

    real = gowers_from_asymptotic
    monkeypatch.setitem(globals(), "gowers_from_asymptotic", both)
    TRANSFERS[label][0]()
    [(table, reference), prefixes] = made
    return table, reference, prefixes


class TestGowersFromAsymptoticShadow:
    """Her simulated asymptotic play is made once per point prefix; the
    walk that threaded it down each line as a shadow must build the same
    table."""

    @pytest.mark.parametrize("label", [label for label in TRANSFERS if label.startswith("G-from-F/")])
    def test_the_table_is_the_shadow_threading_table(self, label, monkeypatch):
        table, reference, _ = _gowers_and_reference(monkeypatch, label)
        assert table == reference
        assert (table == "FiniteExhaustion") is (label == "G-from-F/ms84-evens-starved")

    def test_his_strategy_is_read_once_per_point_prefix(self, monkeypatch):
        table, _, prefixes = _gowers_and_reference(monkeypatch, "G-from-F/ms8")
        hers = {state[1] for state, _ in table}
        assert len(prefixes) == len(set(prefixes)) == len(hers) == 8
        assert set(prefixes) == hers


@pytest.mark.parametrize("label", [label for label in TRANSFERS if label.startswith("lift/")])
def test_each_lift_is_the_scan_lift(label, monkeypatch):
    # The lifts above against the chooser and interleaved lifts that
    # scan host distances: the same table and the same replay count.
    real, built = lift_strategy, []

    def both(space, disc, strat, direction, payoff, delta):
        lifted = real(space, disc, strat, direction, payoff, delta)
        built.append((lifted, oracle.lift_by_scan(space, disc, strat, delta)))
        return lifted

    monkeypatch.setitem(globals(), "lift_strategy", both)
    grid, _, target = TRANSFERS[label][0]()
    [(lifted, reference)] = built
    assert lifted.to_json() == reference.to_json()
    report = verify_strategy(grid, lifted, target, target="accepts")
    assert report.passed and report == verify_strategy(grid, reference, target, target="accepts")


def _with_memory(strat):
    """The strategy with every entry moving on to memory 1: a table with
    memory, as far as the entry checks can tell."""
    return replace(strat, table={key: (move, 1) for key, (move, _) in strat.table.items()})


def _refusals():
    """Transformations given a strategy with memory, or one of another
    game or player than they read: name -> (call, message)."""
    ms6 = mathias_silver(6, 2, 1)
    top = top_subspace(ms6)
    pair = build_payoff(ms6, "first_in", 2, {"labels": [1, 2, 3, 4, 5]})
    nested = solve(ms6, GameKind.KASTANAS, top, pair, Player.I).strategy
    everything = build_payoff(ms6, "everything", 2)
    his = verified(
        ms6,
        strategy_from_rule(ms6, GameKind.ASYMPTOTIC_F, top, 2, Player.I, constant_rule(top)),
        everything,
    )
    hers, _ = remembering_strategy(ms6, 2)
    hers = verified(ms6, hers, everything)
    twisted, doubled = tilde_lift(ms6, build_payoff(ms6, "everything", 1))
    adversarial = solve(twisted, GameKind.ADVERSARIAL_A, top, doubled, Player.I).strategy
    system = ms_singleton_system(ms6)
    half = DeltaSeq.of("1/2", "1/2")

    def lift(strat, direction):
        return lambda: lift_strategy(_discrete(ms6), ms6, strat, direction, everything, half)

    def strong(tau):
        return lambda: strong_asymptotic_from_asymptotic(
            with_system(ms6, system), system, tau, everything, half
        )

    memory = {
        "adversarial_from_kastanas": lambda: adversarial_from_kastanas(
            ms6, _with_memory(nested), Player.I, pair
        ),
        "project_tilde_strategy": lambda: project_tilde_strategy(
            ms6, twisted, _with_memory(adversarial)
        ),
        "gowers_from_asymptotic": lambda: gowers_from_asymptotic(
            ms6, _with_memory(his), everything
        ),
        "asymptotic_from_gowers": lambda: asymptotic_from_gowers(
            ms6, hers, everything, provider_for(ms6)
        ),
        "unfold_asymptotic": lambda: unfold_asymptotic(ms6, _with_memory(his), everything),
        "homogeneous_from_asymptotic": lambda: homogeneous_from_asymptotic(
            ms6, _with_memory(his), everything
        ),
        "lift_strategy": lift(hers, "G-II"),
        "strong_asymptotic_from_asymptotic": strong(_with_memory(his)),
    }
    # A lift used to read its direction for the lift's shape only, the
    # strong transfer checked the owner but not the game, and the
    # projection and the reinterpretation raised a plain ValueError.
    mismatched = {
        "lift_strategy/G-II-given-F-I": lift(his, "G-II"),
        "lift_strategy/A-I-given-F-I": lift(his, "A-I"),
        "lift_strategy/B-II-given-G-II": lift(hers, "B-II"),
        "lift_strategy/F-I-given-A-I": lift(adversarial, "F-I"),
        "strong_asymptotic_from_asymptotic/A-I": strong(adversarial),
        "project_tilde_strategy/F-I": lambda: project_tilde_strategy(ms6, twisted, his),
        "reinterpret_adversarial/G-II": lambda: reinterpret_adversarial(hers),
    }
    return {
        **{name: (call, "has memory") for name, call in memory.items()},
        **{name: (call, "needs a") for name, call in mismatched.items()},
    }


class TestRefusals:
    @pytest.mark.parametrize("name", list(_refusals()))
    def test_transformation_refuses_its_input(self, name):
        # Transformations simulate their inputs at a state: a table
        # with memory would be read at memory 0 only, and one of another
        # game or player would be simulated in the wrong game.
        call, message = _refusals()[name]
        with pytest.raises(StrategyRefused, match=message):
            call()


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
