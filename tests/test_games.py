"""Rule systems: legal move generation, replay, outcome shapes."""

import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gowerslab import GameKind, Move, Player, with_system
from gowerslab.approx import DeltaSeq, discretize, ms_singleton_system
from gowerslab.errors import IllegalMove, IllegalPosition, NotTerminal
from gowerslab.games import (
    MAX_HORIZON,
    GamePosition,
    initial_position,
    legal_moves,
    move_legal,
    next_state,
    play_outcome,
    replay,
    rules_key,
    turns,
)
from gowerslab.instances import grid_sphere, mathias_silver, top_subspace
from gowerslab.payoffs import build_payoff
from gowerslab.reductions import tilde_lift
from gowerslab.solver import _memory_key, strategy_from_rule
from gowerslab.space import FULL_HISTORY, LENGTH_INDEXED


def palette_id(space, label):
    return space.palette.index(label)


class TestLegalMoves:
    def test_kastanas_openings_are_all_below_root(self, ms6):
        top = top_subspace(ms6)
        pos = initial_position(GameKind.KASTANAS, top, 2)
        openings = legal_moves(ms6, pos)
        expected = [q for q in range(len(ms6.palette)) if ms6.leq(q, top)]
        assert [m.subspace for m in openings] == expected
        assert all(m.player is Player.II and m.point is None for m in openings)

    def test_zero_slack_asymptotic_collapses_to_root(self):
        ms = mathias_silver(5, 2, 0)
        top = top_subspace(ms)
        pos = initial_position(GameKind.ASYMPTOTIC_F, top, 1)
        moves = legal_moves(ms, pos)
        assert [m.subspace for m in moves] == [top]

    def test_adversarial_after_opening(self, ms6):
        # Below the full space, after she opens an odd subspace, his pairs
        # combine points of her subspace with near-full subspaces.
        top = top_subspace(ms6)
        p0 = palette_id(ms6, (1, 3, 5))
        pos = initial_position(GameKind.ADVERSARIAL_A, top, 2).child(
            Move(Player.II, subspace=p0)
        )
        moves = legal_moves(ms6, pos)
        points = sorted({m.point for m in moves})
        assert points == [1, 3, 5]
        assert all(ms6.lessapprox(m.subspace, top) for m in moves)
        # Brute-force cross-check against the defining predicates, in both
        # adversarial games (his subspaces are merely below the root in
        # B), for the generator and for the legality test, ids outside
        # the palette included.
        for kind, rel in (
            (GameKind.ADVERSARIAL_A, ms6.lessapprox),
            (GameKind.ADVERSARIAL_B, ms6.leq),
        ):
            pos = initial_position(kind, top, 2).child(Move(Player.II, subspace=p0))
            brute = [
                (x, q)
                for x in range(len(ms6.points))
                for q in range(len(ms6.palette))
                if ms6.admits((x,), p0) and rel(q, top)
            ]
            moves = legal_moves(ms6, pos)
            assert [(m.point, m.subspace) for m in moves] == brute
            for x in range(-1, len(ms6.points) + 1):
                for q in range(-1, len(ms6.palette) + 1):
                    legal = move_legal(ms6, pos, Move(Player.I, point=x, subspace=q))
                    assert legal == ((x, q) in brute)

    def test_final_interleaved_answer_is_bare(self, ms6):
        top = top_subspace(ms6)
        pos = initial_position(GameKind.KASTANAS, top, 2)
        pos = pos.child(legal_moves(ms6, pos)[0])
        pos = pos.child(legal_moves(ms6, pos)[0])
        finals = legal_moves(ms6, pos)
        assert all(m.subspace is None and m.point is not None for m in finals)

    def test_points_may_repeat(self, ms6):
        top = top_subspace(ms6)
        pos = initial_position(GameKind.GOWERS_G, top, 2)
        pos = pos.child(Move(Player.I, subspace=top))
        pos = pos.child(Move(Player.II, point=0))
        pos = pos.child(Move(Player.I, subspace=top))
        assert move_legal(ms6, pos, Move(Player.II, point=0))

    def test_gowers_subspaces_unconstrained_below_root(self, ms6):
        top = top_subspace(ms6)
        pos = initial_position(GameKind.GOWERS_G, top, 1)
        moves = legal_moves(ms6, pos)
        assert len(moves) == len(ms6.below(top))


def brute_moves(space, pos):
    """The legal moves of the six games, restated from the relations of
    the space alone (leq, lessapprox, admits, set_admitted and the system
    family), in canonical order."""
    kind, n, root = pos.kind, len(pos.moves), pos.root
    points = range(len(space.points))
    below_root = [q for q in range(len(space.palette)) if space.leq(q, root)]
    la_root = [q for q in range(len(space.palette)) if space.lessapprox(q, root)]
    last = pos.moves[-1].subspace if pos.moves else None
    if kind in (GameKind.ADVERSARIAL_A, GameKind.ADVERSARIAL_B, GameKind.KASTANAS):
        # She opens with a subspace; then he and she alternate
        # (point, subspace) pairs, and her last answer is a bare point.
        if n == 0:
            opening = la_root if kind is GameKind.ADVERSARIAL_B else below_root
            return [Move(Player.II, subspace=q) for q in opening]
        prefix = tuple(m.point for m in pos.moves[1:])
        admitted = [x for x in points if space.admits(prefix + (x,), last)]
        mover = Player.I if n % 2 else Player.II
        if n == pos.horizon:
            return [Move(Player.II, point=x) for x in admitted]
        if kind is GameKind.KASTANAS:
            subspaces = [q for q in range(len(space.palette)) if space.leq(q, last)]
        elif (kind is GameKind.ADVERSARIAL_A) == (mover is Player.I):
            subspaces = la_root
        else:
            subspaces = below_root
        return [Move(mover, point=x, subspace=q) for x in admitted for q in subspaces]
    # He picks a subspace, she answers inside it.
    if n % 2 == 0:
        choices = below_root if kind is GameKind.GOWERS_G else la_root
        return [Move(Player.I, subspace=q) for q in choices]
    if kind is GameKind.STRONG_ASYMPTOTIC_SF:
        return [
            Move(Player.II, block=k)
            for k, elems in enumerate(space.system.family)
            if space.set_admitted(elems, last)
        ]
    prefix = tuple(m.point for m in pos.moves if m.point is not None)
    return [Move(Player.II, point=x) for x in points if space.admits(prefix + (x,), last)]


MS4 = mathias_silver(4, 2, 1)
MS4_SF = with_system(MS4, ms_singleton_system(MS4))


# Every kind on the plain instance and on its SF view, at the two
# shortest horizons; the long interleaved walks run on the plain one only.
REFERENCE_CASES = (
    [("ms4", MS4, k, h) for k in "ABK" for h in (2, 4)]
    + [("ms4", MS4, k, h) for k in "FG" for h in (1, 2)]
    + [("ms4-sf", MS4_SF, k, 2) for k in "ABK"]
    + [("ms4-sf", MS4_SF, k, h) for k in ("F", "G", "SF") for h in (1, 2)]
)


def _climbing(space):
    """Full-history admission that reads the prefix: a point must have a
    larger id than the first point of the history it extends."""
    base = space.admits
    return space.derive(
        admits=lambda h, p: base(h, p) and (len(h) < 2 or h[-1] > h[0]),
        admission=FULL_HISTORY,
    )


# The parity twist of a climbing instance reads the full history, and
# the discretized grid reads the history length through its radii.
TILDE = tilde_lift(_climbing(MS4), build_payoff(MS4, "everything", 1))[0]
GRID = grid_sphere(2, "1/2", 1)
DISC = discretize(GRID, range(len(GRID.points)), DeltaSeq.of("1/2", "1"))
assert (TILDE.admission, DISC.admission) == (FULL_HISTORY, LENGTH_INDEXED)
RULES_KEY_CASES = REFERENCE_CASES + [
    ("tilde", TILDE, k, h) for k, h in (("A", 4), ("B", 4), ("G", 3))
] + [("disc", DISC, k, 2) for k in "FG"]


def reachable(space, kind, horizon):
    """Every non-terminal position reachable from the top with its legal
    moves, depth first."""
    stack = [initial_position(GameKind(kind), top_subspace(space), horizon)]
    while stack:
        pos = stack.pop()
        moves = legal_moves(space, pos)
        yield pos, moves
        stack.extend(c for c in map(pos.child, moves) if not c.terminal)


class TestRulesReference:
    @pytest.mark.parametrize(
        "space,kind,horizon",
        [case[1:] for case in REFERENCE_CASES],
        ids=[f"{name}-{k}-h{h}" for name, _, k, h in REFERENCE_CASES],
    )
    def test_every_reachable_position(self, space, kind, horizon):
        # The reference depends on a position only through these fields.
        reference = {}
        stack = [initial_position(GameKind(kind), top_subspace(space), horizon)]
        while stack:
            pos = stack.pop()
            last = pos.moves[-1].subspace if pos.moves else None
            key = (len(pos.moves), last, pos.point_prefix)
            moves = legal_moves(space, pos)
            if key not in reference:
                reference[key] = brute_moves(space, pos)
                assert all(move_legal(space, pos, m) for m in moves)
            assert moves == reference[key], pos.key()
            for m in moves:
                child = pos.child(m)
                if not child.terminal:
                    stack.append(child)

    @pytest.mark.parametrize(
        "space,kind,horizon",
        [case[1:] for case in RULES_KEY_CASES],
        ids=[f"{name}-{k}-h{h}" for name, _, k, h in RULES_KEY_CASES],
    )
    def test_equal_rules_keys_have_equal_moves(self, space, kind, horizon):
        # The walks share one move list between positions with one rules
        # key, so the key must hold everything the rules read.
        seen = {}
        for pos, moves in reachable(space, kind, horizon):
            assert seen.setdefault(rules_key(space, pos.state()), moves) == moves, pos.key()
        assert len(seen) > 1

    @pytest.mark.parametrize(
        "space,kind,horizon",
        [case[1:] for case in RULES_KEY_CASES],
        ids=[f"{name}-{k}-h{h}" for name, _, k, h in RULES_KEY_CASES],
    )
    def test_the_rules_read_the_game_and_the_state(self, space, kind, horizon):
        # The solve asks for the moves at a state of the root position's
        # game, and builds no position of its own.
        pos0 = initial_position(GameKind(kind), top_subspace(space), horizon)
        for pos, moves in reachable(space, kind, horizon):
            assert legal_moves(space, pos0, pos.state()) == moves, pos.key()

    def test_positions_carry_the_folded_state(self):
        for space, kind, horizon in ((TILDE, "A", 4), (MS4_SF, "SF", 2)):
            for pos, _ in reachable(space, kind, horizon):
                rebuilt = type(pos)(pos.kind, pos.root, pos.horizon, pos.moves)
                assert rebuilt == pos and rebuilt.state() == pos.state()


def _g_position(*subspaces):
    return GamePosition(
        GameKind.GOWERS_G, 3, 2, tuple(Move(Player.I, subspace=q) for q in subspaces)
    )


class TestPositionRecord:
    def test_a_position_is_never_equal_to_a_plain_tuple(self):
        pos = _g_position(1)
        for fields in (tuple(pos), tuple(pos)[:4]):
            assert pos != fields and fields != pos
            assert not pos == fields and not fields == pos

    def test_equal_histories_give_equal_positions_and_hashes(self):
        one = _g_position(1)
        other = initial_position(GameKind.GOWERS_G, 3, 2).child(Move(Player.I, subspace=1))
        assert one is not other and one == other and not one != other
        assert hash(one) == hash(other) and len({one, other}) == 1
        assert _g_position(1) != _g_position(2) and _g_position() != _g_position(1)

    # The reference games, and one whose admission reads the prefix.
    FOLD_CASES = REFERENCE_CASES + [("tilde", TILDE, "A", 4)]

    @pytest.mark.parametrize(
        "space,kind,horizon",
        [case[1:] for case in FOLD_CASES],
        ids=[f"{name}-{k}-h{h}" for name, _, k, h in FOLD_CASES],
    )
    def test_child_equals_the_constructors_fold(self, space, kind, horizon):
        for pos, moves in reachable(space, kind, horizon):
            for m in moves:
                child = pos.child(m, next_state(pos.state(), m))
                folded = GamePosition(pos.kind, pos.root, pos.horizon, pos.moves + (m,))
                assert child == folded and child.state() == folded.state(), folded.key()
                assert pos.child(m) == folded

    def test_fields_cannot_be_assigned(self):
        pos = _g_position(1)
        for name in ("kind", "root", "horizon", "moves", "extra"):
            with pytest.raises(AttributeError):
                setattr(pos, name, 0)
        assert pos == _g_position(1)

    def test_repr_names_the_history_not_the_state(self):
        assert repr(_g_position(1)) == (
            "GamePosition(kind=<GameKind.GOWERS_G: 'G'>, root=3, horizon=2, "
            "moves=(Move(player=<Player.I: 'I'>, point=None, subspace=1, block=None),))"
        )

    def test_copies_and_pickles_are_equal_positions(self):
        pos = _g_position(1, 2)
        for again in (copy.copy(pos), copy.deepcopy(pos), pickle.loads(pickle.dumps(pos))):
            assert type(again) is GamePosition and again == pos
            assert again.state() == pos.state()

    def test_the_memory_key_reads_a_position_as_its_game_and_state(self):
        # A position is a tuple, so the position branch must come first:
        # read as a tuple, its moves would split the memory by history.
        pos = _g_position(1)
        game_and_state = (GameKind.GOWERS_G, 3, 2, pos.state())
        assert _memory_key(pos) == game_and_state
        assert _memory_key((pos, 4, (pos,))) == (game_and_state, 4, (game_and_state,))


class TestTurns:
    def test_the_order_of_play(self):
        # The last entry is the player who would move after the play ends.
        I, II = Player.I, Player.II
        assert turns(GameKind.GOWERS_G, 2) == (I, II, I, II, I)
        assert turns(GameKind.ADVERSARIAL_A, 2) == (II, I, II, I)
        assert turns(GameKind.STRONG_ASYMPTOTIC_SF, 1) == (I, II, I)

    @pytest.mark.parametrize("kind", ["A", "G"])
    def test_positions_read_the_order_of_play(self, ms6, kind):
        order = turns(GameKind(kind), 2)
        pos = initial_position(GameKind(kind), top_subspace(ms6), 2)
        while not pos.terminal:
            assert pos.to_move is order[len(pos.moves)]
            pos = pos.child(legal_moves(ms6, pos)[0])
        assert len(pos.moves) == len(order) - 1 and pos.depth == 2

    def test_a_horizon_past_the_bound_is_refused(self):
        initial_position(GameKind.GOWERS_G, 0, MAX_HORIZON)
        with pytest.raises(ValueError, match="at most"):
            initial_position(GameKind.GOWERS_G, 0, MAX_HORIZON + 1)


class TestOutsideThePalette:
    def test_ids_outside_the_options_are_illegal(self, ms6):
        space = with_system(ms6, ms_singleton_system(ms6))
        top = top_subspace(space)
        subspace_pos = initial_position(GameKind.GOWERS_G, top, 1)
        point_pos = subspace_pos.child(Move(Player.I, subspace=top))
        sf = initial_position(GameKind.STRONG_ASYMPTOTIC_SF, top, 1)
        block_pos = sf.child(Move(Player.I, subspace=top))
        for q in (-1, len(space.palette)):
            assert move_legal(space, subspace_pos, Move(Player.I, subspace=q)) is False
            assert move_legal(space, sf, Move(Player.I, subspace=q)) is False
        for x in (-1, len(space.points)):
            assert move_legal(space, point_pos, Move(Player.II, point=x)) is False
        for k in (-1, len(space.system.family)):
            assert move_legal(space, block_pos, Move(Player.II, block=k)) is False

    def test_rule_playing_subspace_minus_one_is_refused(self, ms6):
        top = top_subspace(ms6)
        with pytest.raises(IllegalMove):
            strategy_from_rule(
                ms6, GameKind.GOWERS_G, top, 2, Player.I,
                lambda spc, pos: Move(Player.I, subspace=-1),
            )


def play(space, pos, move):
    assert move_legal(space, pos, move)
    return pos.child(move)


class TestMoveThenChild:
    def test_subspace_only_move_keeps_depth(self, ms6):
        top = top_subspace(ms6)
        pos = initial_position(GameKind.ADVERSARIAL_A, top, 2)
        opening = legal_moves(ms6, pos)[0]
        nxt = play(ms6, pos, opening)
        assert nxt.depth == 0 and nxt.point_prefix == ()

    def test_point_move_extends_prefix(self, ms6):
        top = top_subspace(ms6)
        pos = initial_position(GameKind.ASYMPTOTIC_F, top, 2)
        pos = play(ms6, pos, legal_moves(ms6, pos)[0])
        pos = play(ms6, pos, legal_moves(ms6, pos)[0])
        assert pos.depth == 1 and len(pos.point_prefix) == 1

    def test_kastanas_pair_projects_to_prefix(self, ms6):
        top = top_subspace(ms6)
        pos = initial_position(GameKind.KASTANAS, top, 2)
        pos = play(ms6, pos, legal_moves(ms6, pos)[0])
        pair = legal_moves(ms6, pos)[0]
        pos = play(ms6, pos, pair)
        assert pos.point_prefix == (pair.point,)

    def test_illegal_move_rejected(self, ms6):
        top = top_subspace(ms6)
        pos = initial_position(GameKind.ASYMPTOTIC_F, top, 1)
        assert move_legal(ms6, pos, Move(Player.II, point=0)) is False
        with pytest.raises(IllegalPosition):
            replay(ms6, GameKind.ASYMPTOTIC_F, top, 1, [Move(Player.II, point=0)])


class TestOutcome:
    def test_interleaved_outcome_length(self, ms6):
        top = top_subspace(ms6)
        pos = initial_position(GameKind.ADVERSARIAL_A, top, 4)
        while not pos.terminal:
            pos = pos.child(legal_moves(ms6, pos)[0])
        assert len(play_outcome(pos)) == 4

    def test_chooser_outcome(self, ms6):
        top = top_subspace(ms6)
        pos = initial_position(GameKind.GOWERS_G, top, 3)
        while not pos.terminal:
            pos = pos.child(legal_moves(ms6, pos)[0])
        assert len(play_outcome(pos)) == 3

    def test_strong_outcome_is_played_sets(self, ms6):
        space = with_system(ms6, ms_singleton_system(ms6))
        top = top_subspace(space)
        pos = initial_position(GameKind.STRONG_ASYMPTOTIC_SF, top, 2)
        pos = pos.child(legal_moves(space, pos)[0])
        pos = pos.child(Move(Player.II, block=2))
        pos = pos.child(legal_moves(space, pos)[0])
        pos = pos.child(Move(Player.II, block=5))
        assert play_outcome(pos, space) == (frozenset({2}), frozenset({5}))

    def test_not_terminal_raises(self, ms6):
        pos = initial_position(GameKind.GOWERS_G, top_subspace(ms6), 2)
        with pytest.raises(NotTerminal):
            play_outcome(pos)


class TestReplayAndContainment:
    def _random_play(self, space, kind, horizon, seed):
        rng = random.Random(seed)
        pos = initial_position(kind, top_subspace(space), horizon)
        while not pos.terminal:
            pos = pos.child(rng.choice(legal_moves(space, pos)))
        return pos

    def test_round_trip(self, ms6):
        for kind in (GameKind.KASTANAS, GameKind.ADVERSARIAL_A, GameKind.GOWERS_G):
            horizon = 2 if kind is not GameKind.GOWERS_G else 2
            for seed in range(5):
                pos = self._random_play(ms6, kind, horizon, seed)
                again = replay(ms6, pos.kind, pos.root, pos.horizon, pos.moves)
                assert again == pos

    def test_replay_rejects_corrupted_history(self, ms6):
        pos = self._random_play(ms6, GameKind.KASTANAS, 2, 1)
        bad = pos.moves[:-1] + (Move(Player.II, point=0, subspace=0),)
        with pytest.raises(IllegalPosition):
            replay(ms6, pos.kind, pos.root, pos.horizon, bad)

    def test_b_play_with_tight_subspaces_is_a_play(self, ms6):
        # A second-player-constrained play whose first player also kept
        # his subspaces near-full is legal in the other adversarial game.
        top = top_subspace(ms6)
        for seed in range(20):
            rng = random.Random(seed)
            pos = initial_position(GameKind.ADVERSARIAL_B, top, 2)
            ok = True
            while not pos.terminal:
                moves = legal_moves(ms6, pos)
                if pos.to_move is Player.I:
                    tight = [
                        m for m in moves if ms6.lessapprox(m.subspace, top)
                    ]
                    if not tight:
                        ok = False
                        break
                    move = rng.choice(tight)
                else:
                    move = rng.choice(moves)
                pos = pos.child(move)
            if not ok:
                continue
            replay(ms6, GameKind.ADVERSARIAL_A, top, 2, pos.moves)

    def test_asymptotic_moves_legal_in_gowers(self, ms6):
        top = top_subspace(ms6)
        f_pos = initial_position(GameKind.ASYMPTOTIC_F, top, 1)
        g_pos = initial_position(GameKind.GOWERS_G, top, 1)
        for move in legal_moves(ms6, f_pos):
            assert move_legal(ms6, g_pos, move)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_property_random_plays_replay(data, ms6):
    kind = data.draw(
        st.sampled_from(
            [GameKind.KASTANAS, GameKind.ADVERSARIAL_A, GameKind.ADVERSARIAL_B,
             GameKind.ASYMPTOTIC_F, GameKind.GOWERS_G]
        )
    )
    horizon = 2
    pos = initial_position(kind, top_subspace(ms6), horizon)
    while not pos.terminal:
        moves = legal_moves(ms6, pos)
        if not moves:
            break
        pos = pos.child(data.draw(st.sampled_from(moves)))
    again = replay(ms6, pos.kind, pos.root, pos.horizon, pos.moves)
    assert again == pos
    assert len(pos.point_prefix) == pos.depth
