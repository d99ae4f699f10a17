"""Rule systems of the six games at finite horizon.

A position is a tuple record: an immutable move history of one game
that carries its state, so a walk builds one tuple per position.  The
rules read the game (kind, root and horizon) and a state, never the
history: ``legal_moves(space, pos, state)`` gives the moves at any
state of ``pos``'s game, so two histories with one state have the same
moves, children's states and outcomes (see ``GamePosition.state``).
The rules read less than the whole state: ``rules_key`` is the part
they read, so two states of one game with one rules key have the same
legal moves.  Each distinct move is built once per instance and shared
by every list ``legal_moves`` returns after.  Conventions for the
finite truncation:

* The horizon of a position is the length of the finished outcome: the
  number of point moves for the interleaved games (so always even there)
  and for the chooser games, and the number of set moves for the strong
  asymptotic game.
* In the interleaved games the second player opens with a bare subspace
  and thereafter answers with (point, subspace) pairs, except for the
  very last answer, which is a bare point: the trailing subspace of the
  infinite game constrains nothing once the outcome is complete, and
  dropping it keeps game trees small.
* Nothing forbids repeating a point; the chooser may answer the same
  point at every turn if it stays admitted.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from operator import itemgetter
from typing import Optional

from .errors import IllegalPosition, NotTerminal
from .space import FULL_HISTORY, SpaceInstance, SubspaceId, bits


class Player(str, Enum):
    I = "I"
    II = "II"

    @property
    def other(self) -> "Player":
        return Player.II if self is Player.I else Player.I


class GameKind(str, Enum):
    ADVERSARIAL_A = "A"
    ADVERSARIAL_B = "B"
    KASTANAS = "K"
    ASYMPTOTIC_F = "F"
    GOWERS_G = "G"
    STRONG_ASYMPTOTIC_SF = "SF"


INTERLEAVED = (GameKind.ADVERSARIAL_A, GameKind.ADVERSARIAL_B, GameKind.KASTANAS)
CHOOSER = (GameKind.ASYMPTOTIC_F, GameKind.GOWERS_G)


@dataclass(frozen=True, slots=True)
class Move:
    """One move: a bare subspace, a bare point, a (point, subspace) pair,
    or a precompact-set reference (index into the instance's system)."""

    player: Player
    point: Optional[int] = None
    subspace: Optional[SubspaceId] = None
    block: Optional[int] = None

    def key(self) -> tuple:
        return (self.player.value, self.point, self.subspace, self.block)

    def to_json(self) -> dict:
        out = {"player": self.player.value}
        if self.point is not None:
            out["point"] = self.point
        if self.subspace is not None:
            out["subspace"] = self.subspace
        if self.block is not None:
            out["block"] = self.block
        return out

    @staticmethod
    def from_json(data: dict) -> "Move":
        return Move(
            Player(data["player"]),
            data.get("point"),
            data.get("subspace"),
            data.get("block"),
        )


class GamePosition(tuple):
    """A move history of one game, with its state: the tuple record
    ``(kind, root, horizon, moves, state)``.

    The state is derived and stays out of the repr: constructing a
    position folds ``next_state`` over its moves, and ``child`` extends
    the parent's state by the one move instead.  It decides nothing in
    equality or hashing either, since equal moves fold to equal states.
    A position equals only a position, never a plain tuple.  It is
    still a sequence of those five fields (``len`` is 5, it iterates,
    and ``<`` is tuple ordering, also against a plain tuple), so keep
    positions out of orderings and report data that mix in tuples."""

    __slots__ = ()

    kind = property(itemgetter(0))
    root = property(itemgetter(1))
    horizon = property(itemgetter(2))
    moves = property(itemgetter(3))

    def __new__(cls, kind: GameKind, root: SubspaceId, horizon: int, moves: tuple = ()):
        state = START_STATE
        for move in moves:
            state = next_state(state, move)
        return tuple.__new__(cls, (kind, root, horizon, moves, state))

    # Both comparisons are spelled out: tuple's own ``__ne__`` would
    # otherwise answer ``!=``, and find a position equal to its fields.
    def __eq__(self, other):
        if isinstance(other, GamePosition):
            return tuple.__eq__(self, other)
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        if isinstance(other, GamePosition):
            return tuple.__ne__(self, other)
        return True if isinstance(other, tuple) else NotImplemented

    __hash__ = tuple.__hash__

    def __repr__(self) -> str:
        kind, root, horizon, moves, _ = self
        return f"GamePosition(kind={kind!r}, root={root!r}, horizon={horizon!r}, moves={moves!r})"

    def __getnewargs__(self) -> tuple:
        """Copies and pickles are rebuilt from the history by ``__new__``."""
        return self[:4]

    def key(self) -> tuple:
        return (
            self.kind.value,
            self.root,
            self.horizon,
            tuple(m.key() for m in self.moves),
        )

    @property
    def depth(self) -> int:
        """Number of outcome entries produced so far."""
        return _depth(self.kind, len(self.moves))

    @property
    def point_prefix(self) -> tuple:
        return self[4][1]

    @property
    def block_prefix(self) -> tuple:
        return self[4][3]

    @property
    def terminal(self) -> bool:
        return len(self.moves) >= len(turns(self.kind, self.horizon)) - 1

    @property
    def to_move(self) -> Player:
        return turns(self.kind, self.horizon)[len(self.moves)]

    def state(self) -> tuple:
        """``(moves played, point prefix, last move's subspace, block
        prefix)``: everything the rules and the outcome read within one
        game.  It leaves out kind, root and horizon.  A field read."""
        return self[4]

    def child(self, move: Move, state: Optional[tuple] = None) -> "GamePosition":
        """The position after ``move``.  ``state``, when given, must be
        ``next_state(self.state(), move)``: a walk that has computed it
        passes it in rather than have it computed twice."""
        # Built without ``__new__``, so the state is extended, not refolded.
        kind, root, horizon, moves, before = self
        if state is None:
            state = next_state(before, move)
        return tuple.__new__(GamePosition, (kind, root, horizon, moves + (move,), state))


START_STATE = (0, (), None, ())

# The longest outcome a game may ask for.  It bounds the size of
# ``turns``; every walk recurses once per move, so plays of a few hundred
# moves are already near Python's default limit of 1,000 frames.
MAX_HORIZON = 256


def _depth(kind: GameKind, played: int) -> int:
    """Outcome entries produced by ``played`` moves."""
    return max(0, played - 1) if kind in INTERLEAVED else played // 2


@lru_cache(maxsize=64)
def turns(kind: GameKind, horizon: int) -> tuple:
    """The order of play: entry n is the player to move after n moves,
    for n from 0 to the number of moves in a finished play, whose entry
    is the player who would move next.  A position with n moves is
    terminal iff ``n >= len(turns(kind, horizon)) - 1``.  The interleaved
    games open with the second player, the others with the first, and
    the players alternate.  Built once per kind and horizon; positions
    and the solver's walks read it."""
    if horizon > MAX_HORIZON:
        raise ValueError(f"horizon must be at most {MAX_HORIZON}, got {horizon}")
    order = [Player.II if kind in INTERLEAVED else Player.I]
    while _depth(kind, len(order) - 1) < horizon:
        order.append(order[-1].other)
    return tuple(order)


def next_state(state: tuple, move: Move) -> tuple:
    """The state after ``move``, built from the state before it.  In
    every game a move's point, when it has one, is the next outcome
    entry, so the points collected are ``point_prefix``."""
    played, points, _, blocks = state
    return (
        played + 1,
        points if move.point is None else points + (move.point,),
        move.subspace,
        blocks if move.block is None else blocks + (move.block,),
    )


def rules_key(space: SpaceInstance, state: tuple) -> tuple:
    """The part of a state that the rules read within one game: the
    moves played and the last move's subspace, plus the point prefix
    when admission reads the full history.  Forgetful admission does
    not read the prefix, and length-indexed admission reads only its
    length, which the moves played fix.  The block prefix is read by
    the outcome only."""
    played, points, subspace, _ = state
    if space.admission == FULL_HISTORY:
        return played, subspace, points
    return played, subspace


def initial_position(kind: GameKind, root: SubspaceId, horizon: int) -> GamePosition:
    if horizon < 1:
        raise ValueError("horizon must be positive")
    if kind in INTERLEAVED and horizon % 2 != 0:
        raise ValueError(f"game {kind.value} needs an even outcome length")
    turns(kind, horizon)
    return GamePosition(kind, root, horizon)


# Which subspaces a player may pick: "leq" those below the root, "la"
# those lessapprox the root, "nested" those below the opponent's last
# subspace.  Interleaved games list (her opening, his pairs, her pairs);
# the others list the first player's subspace moves.
_SUBSPACE_RULES = {
    GameKind.ADVERSARIAL_A: ("leq", "la", "leq"),
    GameKind.ADVERSARIAL_B: ("la", "leq", "la"),
    GameKind.KASTANAS: ("leq", "nested", "nested"),
    GameKind.ASYMPTOTIC_F: ("la",),
    GameKind.GOWERS_G: ("leq",),
    GameKind.STRONG_ASYMPTOTIC_SF: ("la",),
}


def _anchor(root: SubspaceId, state: tuple, rule: str) -> SubspaceId:
    return state[2] if rule == "nested" else root


def _subspaces(space: SpaceInstance, root: SubspaceId, state: tuple, rule: str) -> tuple:
    """The subspaces the rule allows at ``state``, in canonical order."""
    anchor = _anchor(root, state, rule)
    return space.lessapprox_below(anchor) if rule == "la" else space.below(anchor)


def _subspace_row(space: SpaceInstance, anchor: SubspaceId, rule: str) -> int:
    """The subspaces the rule allows at ``anchor`` (``_anchor``), as a
    palette bitset: those of ``_subspaces``."""
    column = space._leq_column(anchor)
    return column & space._star_row(anchor) if rule == "la" else column


def _subspace_allowed(space: SpaceInstance, root: SubspaceId, state: tuple, rule: str, q) -> bool:
    """Whether q is among ``_subspaces(space, root, state, rule)``, read
    from the relation for the one pair."""
    if not isinstance(q, int) or not 0 <= q < len(space.palette):
        return False
    anchor = _anchor(root, state, rule)
    return space.lessapprox(q, anchor) if rule == "la" else space.leq(q, anchor)


def _subspace_masks(space: SpaceInstance, roots: int, state: tuple, rule: str) -> tuple:
    """``(r, mask)`` for every subspace r the rule allows at ``state`` in
    the game rooted at some q in ``roots`` (a palette bitset), in
    canonical order: bit q of ``mask`` is set iff q is in ``roots`` and r
    is in ``_subspaces(space, q, state, rule)``.  The pairs depend on the
    state only through ``_anchor(None, state, rule)``, which is None for
    the rules anchored at the root."""
    if _anchor(None, state, rule) is not None:
        return tuple((r, roots) for r in _subspaces(space, None, state, rule))
    masks: dict = {}
    for q in bits(roots):
        bit = 1 << q
        for r in _subspaces(space, q, state, rule):
            masks[r] = masks.get(r, 0) | bit
    return tuple(sorted(masks.items()))


def _options(space: SpaceInstance, kind: GameKind, horizon: int, state: tuple) -> tuple:
    """The rules of every game: ``(points, subspace rule, blocks)`` for
    the player to move at a non-terminal state of the game.  Points and
    blocks are tuples of ids in canonical order, the subspace rule one
    of "leq", "la" and "nested" (read by ``_subspaces`` and
    ``_subspace_allowed``); each is None when the move leaves that field
    empty."""
    played, prefix, constraint, _ = state
    rules = _SUBSPACE_RULES[kind]
    to_move = turns(kind, horizon)[played]
    if kind in INTERLEAVED:
        if not played:
            return None, rules[0], None
        points = space.admitted_points(prefix, constraint)
        if played == horizon:
            return points, None, None  # her last answer is a bare point
        return points, rules[1] if to_move is Player.I else rules[2], None
    if kind is GameKind.STRONG_ASYMPTOTIC_SF and space.system is None:
        raise IllegalPosition("strong asymptotic game needs a precompact system")
    if to_move is Player.I:
        return None, rules[0], None
    if kind in CHOOSER:
        return space.admitted_points(prefix, constraint), None, None
    blocks = tuple(
        k
        for k, elems in enumerate(space.system.family)
        if space.set_admitted(elems, constraint)
    )
    return None, None, blocks


def _allowed(value, options) -> bool:
    return value is None if options is None else value in options


def _each(options) -> tuple:
    return (None,) if options is None else options


def move_legal(space: SpaceInstance, pos: GamePosition, move: Move) -> bool:
    """Whether the move is among the options of the player to move; an id
    outside them (outside the palette, say) is illegal."""
    if pos.terminal or move.player is not pos.to_move:
        return False
    state = pos.state()
    points, rule, blocks = _options(space, pos.kind, pos.horizon, state)
    if rule is None:
        subspace_ok = move.subspace is None
    else:
        subspace_ok = _subspace_allowed(space, pos.root, state, rule, move.subspace)
    return _allowed(move.point, points) and subspace_ok and _allowed(move.block, blocks)


def legal_moves(space: SpaceInstance, pos: GamePosition, state: Optional[tuple] = None) -> list:
    """All legal moves for the player to move at ``state`` in ``pos``'s
    game (by default ``pos``'s own state), in canonical order.

    Pairs are ordered point-major, then by subspace id.  The list is
    new at each call, but its moves are the instance's: each distinct
    move is built once per instance and shared by every list after.
    """
    if state is None:
        state = pos.state()
    order = turns(pos.kind, pos.horizon)
    played = state[0]
    if played >= len(order) - 1:
        return []
    points, rule, blocks = _options(space, pos.kind, pos.horizon, state)
    subspaces = None if rule is None else _subspaces(space, pos.root, state, rule)
    player = order[played]
    interned = space._moves.setdefault(player, {})  # (point, subspace, block) -> Move
    out = []
    for x in _each(points):
        for q in _each(subspaces):
            for k in _each(blocks):
                key = (x, q, k)
                move = interned.get(key)
                if move is None:
                    move = interned[key] = Move(player, *key)
                out.append(move)
    return out


def play_outcome(pos: GamePosition, space: Optional[SpaceInstance] = None):
    """Outcome of a finished play: the point sequence, or for the strong
    asymptotic game the sequence of played precompact sets."""
    if not pos.terminal:
        raise NotTerminal(f"position at depth {pos.depth} of {pos.horizon}")
    return state_outcome(pos.kind, pos.state(), space)


def state_outcome(kind: GameKind, state: tuple, space: Optional[SpaceInstance] = None):
    """The outcome a finished play with this state has: its point
    prefix, or in the strong asymptotic game its block prefix, as the
    system's sets when ``space`` is given."""
    if kind is GameKind.STRONG_ASYMPTOTIC_SF:
        if space is None:
            return state[3]
        return tuple(space.system.family[k] for k in state[3])
    return state[1]


def replay(
    space: SpaceInstance,
    kind: GameKind,
    root: SubspaceId,
    horizon: int,
    moves,
) -> GamePosition:
    """Rebuild a position from a move list, validating every step."""
    pos = initial_position(kind, root, horizon)
    for move in moves:
        if not move_legal(space, pos, move):
            raise IllegalPosition(f"move {move} fails replay at {pos.key()}")
        pos = pos.child(move)
    return pos
