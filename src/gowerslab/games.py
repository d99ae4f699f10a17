"""Rule systems of the six games at finite horizon.

Positions are immutable move histories; move generation is a pure
function of (space, position).  Once kind, root and horizon are fixed,
the rules and the outcome read only a position's state (see
``GamePosition.state``), so two histories with one state have the same
moves, children's states and outcomes.  Conventions for the finite
truncation:

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
from typing import Optional

from .errors import IllegalPosition, NotTerminal
from .space import SpaceInstance, SubspaceId


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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class GamePosition:
    kind: GameKind
    root: SubspaceId
    horizon: int
    moves: tuple = ()

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
        if self.kind in INTERLEAVED:
            return max(0, len(self.moves) - 1)
        return len(self.moves) // 2

    @property
    def point_prefix(self) -> tuple:
        if self.kind in INTERLEAVED:
            return tuple(m.point for m in self.moves[1:])
        if self.kind in CHOOSER:
            return tuple(m.point for m in self.moves if m.point is not None)
        return ()

    @property
    def block_prefix(self) -> tuple:
        return tuple(m.block for m in self.moves if m.block is not None)

    @property
    def terminal(self) -> bool:
        return self.depth >= self.horizon

    @property
    def to_move(self) -> Player:
        if self.kind in INTERLEAVED:
            return Player.II if len(self.moves) % 2 == 0 else Player.I
        return Player.I if len(self.moves) % 2 == 0 else Player.II

    def state(self) -> tuple:
        """``(moves played, point prefix, last move's subspace, block
        prefix)``: everything the rules and the outcome read within one
        game.  It leaves out kind, root and horizon."""
        state = START_STATE
        for move in self.moves:
            state = next_state(state, move)
        return state

    def child(self, move: Move) -> "GamePosition":
        return GamePosition(self.kind, self.root, self.horizon, self.moves + (move,))


START_STATE = (0, (), None, ())


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


def initial_position(kind: GameKind, root: SubspaceId, horizon: int) -> GamePosition:
    if horizon < 1:
        raise ValueError("horizon must be positive")
    if kind in INTERLEAVED and horizon % 2 != 0:
        raise ValueError(f"game {kind.value} needs an even outcome length")
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


def _subspaces(space: SpaceInstance, pos: GamePosition, rule: str) -> tuple:
    if rule == "leq":
        return space.below(pos.root)
    if rule == "la":
        return space.lessapprox_below(pos.root)
    return space.below(pos.moves[-1].subspace)


def _options(space: SpaceInstance, pos: GamePosition) -> tuple:
    """The rules of every game: ``(points, subspaces, blocks)`` allowed to
    the player to move at a non-terminal position.  Each field is a
    tuple of ids in canonical order, or None when the move leaves that
    field empty."""
    rules = _SUBSPACE_RULES[pos.kind]
    if pos.kind in INTERLEAVED:
        if not pos.moves:
            return None, _subspaces(space, pos, rules[0]), None
        points = space.admitted_points(pos.point_prefix, pos.moves[-1].subspace)
        if len(pos.moves) == pos.horizon:
            return points, None, None  # her last answer is a bare point
        rule = rules[1] if pos.to_move is Player.I else rules[2]
        return points, _subspaces(space, pos, rule), None
    if pos.kind is GameKind.STRONG_ASYMPTOTIC_SF and space.system is None:
        raise IllegalPosition("strong asymptotic game needs a precompact system")
    if pos.to_move is Player.I:
        return None, _subspaces(space, pos, rules[0]), None
    constraint = pos.moves[-1].subspace
    if pos.kind in CHOOSER:
        return space.admitted_points(pos.point_prefix, constraint), None, None
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
    points, subspaces, blocks = _options(space, pos)
    return (
        _allowed(move.point, points)
        and _allowed(move.subspace, subspaces)
        and _allowed(move.block, blocks)
    )


def legal_moves(space: SpaceInstance, pos: GamePosition) -> list:
    """All legal moves for the player to move, in canonical order.

    Pairs are ordered point-major, then by subspace id.
    """
    if pos.terminal:
        return []
    points, subspaces, blocks = _options(space, pos)
    player = pos.to_move
    return [
        Move(player, x, q, k)
        for x in _each(points)
        for q in _each(subspaces)
        for k in _each(blocks)
    ]


def play_outcome(pos: GamePosition, space: Optional[SpaceInstance] = None):
    """Outcome of a finished play: the point sequence, or for the strong
    asymptotic game the sequence of played precompact sets."""
    if not pos.terminal:
        raise NotTerminal(f"position at depth {pos.depth} of {pos.horizon}")
    if pos.kind is GameKind.STRONG_ASYMPTOTIC_SF:
        if space is None:
            return pos.block_prefix
        return tuple(space.system.family[k] for k in pos.block_prefix)
    return pos.point_prefix


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
