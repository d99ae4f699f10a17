"""Backward-induction solver, strategy extraction, and verification.

Finite clopen games are determined: ``solve`` computes the winner and a
full strategy table for the winner.  The search runs on the state graph:
the value of a position is a function of its state
(``GamePosition.state``), so each state is searched once and then read
from a memo, and the search records, at each state the player to move
wins, that player's first winning move in canonical order.  The
winner's records are the table, keyed by state (a *positional* table);
that move is the same at every history with the state, so projected to
histories the table is the one a search over histories would extract.
``naive_solve_oracle`` is the independent check: minimax over move
histories with a smaller default budget and no memo, whose history
table re-solves each candidate child.

Strategies are finite position-to-move tables, total on the positions
reachable when the owner follows the table and the opponent plays
anything legal.  ``verify_strategy`` replays a table against the
exhaustive adversary (every legal opponent line) or a seeded uniform
one, and reports the exact fraction of outcomes landing in the payoff.
On a positional table the exhaustive count is taken over states: the
number of plays below a state and how many land in the payoff are
functions of the state, so the same integers come out of a memoized
recursion as out of the replay.

Every walk over the history tree (the oracle's extraction, exhaustive
replay of a history table, and each strategy transformation) goes
through ``expand``: the owner follows a rule carrying shadow state, the
opponent tries every legal move, and each visited position costs one
budget tick.

A player with no legal move at a non-terminal position loses; finite
truncations can strand a player even though the infinite games cannot.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Optional

from .errors import Budget, IllegalMove, StrategyIncomplete
from .games import (
    GameKind,
    GamePosition,
    Move,
    Player,
    initial_position,
    legal_moves,
    move_legal,
    next_state,
    play_outcome,
)
from .payoffs import Payoff
from .space import SpaceInstance


@dataclass
class Strategy:
    owner: Player
    kind: GameKind
    root: int
    horizon: int
    table: dict = field(default_factory=dict)  # pos.key(), or pos.state() if positional -> Move
    verified: bool = False
    name: str = ""
    positional: bool = False

    def move_at(self, pos: GamePosition) -> Move:
        if not self.positional:
            key = pos.key()
        elif (pos.kind, pos.root, pos.horizon) == (self.kind, self.root, self.horizon):
            key = pos.state()
        else:
            raise StrategyIncomplete(pos.key())
        if key not in self.table:
            raise StrategyIncomplete(key)
        return self.table[key]

    def to_json(self) -> dict:
        ordered = sorted(self.table.items(), key=lambda item: repr(item[0]))
        if self.positional:
            entries = [
                {"state": [n, list(points), subspace, list(blocks)], "move": move.to_json()}
                for (n, points, subspace, blocks), move in ordered
            ]
        else:
            entries = [
                {"pos": [list(m) for m in key[3]], "move": move.to_json()}
                for key, move in ordered
            ]
        out = {
            "owner": self.owner.value,
            "kind": self.kind.value,
            "root": self.root,
            "horizon": self.horizon,
            "verified": self.verified,
            "name": self.name,
            "entries": entries,
        }
        if self.positional:
            out["positional"] = True
        return out

    @staticmethod
    def from_json(data: dict) -> "Strategy":
        strat = Strategy(
            Player(data["owner"]),
            GameKind(data["kind"]),
            data["root"],
            data["horizon"],
            verified=data.get("verified", False),
            name=data.get("name", ""),
            positional=data.get("positional", False),
        )
        head = (strat.kind.value, strat.root, strat.horizon)
        for entry in data["entries"]:
            if strat.positional:
                n, points, subspace, blocks = entry["state"]
                key = (n, tuple(points), subspace, tuple(blocks))
            else:
                key = head + (tuple(tuple(m) for m in entry["pos"]),)
            strat.table[key] = Move.from_json(entry["move"])
        return strat


@dataclass
class SolveResult:
    winner: Player
    strategy: Strategy
    nodes_expanded: int


VERIFY_MODES = ("exhaustive", "sampled")
VERIFY_TARGETS = ("accepts", "complement")


@dataclass
class VerificationReport:
    mode: str
    target: str
    plays: int
    in_accepts: int

    @property
    def fraction_accepts(self) -> Fraction:
        return Fraction(self.in_accepts, self.plays) if self.plays else Fraction(0)

    @property
    def fraction_target(self) -> Fraction:
        if self.target == "accepts":
            return self.fraction_accepts
        return 1 - self.fraction_accepts

    @property
    def passed(self) -> bool:
        return self.plays > 0 and self.fraction_target == 1


def _accepts_fn(space: SpaceInstance, payoff: Payoff) -> Callable[[GamePosition], bool]:
    def accepts(pos: GamePosition) -> bool:
        return payoff.accepts(play_outcome(pos, space))

    return accepts


def _minimax(space, pos0, accepts, goal_owner, budget, memo=None, wins=None) -> bool:
    """True iff goal_owner forces the outcome into accepts from pos0.

    Without ``memo`` every history is searched and costs one budget
    tick.  With it (state -> value) each state is searched once and
    costs one tick, and ``wins`` maps each searched state the player to
    move wins to that player's first winning move in canonical order.
    """
    tick = budget.tick

    def value(pos: GamePosition, state: tuple) -> bool:
        if memo is not None and state in memo:
            return memo[state]
        tick()
        if pos.terminal:
            won = bool(accepts(pos))
        else:
            # The goal owner looks for a child worth True, the opponent
            # for one worth False; a player without a legal move loses.
            want = pos.to_move is goal_owner
            won = not want
            for m in legal_moves(space, pos):
                if value(pos.child(m), next_state(state, m)) is want:
                    if wins is not None:
                        wins[state] = m
                    won = want
                    break
        if memo is not None:
            memo[state] = won
        return won

    return value(pos0, pos0.state())


def expand(
    space: SpaceInstance,
    pos0: GamePosition,
    owner: Player,
    rule: Callable,
    shadow=None,
    leaf: Optional[Callable] = None,
    budget: Optional[Budget] = None,
    table: Optional[dict] = None,
) -> None:
    """Walk every play from ``pos0`` in which ``owner`` follows ``rule``
    and the opponent plays every legal move, depth first in canonical
    order.

    At the owner's positions ``rule(pos, shadow)`` returns ``(move,
    shadow)``, the shadow being whatever state the rule threads down the
    line (a simulated play, a tracked sequence).  The opponent's moves
    do not touch the shadow: the next ``rule`` or ``leaf`` call reads
    the move from ``pos.moves[-1]``.  ``leaf(pos, shadow)`` runs at
    terminal positions.  Each visited position costs one budget tick;
    the owner's moves are written to ``table`` when one is given.
    Legality is the rule's business, and an opponent without a legal
    move ends the line without reaching a leaf.
    """
    tick = (budget or Budget(where="expand")).tick

    def visit(pos: GamePosition, shadow) -> None:
        tick()
        if pos.terminal:
            if leaf is not None:
                leaf(pos, shadow)
            return
        if pos.to_move is owner:
            move, shadow = rule(pos, shadow)
            if table is not None:
                table[pos.key()] = move
            visit(pos.child(move), shadow)
            return
        for m in legal_moves(space, pos):
            visit(pos.child(m), shadow)

    visit(pos0, shadow)


def table_rule(space: SpaceInstance, strat: Strategy) -> Callable:
    """The replay rule of a strategy table: read the move, refuse it
    with :class:`IllegalMove` unless it is legal."""

    def rule(pos: GamePosition, shadow):
        move = strat.move_at(pos)
        if not move_legal(space, pos, move):
            raise IllegalMove(f"strategy move {move} illegal at {pos.key()}")
        return move, shadow

    return rule


def solve(
    space: SpaceInstance,
    kind: GameKind,
    root: int,
    payoff: Payoff,
    goal_owner: Player,
    budget: Optional[Budget] = None,
) -> SolveResult:
    """Decide the finite-horizon clopen game and extract a winning strategy.

    The goal owner targets ``payoff.accepts``; the opponent the
    complement.  The returned strategy belongs to whoever wins; its
    positional table holds the winner's first winning move at every
    state the search decided in the winner's favour.  ``nodes_expanded``
    counts the states searched.
    """
    budget = budget or Budget(2_000_000, "solve")
    pos0 = initial_position(kind, root, payoff.horizon)
    before = budget.used
    wins: dict = {}
    goal_reached = _minimax(
        space, pos0, _accepts_fn(space, payoff), goal_owner, budget, {}, wins
    )
    winner = goal_owner if goal_reached else goal_owner.other
    strategy = Strategy(
        winner,
        kind,
        root,
        payoff.horizon,
        {state: m for state, m in wins.items() if m.player is winner},
        verified=True,  # exhaustive backward induction is the proof
        name=f"solve:{payoff.name}",
        positional=True,
    )
    return SolveResult(winner, strategy, budget.used - before)


def naive_solve_oracle(
    space: SpaceInstance,
    kind: GameKind,
    root: int,
    payoff: Payoff,
    goal_owner: Player,
    budget: Optional[Budget] = None,
) -> SolveResult:
    """Minimax over move histories with no memo that records no moves;
    the differential oracle.  Its history table re-searches each
    candidate child, and its node count includes those searches."""
    budget = budget or Budget(500_000, "naive_solve_oracle")
    pos0 = initial_position(kind, root, payoff.horizon)
    accepts = _accepts_fn(space, payoff)
    nodes = 0

    def value(pos: GamePosition) -> bool:
        nonlocal nodes
        before = budget.used
        v = _minimax(space, pos, accepts, goal_owner, budget)
        nodes += budget.used - before
        return v

    goal_reached = value(pos0)
    winner = goal_owner if goal_reached else goal_owner.other

    def rule(pos, shadow):
        # The winner's first winning move in canonical order.
        for m in legal_moves(space, pos):
            if value(pos.child(m)) is goal_reached:
                return m, shadow
        raise AssertionError("winner has no winning move; solver inconsistent")

    strategy = Strategy(winner, kind, root, payoff.horizon, name=f"solve:{payoff.name}")
    expand(space, pos0, winner, rule, budget=budget, table=strategy.table)
    strategy.verified = True
    return SolveResult(winner, strategy, nodes)


def _count_plays(space, pos0, owner, rule, accepts, budget) -> tuple:
    """``(plays, in_accepts)`` below pos0 when ``owner`` follows a
    positional table's ``rule`` and the opponent plays every legal move,
    counted over states: each state costs one budget tick, and an
    opponent without a legal move ends the line without a play, as in
    ``expand``."""
    tick = budget.tick
    memo: dict = {}

    def count(pos: GamePosition, state: tuple) -> tuple:
        if state in memo:
            return memo[state]
        tick()
        if pos.terminal:
            out = (1, 1 if accepts(pos) else 0)
        elif pos.to_move is owner:
            move, _ = rule(pos, None)
            out = count(pos.child(move), next_state(state, move))
        else:
            plays = hits = 0
            for m in legal_moves(space, pos):
                p, h = count(pos.child(m), next_state(state, m))
                plays += p
                hits += h
            out = (plays, hits)
        memo[state] = out
        return out

    return count(pos0, pos0.state())


def verify_strategy(
    space: SpaceInstance,
    strat: Strategy,
    payoff: Payoff,
    mode: str = "exhaustive",
    target: str = "accepts",
    seed: int = 0,
    trials: int = 100,
    budget: Optional[Budget] = None,
) -> VerificationReport:
    """Replay a strategy against the exhaustive or seeded-random adversary.

    ``target`` names the side the owner claims to force ("accepts" or
    "complement"); the report's ``passed`` says whether every replayed
    outcome landed there.  Every replayed position costs one tick; an
    exhaustive check of a positional table counts its plays over
    states, one tick per state.
    """
    if mode not in VERIFY_MODES or target not in VERIFY_TARGETS:
        raise ValueError(f"unknown verification mode {mode!r} or target {target!r}")
    budget = budget or Budget(where="verify_strategy")
    accepts = _accepts_fn(space, payoff)
    pos0 = initial_position(strat.kind, strat.root, strat.horizon)
    report = VerificationReport(mode, target, 0, 0)
    rule = table_rule(space, strat)

    def score(pos: GamePosition, shadow=None) -> None:
        report.plays += 1
        if accepts(pos):
            report.in_accepts += 1

    if mode == "exhaustive" and strat.positional:
        report.plays, report.in_accepts = _count_plays(
            space, pos0, strat.owner, rule, accepts, budget
        )
        return report
    if mode == "exhaustive":
        expand(space, pos0, strat.owner, rule, leaf=score, budget=budget)
        return report

    rng = random.Random(seed)
    for _ in range(trials):
        pos = pos0
        while not pos.terminal:
            budget.tick()
            if pos.to_move is strat.owner:
                move, _ = rule(pos, None)
            else:
                options = legal_moves(space, pos)
                if not options:
                    break
                move = rng.choice(options)
            pos = pos.child(move)
        if pos.terminal:
            score(pos)
    return report


def verified(
    space: SpaceInstance, strat: Strategy, payoff: Payoff, target: str = "accepts"
) -> Strategy:
    """Return the strategy marked verified, or raise if verification fails."""
    report = verify_strategy(space, strat, payoff, target=target)
    if not report.passed:
        raise ValueError(
            f"strategy {strat.name!r} fails exhaustive verification toward {target}: "
            f"{report.fraction_target} of {report.plays} plays"
        )
    return replace(strat, verified=True)


def strategy_from_rule(
    space: SpaceInstance,
    kind: GameKind,
    root: int,
    horizon: int,
    owner: Player,
    rule: Callable[[SpaceInstance, GamePosition], Move],
    name: str = "rule",
    budget: Optional[Budget] = None,
) -> Strategy:
    """Materialize a move rule into a total table by forward expansion
    over every legal opponent line; an illegal move raises
    :class:`IllegalMove`."""
    strat = Strategy(owner, kind, root, horizon, name=name)

    def checked(pos: GamePosition, shadow):
        move = rule(space, pos)
        if not move_legal(space, pos, move):
            raise IllegalMove(f"rule produced illegal move {move} at {pos.key()}")
        return move, shadow

    expand(
        space,
        initial_position(kind, root, horizon),
        owner,
        checked,
        budget=budget or Budget(where="strategy_from_rule"),
        table=strat.table,
    )
    return strat
