"""The differential oracle for ``gowerslab.solver.solve``, kept for the
tests next to ``historywalk``.

``naive_solve_oracle`` decides a game by minimax over move histories,
with no memo and a smaller default budget than ``solve``, and reads the
payoff at ``state_outcome`` rather than through the solver.  The solver
tests and acceptance criteria 2 and 5 compare ``solve`` with it.
"""

from __future__ import annotations

from typing import Optional

from gowerslab.errors import Budget
from gowerslab.games import (
    GameKind,
    GamePosition,
    Player,
    initial_position,
    legal_moves,
    state_outcome,
)
from gowerslab.payoffs import Payoff
from gowerslab.solver import SolveResult, Strategy
from gowerslab.space import SpaceInstance


def naive_solve_oracle(
    space: SpaceInstance,
    kind: GameKind,
    root: int,
    payoff: Payoff,
    goal_owner: Player,
    budget: Optional[Budget] = None,
) -> SolveResult:
    """Minimax over move histories with no memo that records no moves;
    the differential oracle.  Its extraction walks every history the
    winner's table reaches and re-searches each candidate child, and its
    node count includes those searches.  It walks with a recursion of
    its own, not ``expand``, and calls ``legal_moves`` at every position
    it reaches, so no move list is shared with the walks it checks.  The
    table is written by state, and every history with one state must
    give the same move."""
    budget = budget or Budget(500_000, "naive_solve_oracle")
    pos0 = initial_position(kind, root, payoff.horizon)
    accepts = lambda state: payoff.accepts(state_outcome(kind, state, space))  # noqa: E731
    nodes = 0

    def search(pos: GamePosition) -> bool:
        # One tick and one ``legal_moves`` call per history; a player
        # without a legal move loses.
        budget.tick()
        if pos.terminal:
            return bool(accepts(pos.state()))
        want = pos.to_move is goal_owner
        if any(search(pos.child(m)) is want for m in legal_moves(space, pos)):
            return want
        return not want

    def value(pos: GamePosition) -> bool:
        nonlocal nodes
        before = budget.used
        v = search(pos)
        nodes += budget.used - before
        return v

    goal_reached = value(pos0)
    winner = goal_owner if goal_reached else goal_owner.other

    strategy = Strategy(winner, kind, root, payoff.horizon, name=f"solve:{payoff.name}")

    def extract(pos: GamePosition) -> None:
        # Every opponent move and the winner's first winning move in
        # canonical order; one tick per position.
        budget.tick()
        if pos.terminal:
            return
        options = legal_moves(space, pos)
        if pos.to_move is winner:
            move = next((m for m in options if value(pos.child(m)) is goal_reached), None)
            if move is None:
                raise AssertionError("winner has no winning move; solver inconsistent")
            if strategy.table.setdefault((pos.state(), 0), (move, 0))[0] != move:
                raise AssertionError("two histories with one state got different moves")
            options = [move]
        for m in options:
            extract(pos.child(m))

    extract(pos0)
    strategy.verified = True
    return SolveResult(winner, strategy, nodes)
