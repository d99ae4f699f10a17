"""A walk over move histories, kept for the tests as the differential of
the walks over (state, memory) pairs in ``gowerslab.solver``.

``walk_histories`` has the contract of ``solver.expand`` but visits
every history, calls the rule at each of the owner's histories, writes
``table[pos.key()] = move`` and sums ``(plays, hits)`` over histories
with no memo.  Patched in for ``expand``, it makes a transformation
build the table a history walk would build.
"""

from __future__ import annotations

from gowerslab.errors import IllegalMove, StrategyIncomplete
from gowerslab.games import initial_position, legal_moves, move_legal
from gowerslab.solver import table_rule


def walk_histories(space, pos0, owner, rule, shadow=None, leaf=None, budget=None, table=None):
    def visit(pos, shadow):
        if budget is not None:
            budget.tick()
        if pos.terminal:
            return (1, 0) if leaf is None else leaf(pos, shadow)
        if pos.to_move is owner:
            move, shadow = rule(pos, shadow)
            if table is not None:
                table[pos.key()] = move
            return visit(pos.child(move), shadow)
        plays = hits = 0
        for m in legal_moves(space, pos):
            p, h = visit(pos.child(m), shadow)
            plays += p
            hits += h
        return plays, hits

    return visit(pos0, shadow)


def _start(strat):
    return initial_position(strat.kind, strat.root, strat.horizon)


def over_histories(space, strat) -> dict:
    """A (state, memory) table replayed over every history its owner
    reaches, threading the memory: ``pos.key() -> move``."""
    table: dict = {}
    walk_histories(space, _start(strat), strat.owner, table_rule(space, strat), 0, table=table)
    return table


def count_histories(space, strat, leaf) -> tuple:
    """``(plays, hits)`` of a history table (``strat.table`` maps
    ``pos.key()`` to a move) replayed over every history, ``leaf(pos,
    shadow)`` giving the pair of one finished play."""

    def rule(pos, shadow):
        move = strat.table.get(pos.key())
        if move is None:
            raise StrategyIncomplete(pos.key())
        if not move_legal(space, pos, move):
            raise IllegalMove(f"history table move {move} illegal at {pos.key()}")
        return move, shadow

    return walk_histories(space, _start(strat), strat.owner, rule, leaf=leaf)
