"""Backward-induction solver, strategy extraction, and verification.

Finite clopen games are determined: ``solve`` computes the winner and a
full strategy table for the winner.  The search runs on the state graph:
the value of a position is a function of its state
(``GamePosition.state``), so each state is searched once and then read
from a memo, and the search records, at each state the player to move
wins, that player's first winning move in canonical order.  The
winner's records are the table.

Every strategy has one shape, a finite-memory (Mealy) table
``(state, memory) -> (move, next memory)``.  The memory is a small int,
numbered in first-visit order with 0 at the root, and the owner updates
it at its own moves only.  A table that needs one memory per state is
stored memoryless, with memory 0 throughout, as the solver's tables
are.  Tables are total on the pairs reachable when the owner follows
the table and the opponent plays anything legal.

Every walk of a strategy's plays goes through ``expand``: the owner
follows a rule threading a shadow (a simulated play, a tracked
sequence, a table's memory), the opponent tries every legal move, and
each (state, memory) pair costs one budget tick.  The memory is the
shadow read at the state of every simulated play in it, since the
simulated strategies are memoryless.  Each visit returns the ``(plays,
hits)`` summed over the finished plays below its pair, which are a
function of the pair.  Each strategy transformation and
``strategy_from_rule`` walk it to build a table; ``verify_strategy``
walks it with the table's own rule (``table_rule``) against the
exhaustive adversary (every legal opponent line) and reports the exact
fraction of outcomes landing in the payoff.

The memoized walks (the solve, ``winning_roots`` and ``expand``) work
from the state first: at each edge they compute the child's state and
probe the memo with it.  The solve and ``winning_roots`` walk states
only and build no position; in ``expand`` a miss builds the child
position, handed that state, since the rules it follows read
positions.  ``winning_roots`` decides one game at a whole set of roots
in one search, for the dichotomy sweep: its value at a state is the
bitset of the roots the goal owner wins from it, and it extracts no
strategy.  Whose turn it is and whether the play is over are read from
``games.turns`` by moves played, and a finished play is scored from its
state.  The solve and ``expand`` keep their own move lists, asking
``legal_moves`` for the moves at a state of their root position's game
once per ``games.rules_key`` they meet; the moves in them are the
instance's, built once each.  ``winning_roots`` builds no move: it
keeps ``games._options`` once per rules key, and each subspace a rule
allows with the set of roots it is allowed at
(``games._subspace_masks``) once per rule and anchor.  It searches only
the undominated subspaces (``_undominated``): a subspace whose
opponent's answers include those of a smaller legal one is dropped at
that root, so the sweep's search is smaller than the solve's, which
tries every move.  Each legality test of a walk (``legality``) runs
``move_legal`` once per (rules key, move) pair.

In the solve and ``winning_roots`` a player with no legal move at a
non-terminal position loses, and ``expand`` ends such a line without a
play; finite truncations can strand a player even though the infinite
games cannot.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Optional

from .errors import Budget, IllegalMove, StrategyIncomplete, StrategyRefused
from .games import (
    GameKind,
    GamePosition,
    Move,
    Player,
    initial_position,
    legal_moves,
    move_legal,
    next_state,
    rules_key,
    state_outcome,
    turns,
    _anchor,
    _each,
    _options,
    _subspace_masks,
    _subspace_row,
)
from .payoffs import Payoff
from .space import FULL_HISTORY, LENGTH_INDEXED, SpaceInstance, bits


@dataclass
class Strategy:
    owner: Player
    kind: GameKind
    root: int
    horizon: int
    table: dict = field(default_factory=dict)  # (state, memory) -> (move, next memory)
    verified: bool = False
    name: str = ""

    @property
    def memoryless(self) -> bool:
        return all(not memory and not entry[1] for (_, memory), entry in self.table.items())

    def require_memoryless(self, what: str) -> None:
        """Refuse a table with memory as input to ``what``, which reads
        the strategy with ``move_at``."""
        if not self.memoryless:
            raise StrategyRefused(f"{what} reads memoryless strategies; {self.name!r} has memory")

    def move_at(self, pos: GamePosition) -> Move:
        """The move at ``pos`` of a memoryless table, read at
        ``(pos.state(), 0)``."""
        if (pos.kind, pos.root, pos.horizon) != (self.kind, self.root, self.horizon):
            raise StrategyIncomplete(pos.key())
        entry = self.table.get((pos.state(), 0))
        if entry is None:
            raise StrategyIncomplete(pos.key())
        return entry[0]

    def to_json(self) -> dict:
        ordered = sorted(self.table.items(), key=lambda item: repr(item[0]))
        entries = [
            {"state": [n, list(xs), q, list(ks)], "memory": m, "move": mv.to_json(), "next": nxt}
            for ((n, xs, q, ks), m), (mv, nxt) in ordered
        ]
        return {
            "owner": self.owner.value,
            "kind": self.kind.value,
            "root": self.root,
            "horizon": self.horizon,
            "verified": self.verified,
            "name": self.name,
            "entries": entries,
        }

    @staticmethod
    def from_json(data: dict) -> "Strategy":
        strat = Strategy(
            Player(data["owner"]),
            GameKind(data["kind"]),
            data["root"],
            data["horizon"],
            verified=data.get("verified", False),
            name=data.get("name", ""),
        )
        for entry in data["entries"]:
            n, points, subspace, blocks = entry["state"]
            state = (n, tuple(points), subspace, tuple(blocks))
            strat.table[(state, entry["memory"])] = (Move.from_json(entry["move"]), entry["next"])
        return strat


@dataclass
class SolveResult:
    winner: Player
    strategy: Strategy
    nodes_expanded: int


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


def _accepts_fn(space: SpaceInstance, payoff: Payoff, kind: GameKind) -> Callable[[tuple], bool]:
    """``payoff.accepts`` read at the state of a finished play."""
    accepts = payoff.accepts
    return lambda state: accepts(state_outcome(kind, state, space))


def _move_lists(space: SpaceInstance, pos0: GamePosition) -> Callable[[tuple], list]:
    """One walk's move lists, ``moves(state)`` for a state of
    ``pos0``'s game: ``legal_moves`` is called once per ``rules_key``
    the walk meets, and every other state of the walk with that key gets
    the same list.  The dict dies with the walk, so nothing outlives it;
    the moves in the lists are the instance's own (see ``legal_moves``)."""
    lists: dict = {}

    def moves(state: tuple) -> list:
        key = rules_key(space, state)
        hit = lists.get(key)
        if hit is None:
            hit = lists[key] = legal_moves(space, pos0, state)
        return hit

    return moves


def legality(space: SpaceInstance) -> Callable[..., bool]:
    """One walk's legality test, ``legal(pos, move, state=None)`` with
    ``state`` the position's, passed by a caller that has read it:
    ``move_legal`` runs once per (rules key, move) pair the walk meets,
    since positions of one game with one ``rules_key`` have the same
    legal moves, and every later test of the pair reads the verdict.  As
    with ``_move_lists``, the verdicts die with the walk and all
    positions of a walk belong to one game."""
    verdicts: dict = {}

    def legal(pos: GamePosition, move: Move, state: Optional[tuple] = None) -> bool:
        key = (rules_key(space, pos.state() if state is None else state), move)
        verdict = verdicts.get(key)
        if verdict is None:
            verdict = verdicts[key] = move_legal(space, pos, move)
        return verdict

    return legal


def _minimax(space, pos0, accepts, goal_owner, budget, wins) -> bool:
    """True iff goal_owner forces the outcome into ``accepts`` (read at
    a finished play's state) from pos0, searched on the state graph.

    Each state is searched once and costs one budget tick; the moves
    come from the walk's move lists, and ``wins`` maps each searched
    state the player to move wins to that player's first winning move in
    canonical order.  The search reads states only and builds no
    position: the rules read ``pos0``'s game and the state.
    """
    tick = budget.tick
    moves = _move_lists(space, pos0)
    order = turns(pos0.kind, pos0.horizon)
    end = len(order) - 1
    memo: dict = {}  # state -> value

    def value(state: tuple) -> bool:
        tick()
        played = state[0]
        if played == end:
            won = bool(accepts(state))
        else:
            # The goal owner looks for a child worth True, the opponent
            # for one worth False; a player without a legal move loses.
            want = order[played] is goal_owner
            won = not want
            for m in moves(state):
                after = next_state(state, m)
                v = memo.get(after)
                if v is None:
                    v = value(after)
                if v is want:
                    wins[state] = m
                    won = want
                    break
        memo[state] = won
        return won

    won = value(pos0.state())
    del value  # the memo goes on return; see ``expand``
    return won


def _undominated(
    space: SpaceInstance, kind: GameKind, horizon: int, child: tuple, rule: str, legal: tuple
) -> tuple:
    """``legal``, the ``_subspace_masks`` of a state under ``rule`` in a
    game of ``kind``, less the dominated subspaces.  ``child`` is the
    state after one of the moves, whose subspace is replaced by each r in
    turn; the play must not end there.

    A move's subspace r reaches the game only through the opponent's
    options at the child state, since the opponent's answer overwrites
    it.  Its signature is those options at the child with r: the points
    admitted below r, the blocks, and under the "nested" rule the
    subspaces below r.  r2 dominates r when r2 <= r and r2's signature
    is a subset of r's, the lower id winning between equal points and
    blocks: whatever the point and block, r2 leaves the opponent no
    answer that r does not.  r is dropped at the roots where a subspace
    dominating it is legal, the union of their masks.  Domination has no
    cycle, so each root keeps an undominated subspace below every one it
    drops.

    The points and blocks are read off admission rows, each with its
    holders (the listed r whose signature holds it), and split the
    listed r into classes of equal points and blocks, each class with
    the listed r whose signature holds an element the class's lacks.
    The dominators tried for r are among those the rule allows with r
    as anchor (``games._subspace_row``): under "la" a subspace r2 legal
    at a root q where r is legal is one of them whenever r <= q <=* r2
    gives r <=* r2, as in the instance families, and trying fewer only
    keeps more moves.  r2's mask holds the roots where r2 is legal, and
    under "leq" and "nested" the first one tried is all of r's in the
    instance families, so the loop stops there."""
    prefix = child[1]
    points, nested, sets = _options(space, kind, horizon, child)
    column, row = space._leq_column, space._admits_row
    listed = 0
    for r, _ in legal:
        listed |= 1 << r
    # x is admitted below r at the child iff r admits the prefix with x,
    # and a block iff each of its points is (``set_admitted``).
    holders = []
    if points is not None:
        holders += [row(prefix + (x,)) & listed for x in range(len(space.points))]
    for elements in space.system.family if sets is not None else ():
        held = listed
        for x in elements:
            held &= row((x,))
        holders.append(held)
    classes = [(listed, 0)]  # (members, the listed r holding an element they lack)
    for held in holders:
        split = []
        for members, bad in classes:
            if members & held:
                split.append((members & held, bad))
            if members & ~held:
                split.append((members & ~held, bad | held))
        classes = split
    at = dict(legal)
    kept = {}
    for members, bad in classes:
        for r in bits(members):
            near = _subspace_row(space, r, rule)  # r's leq column, less under "la"
            mask = at[r]
            # Not r, nor the ids above it in its class.
            tried = near & listed & ~bad & ~(members >> r << r)
            while tried:
                low = tried & -tried
                tried ^= low
                d = low.bit_length() - 1
                if nested == "nested" and column(d) & ~near:
                    continue  # d leaves the opponent a subspace r does not
                mask &= ~at[d]
                if not mask:
                    break
            kept[r] = mask
    return tuple((r, kept[r]) for r, _ in legal if kept[r])


def winning_roots(
    space: SpaceInstance,
    kind: GameKind,
    roots: int,
    payoff: Payoff,
    goal_owner: Player,
    budget: Optional[Budget] = None,
) -> int:
    """The roots q in ``roots`` (a palette bitset) from which
    ``goal_owner`` forces the outcome into ``payoff.accepts`` in the
    game of ``kind`` rooted at q, as a palette bitset: bit q is set iff
    ``solve(space, kind, q, payoff, goal_owner).winner is goal_owner``.

    One search on the state graph decides every root.  A state's value
    is the set of roots won from it, and the memo keeps ``(roots
    decided, roots won among them)`` per state: a visit asks only for
    the roots its caller needs that the memo has not decided, stops
    once each of them is, and costs one budget tick.  A move's mask is
    the set of roots it is legal at (``games._subspace_masks``; the
    points and blocks do not depend on the root), and a move is tried
    only for the open roots in its mask.  The goal owner wins a root
    with one child won there, the opponent with one child lost there,
    and a player without a legal move at a root loses there, as in
    ``_minimax``.  No strategy is extracted.

    Subspace moves are pruned to the undominated ones (``_undominated``)
    once per (rule, anchor, moves played), unless admission reads the
    full history or the move ends the play; moves played whose children
    read the same options share one list.  The value at each root is the
    unpruned game's: at each root where a subspace is dropped, a kept one
    leaves the opponent no answer that the dropped one does not.
    """
    budget = budget or Budget(2_000_000, "winning_roots")
    horizon = payoff.horizon
    start = initial_position(kind, None, horizon).state()  # the same at every root
    tick = budget.tick
    accepts = _accepts_fn(space, payoff, kind)
    order = turns(kind, horizon)
    end = len(order) - 1
    rows: dict = {}  # rules key -> (goal owner to move, subspace masks, tails)
    masks: dict = {}  # (rule, anchor) -> ((subspace, roots it is legal at), ...)
    searched: dict = {}  # (rule, anchor, moves played) -> ((subspace, roots it is searched at), ...)
    shared: dict = {}  # what those read of the child -> the same
    prune = space.admission != FULL_HISTORY
    indexed = space.admission == LENGTH_INDEXED
    memo: dict = {}  # state -> (roots decided, roots won among them)
    undecided = (0, 0)

    def options(state: tuple) -> tuple:
        key = rules_key(space, state)
        hit = rows.get(key)
        if hit is None:
            played, prefix, _, blocks = state
            points, rule, options = _options(space, kind, horizon, state)
            # A move with subspace r and tail (points, blocks) extends the
            # state's prefixes by the tail, as ``games.next_state`` does.
            tails = tuple(
                (() if x is None else (x,), () if k is None else (k,))
                for x in _each(points)
                for k in _each(options)
            )
            if rule is None:
                subspaces = ((None, roots),)
            else:
                anchor = _anchor(None, state, rule)
                subspaces = masks.get((rule, anchor))
                if subspaces is None:
                    subspaces = masks[rule, anchor] = _subspace_masks(space, roots, state, rule)
                if prune and tails and subspaces and played + 1 < end:
                    at = (rule, anchor, played)
                    hit = searched.get(at)
                    if hit is None:
                        x, k = tails[0]
                        child = (played + 1, prefix + x, subspaces[0][0], blocks + k)
                        # The signatures read which parts the child's options
                        # have, and its prefix only through admission: by
                        # length under length-indexed admission, else not at
                        # all.  Moves played apart may share them.
                        answers, nested, sets = _options(space, kind, horizon, child)
                        length = len(child[1]) if indexed else None
                        like = (rule, anchor, length, answers is None, nested == "nested", sets is None)
                        hit = shared.get(like)
                        if hit is None:
                            hit = shared[like] = _undominated(space, kind, horizon, child, rule, subspaces)
                        searched[at] = hit
                    subspaces = hit
            hit = rows[key] = (order[played] is goal_owner, subspaces, tails)
        return hit

    def value(state: tuple, need: int) -> int:
        tick()
        played, prefix, _, blocks = state
        if played == end:
            won = need if accepts(state) else 0
        else:
            mine, subspaces, tails = options(state)
            played += 1
            # ``found`` collects the roots the player to move wins: a
            # child won there for the goal owner, lost for the opponent.
            open_ = need
            found = 0
            for r, allowed in subspaces:
                sub = open_ & allowed
                if not sub:
                    continue
                for x, k in tails:
                    child = (played, prefix + x, r, blocks + k)
                    known, child_won = memo.get(child, undecided)
                    ask = sub & ~known
                    if ask:
                        child_won = value(child, ask)
                    hit = sub & child_won if mine else sub & ~child_won
                    if hit:
                        found |= hit
                        sub ^= hit
                        if not sub:
                            break
                open_ &= ~found
                if not open_:
                    break
            won = found if mine else need & ~found
        known, before = memo.get(state, undecided)
        won |= before
        memo[state] = (known | need, won)
        return won

    won = value(start, roots) if roots else 0
    del value  # the memo goes on return; see ``expand``
    return won


ONE_PLAY = (1, 0)  # a finished play outside the payoff, or one nothing scores


def _memory_key(shadow):
    """The memory a shadow stands for: the shadow with every simulated
    position replaced by its game and state, which is all a memoryless
    simulated strategy reads of it."""
    if isinstance(shadow, GamePosition):
        return (shadow.kind, shadow.root, shadow.horizon, shadow.state())
    if isinstance(shadow, tuple):
        return tuple(_memory_key(part) for part in shadow)
    return shadow


def checked_leaf(check: Callable) -> Callable:
    """A leaf for ``expand`` that runs ``check(pos, shadow)`` at each
    finished play, for its exceptions, and counts the play as
    ``ONE_PLAY``."""

    def leaf(pos: GamePosition, shadow) -> tuple:
        check(pos, shadow)
        return ONE_PLAY

    return leaf


def expand(
    space: SpaceInstance,
    pos0: GamePosition,
    owner: Player,
    rule: Callable,
    shadow=None,
    leaf: Optional[Callable] = None,
    budget: Optional[Budget] = None,
    table: Optional[dict] = None,
) -> tuple:
    """Walk every play from ``pos0`` in which ``owner`` follows ``rule``
    and the opponent plays every legal move, depth first in canonical
    order, visiting each (state, memory) pair once for one budget tick,
    and return ``(plays, hits)`` summed over the finished plays.

    At the owner's positions ``rule(pos, shadow)`` returns ``(move,
    shadow)``, the shadow being whatever the rule threads down the line
    (a simulated play, a tracked sequence, a table's memory).  The
    opponent's moves do not touch the shadow: the next ``rule`` or
    ``leaf`` call reads the move from the state.  The memory is
    ``_memory_key(shadow)``, numbered in first-visit order with 0 for the
    shadow given; the rule must read only the state and the memory, so
    the first visit of a pair stands for every history reaching it, and
    the pair's ``(plays, hits)`` is memoized.  ``leaf(pos, shadow)`` runs
    once per terminal pair and returns that finished play's ``(plays,
    hits)``; without a leaf each play counts as ``ONE_PLAY``.  Legality
    is the rule's business, and an opponent without a legal move ends
    the line without a play.  The opponent's moves come from the walk's
    move lists (``_move_lists``).

    The owner's moves go to ``table`` when one is given, as ``(state,
    memory) -> (move, next memory)``; when every state written holds
    one memory, they go in memoryless, at memory 0.
    """
    tick = (budget or Budget(where="expand")).tick
    moves = _move_lists(space, pos0)
    order = turns(pos0.kind, pos0.horizon)
    end = len(order) - 1
    memories = {_memory_key(shadow): 0}
    memos = defaultdict(dict)  # memory -> state -> (plays, hits)
    written = None if table is None else {}

    def visit(pos: GamePosition, state: tuple, shadow, memory: int) -> tuple:
        tick()
        played = state[0]
        if played == end:
            out = ONE_PLAY if leaf is None else leaf(pos, shadow)
        elif order[played] is owner:
            move, shadow = rule(pos, shadow)
            # An int shadow, such as a table's memory, is its own key.
            key = shadow if shadow.__class__ is int else _memory_key(shadow)
            after = memories.setdefault(key, len(memories))
            if written is not None:
                written[(state, memory)] = (move, after)
            # A memoized (plays, hits) is a nonempty tuple, never false.
            child = next_state(state, move)
            out = memos[after].get(child) or visit(pos.child(move, child), child, shadow, after)
        else:
            memo = memos[memory]
            plays = hits = 0
            for m in moves(state):
                child = next_state(state, m)
                p, h = memo.get(child) or visit(pos.child(m, child), child, shadow, memory)
                plays += p
                hits += h
            out = (plays, hits)
        memos[memory][state] = out
        return out

    out = visit(pos0, pos0.state(), shadow, 0)
    # The recursive closure is a reference cycle: unbinding it lets the
    # walk's memos go on return rather than at the next collection.
    del visit
    if table is not None:
        if len(memories) > 1 and len({state for state, _ in written}) == len(written):
            written = {(state, 0): (move, 0) for (state, _), (move, _) in written.items()}
        table.update(written)
    return out


def table_rule(space: SpaceInstance, strat: Strategy) -> Callable:
    """The replay rule of a strategy table, with the memory as its
    shadow: read ``(move, next memory)`` at ``(state, memory)``, and
    refuse the move with :class:`IllegalMove` unless it is legal.  Each
    rule has its own ``legality`` test."""
    table = strat.table
    legal = legality(space)

    def rule(pos: GamePosition, memory: int):
        state = pos.state()
        entry = table.get((state, memory))
        if entry is None:
            raise StrategyIncomplete(pos.key())
        if not legal(pos, entry[0], state):
            raise IllegalMove(f"strategy move {entry[0]} illegal at {pos.key()}")
        return entry

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
    memoryless table holds the winner's first winning move at every
    state the search decided in the winner's favour.  ``nodes_expanded``
    counts the states searched.
    """
    budget = budget or Budget(2_000_000, "solve")
    pos0 = initial_position(kind, root, payoff.horizon)
    before = budget.used
    wins: dict = {}
    goal_reached = _minimax(
        space, pos0, _accepts_fn(space, payoff, kind), goal_owner, budget, wins
    )
    winner = goal_owner if goal_reached else goal_owner.other
    table: dict = {}
    pairs: dict = {}  # id(move) -> (move, 0): one value per move object, shared by its states
    for state, m in wins.items():
        if m.player is winner:
            pair = pairs.get(id(m))
            if pair is None:
                pair = pairs[id(m)] = (m, 0)
            table[(state, 0)] = pair
    strategy = Strategy(
        winner,
        kind,
        root,
        payoff.horizon,
        table,
        verified=True,  # exhaustive backward induction is the proof
        name=f"solve:{payoff.name}",
    )
    return SolveResult(winner, strategy, budget.used - before)


def require_horizon(strat: Strategy, payoff: Payoff) -> None:
    """Refuse a payoff of another horizon than the strategy's plays."""
    if payoff.horizon != strat.horizon:
        raise ValueError(f"payoff horizon {payoff.horizon} is not strategy horizon {strat.horizon}")


def verify_strategy(
    space: SpaceInstance,
    strat: Strategy,
    payoff: Payoff,
    target: str = "accepts",
    budget: Optional[Budget] = None,
) -> VerificationReport:
    """Replay a strategy against the exhaustive adversary: ``expand``
    with the table's rule (``table_rule``), one tick per (state, memory)
    pair.

    ``target`` names the side the owner claims to force ("accepts" or
    "complement"); the report's ``passed`` says whether every outcome
    landed there.  The payoff must be read at the strategy's horizon.
    """
    if target not in VERIFY_TARGETS:
        raise ValueError(f"unknown verification target {target!r}")
    require_horizon(strat, payoff)
    accepts = _accepts_fn(space, payoff, strat.kind)
    pos0 = initial_position(strat.kind, strat.root, strat.horizon)
    plays, hits = expand(
        space, pos0, strat.owner, table_rule(space, strat), 0,
        leaf=lambda pos, memory: (1, 1) if accepts(pos.state()) else (1, 0),
        budget=budget or Budget(where="verify_strategy"),
    )
    return VerificationReport("exhaustive", target, plays, hits)


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
    """Materialize a move rule into a memoryless table by forward
    expansion over every legal opponent line.  The rule reads the
    position's state (and the game's kind, root and horizon), not the
    history behind it: ``expand`` calls it once per state it reaches.
    An illegal move raises :class:`IllegalMove`."""
    strat = Strategy(owner, kind, root, horizon, name=name)
    legal = legality(space)

    def checked(pos: GamePosition, shadow):
        move = rule(space, pos)
        if not legal(pos, move):
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
