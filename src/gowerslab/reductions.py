"""Executable strategy transformations between the six games.

Each public function here is a proof turned into code: it consumes a
verified winning strategy for one game and constructs a strategy for
another game (or a homogeneous set), following the original argument
round by round.  The constructions only ever use the space interface
(meet and fusion witnesses, palette scans), so when a finite instance
cannot supply a witness the transformation raises
:class:`FiniteExhaustion` identifying the failing round instead of
silently degrading.

Conventions:

* Input strategies must carry ``verified=True``; the hypotheses of the
  underlying results are "has a winning strategy", and diagnostics on
  unverified inputs would be worthless.  They must also be memoryless
  (see ``solver``): a simulated play is read at its state.
* Output strategies are built by ``expand`` over (state, memory)
  pairs, the memory being the simulated play's state and round that the
  construction threads.  Where one memory per state is enough, the
  output is memoryless.
* All searches scan in canonical enumeration order, so outputs are
  reproducible.
* The countable enumerations of the original arguments become finite
  length-then-lexicographic enumerations, which preserves the only
  property the proofs use (prefix monotonicity).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import combinations, product
from typing import Optional

from .errors import Budget, FiniteExhaustion, KindMismatch, StrategyRefused
from .games import (
    GameKind,
    GamePosition,
    Move,
    Player,
    initial_position,
    move_legal,
)
from .payoffs import Payoff, negate
from .solver import ONE_PLAY, Strategy, checked_leaf, expand, legality, winning_roots
from .space import FULL_HISTORY, SpaceInstance, iterated_meet


# -- reachability ------------------------------------------------------------------


def reachable_set(
    space: SpaceInstance, pos: GamePosition, tau: Strategy, budget: Budget
) -> frozenset:
    """Points the chooser-game strategy can be steered to from ``pos``:
    one probe, and one budget tick, per palette subspace below the root."""
    points = set()
    for r in space.below(tau.root):
        budget.tick()
        points.add(tau.move_at(pos.child(Move(Player.I, subspace=r))).point)
    return frozenset(points)


# -- diagonalization over states (the chain construction) -----------------------


def _continuations(space, legal, pos, tau) -> dict:
    """The continuation table of a nested-game state: for each adversary
    point a, the ``(u, v)`` pairs such that the adversary legally
    continues with (a, u) and ``tau`` replies with a point b and the
    subspace v, grouped by b, each list in pool order.  The adversary
    opens the empty state with a bare subspace, so a is only None there.
    ``tau`` is read once per legal continuation; ``legal`` is the
    diagonalization's ``legality`` test."""
    if pos.moves:
        points, pool = range(len(space.points)), space.below(pos.moves[-1].subspace)
    else:
        points, pool = (None,), space.below(pos.root)
    table: dict = {a: {} for a in points}
    for a, by_reply in table.items():
        for u in pool:
            move = Move(pos.to_move, point=a, subspace=u)
            if legal(pos, move):
                reply = tau.move_at(pos.child(move))
                if reply.subspace is not None:
                    by_reply.setdefault(reply.point, []).append((u, reply.subspace))
    return table


def continuation_tables(space, legal, states, tau) -> list:
    """Each nested state with its continuation table: one round's
    tables, built once for the chain and the stored pairs to share."""
    return [(pos, _continuations(space, legal, pos, tau)) for pos in states]


def _triples(space, tables, budget):
    """``(state index, state, a, b, candidates)`` for every nested state,
    adversary point a and reply point b, in enumeration order, one budget
    tick each; the candidates are the state's ``(u, v)`` continuations
    under (a, b).  The chain, its check and the stored pairs all walk
    these."""
    reply_points = range(len(space.points))
    for idx, (pos, table) in enumerate(tables):
        for a, by_reply in table.items():
            for b in reply_points:
                budget.tick()
                yield idx, pos, a, b, by_reply.get(b, ())


def _star_fit(space, candidates, r):
    """One scan of a triple's candidates against ``r``: whether some
    reply subspace is compatible with r, and the first ``(u, v)`` whose
    v is compatible with r and star-above it (None if there is none)."""
    compatible = False
    for u, v in candidates:
        if space.compatible(v, r):
            compatible = True
            if space.leq_star(r, v):
                return True, (u, v)
    return compatible, None


def diagonalize_states(
    space: SpaceInstance, tables: list, r: int, budget: Optional[Budget] = None
) -> int:
    """Shrink ``r`` so that every state continuation compatible with the
    result admits a continuation whose reply subspace sits above it in
    the star order.

    The chain construction: walk the finite enumeration of
    (state, adversary point, reply point) triples, and whenever some
    continuation's reply subspace is compatible with the current chain
    element, descend to a common lower bound with the first one.  The
    fusion witness then closes the chain.  ``tables`` are the states'
    ``continuation_tables``.
    """
    budget = budget or Budget(where="diagonalize_states")
    chain = [r]
    for _, _, _, _, candidates in _triples(space, tables, budget):
        v = next((v for _, v in candidates if space.compatible(v, chain[-1])), None)
        if v is None:
            chain.append(chain[-1])
            continue
        lower = space.common_lower_bound(chain[-1], v)
        if lower is None:
            raise FiniteExhaustion(
                "diagonalize_states",
                f"no common lower bound of {chain[-1]} and {v}",
            )
        chain.append(lower)
    return space.fusion_witness(tuple(chain))


def check_diagonalization(space, states, tau, r_star, budget=None) -> list:
    """Exhaustive check of the diagonalization postcondition; returns the
    violating (state index, a, b) triples (empty list means verified)."""
    budget = budget or Budget(where="check_diagonalization")
    bad = []
    tables = continuation_tables(space, legality(space), states, tau)
    for idx, _, a, b, candidates in _triples(space, tables, budget):
        compatible, pair = _star_fit(space, candidates, r_star)
        if compatible and pair is None:
            bad.append((idx, a, b))
    return bad


# -- nested game to adversarial games (the central construction) ----------------


@dataclass
class RoundRecord:
    """Audit record of one simulated round: the real adversarial move, the
    fictive probe, and the stored nested-game continuation used."""

    round: int
    adversarial_move: tuple
    fictive_probe: tuple
    fictive_reply: tuple
    stored_pair: Optional[tuple]
    reply: tuple


@dataclass
class KastanasTransfer:
    q: int
    strategy: Strategy
    diagonal_chain: list
    rounds: list = field(default_factory=list)  # RoundRecords, in walk order

    def transcript(self) -> dict:
        return {
            "q": self.q,
            "diagonal_chain": self.diagonal_chain,
            "rounds": [
                {
                    "round": rec.round,
                    "adversarial_move": list(rec.adversarial_move),
                    "fictive_probe": list(rec.fictive_probe),
                    "fictive_reply": list(rec.fictive_reply),
                    "stored_pair": list(rec.stored_pair) if rec.stored_pair else None,
                    "reply": list(rec.reply),
                }
                for rec in self.rounds
            ],
        }


def _require_game(strat: Strategy, owner: Player, kind: GameKind, what: str):
    if strat.owner is not owner or strat.kind is not kind:
        raise StrategyRefused(f"{what} needs a {kind.value}-game strategy for {owner.value}")


def _require_verified(strat: Strategy, owner: Player, kind: GameKind, what: str):
    _require_game(strat, owner, kind, what)
    if not strat.verified:
        raise StrategyRefused(f"{what} refuses unverified input strategies")
    strat.require_memoryless(what)


def _stored_pairs_for(space, tables, q_next, budget):
    """For every continuation landing in a state's reachable pair set,
    fix the canonical continuation whose reply subspace dominates the
    next diagonal subspace; extend the states accordingly.  ``tables``
    are the round's ``continuation_tables``, which the chain read; a
    stored pair's next state takes the strategy's reply (b, v) from
    them."""
    stored = {}
    next_states = []
    for _, pos, a, b, candidates in _triples(space, tables, budget):
        compatible, pair = _star_fit(space, candidates, q_next)
        if not compatible:
            continue
        if pair is None:
            raise FiniteExhaustion(
                "stored_pairs", f"diagonalization guarantee failed for reply point {b}"
            )
        stored[(pos.state(), a, b)] = pair
        mid = pos.child(Move(pos.to_move, point=a, subspace=pair[0]))
        next_states.append(mid.child(Move(mid.to_move, point=b, subspace=pair[1])))
    return stored, next_states


def adversarial_from_kastanas(
    space: SpaceInstance,
    tau: Strategy,
    owner: Player,
    payoff: Payoff,
    budget: Optional[Budget] = None,
) -> KastanasTransfer:
    """Transfer a winning nested-game strategy to the adversarial game.

    For the second player the output strategy lives in the game that
    constrains her own subspaces (and targets the complement); for the
    first player, in the game constraining his.  The construction
    simulates each adversarial round by a fictive probe of the nested
    game, looks the probed continuation up among the stored diagonal
    pairs, and advances a real nested play that the input strategy is
    known to win.
    """
    budget = budget or Budget(where="adversarial_from_kastanas")
    _require_verified(tau, owner, GameKind.KASTANAS, "adversarial_from_kastanas")
    if payoff.horizon != tau.horizon or payoff.horizon % 2 != 0:
        raise ValueError("payoff horizon must match the nested-game strategy")
    rounds_total = payoff.horizon // 2

    if owner is Player.II:
        states = [_opening_state(tau, tau.horizon)]
        chain = [states[0].moves[0].subspace]
        n_diagonal = rounds_total - 1
    else:
        chain = [tau.root]
        states = [initial_position(GameKind.KASTANAS, tau.root, tau.horizon)]
        n_diagonal = rounds_total

    stored_by_round = []
    legal = legality(space)
    for n in range(n_diagonal):
        tables = continuation_tables(space, legal, states, tau)
        q_next = diagonalize_states(space, tables, chain[-1], budget)
        chain.append(q_next)
        stored, states = _stored_pairs_for(space, tables, q_next, budget)
        stored_by_round.append(stored)

    q = space.fusion_witness(tuple(chain))
    out_kind = GameKind.ADVERSARIAL_B if owner is Player.II else GameKind.ADVERSARIAL_A
    strategy = Strategy(
        owner,
        out_kind,
        q,
        payoff.horizon,
        name=f"{out_kind.value}-from-K:{payoff.name}",
    )
    transfer = KastanasTransfer(q, strategy, chain)

    if owner is Player.II:
        _build_second_player(space, tau, q, chain, stored_by_round, transfer, budget)
    else:
        _build_first_player(space, tau, q, chain, stored_by_round, transfer, budget)
    return transfer


def _meet_or_exhaust(space, a, b, stage):
    r = space.meet_witness(a, b)
    if r is None:
        raise FiniteExhaustion(stage, f"meet of subspaces {a} and {b} undefined")
    return r


def _fictive_probe(space, sim_pos, move, meet_stage, n):
    """The adversarial ``move`` read in the nested game at ``sim_pos``:
    its subspace met with the last nested subspace, then checked legal
    there (``n`` is the round an illegal probe names)."""
    met = _meet_or_exhaust(space, move.subspace, sim_pos.moves[-1].subspace, meet_stage)
    probe = Move(move.player, point=move.point, subspace=met)
    if not move_legal(space, sim_pos, probe):
        raise FiniteExhaustion("fictive probe", f"probe {probe} illegal at round {n}")
    return probe


def _kastanas_round(space, tau, q, chain, stored_by_round, sim_pos, n, probe, meet_stage):
    """The round both owners simulate at the real nested state
    ``sim_pos``: the fictive reply to ``probe``, compatible with the next
    diagonal subspace; the stored pair for the probe's point and the
    reply point, replayed for real (the replay must give the stored
    reply); and the answer, the reply with its subspace met with ``q``.
    Returns the fictive reply, the stored pair, the answer and the real
    nested state after the replay, whose last move carries the stored
    reply subspace."""
    fict_reply = tau.move_at(sim_pos.child(probe))
    if not space.compatible(fict_reply.subspace, chain[n + 1]):
        raise FiniteExhaustion(
            "fictive compatibility",
            f"reply subspace {fict_reply.subspace} incompatible with "
            f"diagonal {chain[n + 1]} at round {n}",
        )
    pair = stored_by_round[n].get((sim_pos.state(), probe.point, fict_reply.point))
    if pair is None:
        raise FiniteExhaustion("stored pair", f"no stored continuation for round {n}")
    theirs, mine = pair
    real_mid = sim_pos.child(Move(probe.player, point=probe.point, subspace=theirs))
    real_reply = tau.move_at(real_mid)
    assert real_reply == Move(fict_reply.player, point=fict_reply.point, subspace=mine)
    met = _meet_or_exhaust(space, q, mine, f"{meet_stage} (round {n})")
    answer = Move(real_reply.player, point=real_reply.point, subspace=met)
    return fict_reply, pair, answer, real_mid.child(real_reply)


def _build_second_player(space, tau, q, chain, stored_by_round, transfer, budget):
    """Her adversarial strategy: open with the fused subspace, then per
    round probe the nested game fictively, replay the stored pair for
    real, and answer below the real reply; in the last round, answer
    with the fictive reply's point.  The shadow is the real nested state
    of rank n and the round n."""
    strategy = transfer.strategy
    horizon = strategy.horizon
    rounds_total = horizon // 2

    def rule(b_pos, shadow):
        if not b_pos.moves:
            return Move(Player.II, subspace=q), (_opening_state(tau, horizon), 0)
        sim_pos, n = shadow
        i_move = b_pos.moves[-1]
        probe = _fictive_probe(space, sim_pos, i_move, f"fictive meet (round {n})", n)
        if n == rounds_total - 1:
            fict_reply = tau.move_at(sim_pos.child(probe))
            pair, reply, shadow = None, Move(Player.II, point=fict_reply.point), None
        else:
            fict_reply, pair, reply, real = _kastanas_round(
                space, tau, q, chain, stored_by_round, sim_pos, n, probe, "answer meet"
            )
            shadow = (real, n + 1)
        transfer.rounds.append(
            RoundRecord(n, i_move.key(), probe.key(), fict_reply.key(), pair, reply.key())
        )
        return reply, shadow

    b0 = initial_position(strategy.kind, q, horizon)
    expand(space, b0, Player.II, rule, budget=budget, table=strategy.table)


def _opening_state(tau: Strategy, horizon) -> GamePosition:
    """The nested-game state matching her adversarial opening: the play
    consisting of the input strategy's own opening move."""
    start = initial_position(GameKind.KASTANAS, tau.root, horizon)
    return start.child(tau.move_at(start))


def _build_first_player(space, tau, q, chain, stored_by_round, transfer, budget):
    """His adversarial strategy: answer her opening or round moves by
    probing the nested game with a meet of her subspace, reading off his
    reply point, and replaying the stored continuation for real.  The
    shadow is the real nested state after his n-th move, with n; it is
    None before his first move.  His real subspace is the one the real
    state's last move carries."""
    strategy = transfer.strategy
    horizon = strategy.horizon

    def rule(a_pos, shadow):
        her = a_pos.moves[-1]
        if shadow is None:
            # Her opening is nested-legal as it stands: it sits below the root.
            sim_pos, n, probe = initial_position(GameKind.KASTANAS, tau.root, horizon), 0, her
        else:
            sim_pos, prev = shadow
            n = prev + 1
            probe = _fictive_probe(space, sim_pos, her, f"her fictive meet (round {prev})", n)
        fict_reply, pair, my_move, real = _kastanas_round(
            space, tau, q, chain, stored_by_round, sim_pos, n, probe, "his meet"
        )
        transfer.rounds.append(
            RoundRecord(n, probe.key(), probe.key(), fict_reply.key(), pair, my_move.key())
        )
        return my_move, (real, n)

    def leaf(a_pos, shadow):
        # Complete the nested play with her bare point.
        point = a_pos.moves[-1].point
        if not move_legal(space, shadow[0], Move(Player.II, point=point)):
            raise FiniteExhaustion(
                "closing move", f"her point {point} not nested-legal"
            )
        return ONE_PLAY

    a0 = initial_position(strategy.kind, q, horizon)
    expand(space, a0, Player.I, rule, leaf=leaf, budget=budget, table=strategy.table)


def reinterpret_adversarial(strat: Strategy) -> Strategy:
    """His strategy in the game constraining his subspaces, read in the
    game constraining hers: his moves stay legal (the tighter relation
    implies the looser), her options only shrink, so the table carries
    over unchanged (states hold no game kind)."""
    _require_game(strat, Player.I, GameKind.ADVERSARIAL_A, "reinterpretation")
    return replace(
        strat, kind=GameKind.ADVERSARIAL_B, table=dict(strat.table), name=f"B-read:{strat.name}"
    )


# -- parity lift between chooser and adversarial games ---------------------------


def tilde_lift(space: SpaceInstance, payoff: Payoff):
    """The parity-twisted space and doubled payoff.

    Admission of an even-length history reads the odd-indexed entries,
    of an odd-length history the even-indexed ones; the doubled payoff
    accepts exactly when its odd-indexed entries are accepted by the
    original.  Strategies for the adversarial games of the twisted space
    project onto strategies for the chooser games of the original.
    """
    base_admits = space.admits

    def admits(history, p):
        sub = history[1::2] if len(history) % 2 == 0 else history[0::2]
        return base_admits(sub, p)

    twisted = space.derive(
        name=f"tilde({space.name})",
        admits=admits,
        admission=FULL_HISTORY,
        metric=None,
        system=None,
        meta={**space.meta, "tilde": True},
    )
    base_accepts = payoff.accepts
    doubled = Payoff(
        2 * payoff.horizon,
        lambda seq: base_accepts(seq[1::2]),
        f"tilde({payoff.name})",
    )
    return twisted, doubled


def project_tilde_strategy(
    space: SpaceInstance, twisted: SpaceInstance, strat: Strategy
) -> Strategy:
    """Project an adversarial strategy of the twisted space down to the
    matching chooser game of the base space.

    His twisted strategy (the game constraining his subspaces) becomes
    his strategy in the asymptotic game; hers becomes her strategy in
    the unconstrained chooser game.  Our own filler moves in the twisted
    simulation are canonical: the base root for filler subspaces, the
    first admitted point for filler points.
    """
    if strat.owner is Player.I and strat.kind is GameKind.ADVERSARIAL_A:
        return _project_to_asymptotic(space, twisted, strat)
    if strat.owner is Player.II and strat.kind is GameKind.ADVERSARIAL_B:
        return _project_to_gowers(space, twisted, strat)
    raise StrategyRefused("projection needs a strategy for I in game A or for II in game B")


def _project_to_asymptotic(space, twisted, strat):
    """His chooser moves copy his twisted subspaces; her answers are
    echoed into the twisted play (the shadow, before the echo)."""
    _require_verified(strat, Player.I, GameKind.ADVERSARIAL_A, "projection")
    horizon = strat.horizon // 2
    root = strat.root
    out = Strategy(
        Player.I, GameKind.ASYMPTOTIC_F, root, horizon, name=f"F-from:{strat.name}"
    )

    def echo(f_pos, t_mid):
        point = f_pos.moves[-1].point
        if len(t_mid.moves) == strat.horizon:
            t_reply = Move(Player.II, point=point)
        else:
            t_reply = Move(Player.II, point=point, subspace=root)
        if not move_legal(twisted, t_mid, t_reply):
            raise FiniteExhaustion(
                "tilde projection", f"echoed point {point} not twisted-legal"
            )
        return t_mid.child(t_reply)

    def rule(f_pos, t_pos):
        if f_pos.moves:
            t_pos = echo(f_pos, t_pos)
        t_move = strat.move_at(t_pos)
        return Move(Player.I, subspace=t_move.subspace), t_pos.child(t_move)

    t0 = initial_position(GameKind.ADVERSARIAL_A, root, strat.horizon)
    expand(
        space,
        initial_position(GameKind.ASYMPTOTIC_F, root, horizon),
        Player.I,
        rule,
        shadow=t0.child(Move(Player.II, subspace=root)),
        leaf=checked_leaf(echo),
        table=out.table,
    )
    return out


def _project_to_gowers(space, twisted, strat):
    """Her chooser answers read her twisted replies to a canonical filler
    point under his subspace (the shadow is the twisted play)."""
    _require_verified(strat, Player.II, GameKind.ADVERSARIAL_B, "projection")
    horizon = strat.horizon // 2
    root = strat.root
    out = Strategy(
        Player.II, GameKind.GOWERS_G, root, horizon, name=f"G-from:{strat.name}"
    )

    def rule(g_pos, t_pos):
        his = g_pos.moves[-1]
        filler = None
        for z in range(len(space.points)):
            candidate = Move(Player.I, point=z, subspace=his.subspace)
            if move_legal(twisted, t_pos, candidate):
                filler = candidate
                break
        if filler is None:
            raise FiniteExhaustion(
                "tilde projection", "no admitted filler point for his move"
            )
        t_mid = t_pos.child(filler)
        t_reply = strat.move_at(t_mid)
        return Move(Player.II, point=t_reply.point), t_mid.child(t_reply)

    t0 = initial_position(GameKind.ADVERSARIAL_B, root, strat.horizon)
    expand(
        space,
        initial_position(GameKind.GOWERS_G, root, horizon),
        Player.II,
        rule,
        shadow=t0.child(strat.move_at(t0)),
        table=out.table,
    )
    return out


# -- bit-decorated points (unfolding) ----------------------------------------------


def decorate_space(space: SpaceInstance) -> SpaceInstance:
    """The space over point-bit pairs; admission ignores the bits.

    Decorated point ids are 2*x + bit, keeping the enumeration canonical.
    """
    base_admits = space.admits
    labels = []
    for label in space.points:
        labels.append((label, 0))
        labels.append((label, 1))

    def admits(history, p):
        return base_admits(tuple(h // 2 for h in history), p)

    return space.derive(
        name=f"decorated({space.name})",
        points=labels,
        admits=admits,
        metric=None,
        system=None,
        meta={**space.meta, "decorated": True},
    )


def decorate_sequence(seq: tuple, bits: tuple) -> tuple:
    return tuple(2 * x + b for x, b in zip(seq, bits))


def projected_payoff(payoff_prime: Payoff) -> Payoff:
    """Membership under some bit decoration (the projection of the
    decorated target)."""
    base = payoff_prime.accepts

    def accepts(seq):
        return any(
            base(decorate_sequence(seq, bits))
            for bits in product((0, 1), repeat=len(seq))
        )

    return Payoff(payoff_prime.horizon, accepts, f"proj({payoff_prime.name})")


def asymptotic_recommendation(
    space: SpaceInstance, tau: Strategy, history: tuple
) -> Move:
    """Replay an asymptotic-game strategy along a point history and return
    its next move."""
    pos = initial_position(tau.kind, tau.root, tau.horizon)
    for x in history:
        mine = tau.move_at(pos)
        pos = pos.child(mine).child(Move(Player.II, point=x))
    return tau.move_at(pos)


def unfold_asymptotic(
    space: SpaceInstance,
    tau_prime: Strategy,
    payoff_prime: Payoff,
    budget: Optional[Budget] = None,
) -> Strategy:
    """Collapse a winning decorated-game strategy to an undecorated one.

    His move after a history is an iterated meet of his decorated moves
    over all bit decorations of that history; outcomes then avoid every
    decoration of the decorated target at once.  The move reads only
    the point prefix, so the table is memoryless.
    """
    _require_verified(tau_prime, Player.I, GameKind.ASYMPTOTIC_F, "unfold_asymptotic")
    decorated = decorate_space(space)
    root = tau_prime.root
    horizon = payoff_prime.horizon
    name = f"unfolded:{tau_prime.name}"
    out = Strategy(Player.I, GameKind.ASYMPTOTIC_F, root, horizon, name=name)

    def rule(f_pos, shadow):
        s = f_pos.point_prefix
        recommendations = [
            asymptotic_recommendation(
                decorated, tau_prime, decorate_sequence(s, bits)
            ).subspace
            for bits in product((0, 1), repeat=len(s))
        ]
        return Move(Player.I, subspace=iterated_meet(space, recommendations, root)), shadow

    f0 = initial_position(GameKind.ASYMPTOTIC_F, root, horizon)
    budget = budget or Budget(where="unfold_asymptotic")
    expand(space, f0, Player.I, rule, budget=budget, table=out.table)
    return out


# -- asymptotic to chooser game, and back ------------------------------------------


def gowers_from_asymptotic(
    space: SpaceInstance, tau: Strategy, payoff: Payoff, budget: Optional[Budget] = None
) -> Strategy:
    """Her chooser-game strategy from his asymptotic one: answer each of
    his subspaces by a point admitted below its meet with the
    recommendation of the simulated asymptotic play.  That play is a
    function of her point prefix, and is made once per prefix (one
    ``tau.move_at`` each) from the play at the prefix one point shorter;
    the walk threads no memory, so the table is memoryless by
    construction."""
    _require_verified(tau, Player.I, GameKind.ASYMPTOTIC_F, "gowers_from_asymptotic")
    root = tau.root
    out = Strategy(Player.II, GameKind.GOWERS_G, root, tau.horizon, name=f"G-from-F:{tau.name}")
    # Point prefix -> the simulated asymptotic play with his
    # recommendation made, and that recommendation.
    plays: dict = {}

    def simulated(prefix):
        hit = plays.get(prefix)
        if hit is None:
            if prefix:
                f_mid = simulated(prefix[:-1])[0]
                f_pos = f_mid.child(Move(Player.II, point=prefix[-1]))
            else:
                f_pos = initial_position(GameKind.ASYMPTOTIC_F, root, tau.horizon)
            f_move = tau.move_at(f_pos)
            hit = plays[prefix] = (f_pos.child(f_move), f_move)
        return hit

    def rule(g_pos, shadow):
        f_move = simulated(g_pos.point_prefix)[1]
        his = g_pos.moves[-1]
        meet = space.meet_witness(his.subspace, f_move.subspace)
        if meet is None:
            raise FiniteExhaustion(
                "gowers_from_asymptotic",
                f"meet of {his.subspace} and {f_move.subspace} undefined",
            )
        admitted = space.admitted_points(g_pos.point_prefix, meet)
        if not admitted:
            raise FiniteExhaustion(
                "gowers_from_asymptotic", f"no point admitted below {meet}"
            )
        return Move(Player.II, point=admitted[0]), None

    expand(
        space,
        initial_position(GameKind.GOWERS_G, root, tau.horizon),
        Player.II,
        rule,
        budget=budget or Budget(where="gowers_from_asymptotic"),
        table=out.table,
    )
    return out


@dataclass
class AsymptoticTransfer:
    q: int
    strategy: Strategy
    chain: list


def _length_lex_sequences(n_points: int, max_len: int):
    out = [()]
    for length in range(1, max_len + 1):
        out.extend(product(range(n_points), repeat=length))
    return out


def _transfer_to_asymptotic(space, sigma, payoff, provider, radius, budget, stage, tag):
    """His asymptotic strategy from her chooser-game strategy, through the
    pigeonhole principle, up to a per-stage ``radius``.

    Build, for every short sequence, a partial play of her game realising
    it: her answers lie within twice the stage's radius of its entries.
    Refine a subspace chain so that below the n-th element every admitted
    continuation is within the next stage's radius of a point she can be
    steered to.  Fuse the chain, read each of her answers as the first
    point within its stage's radius, and let him play meets of the fused
    subspace with the chain element of the sequence read so far.  At
    radius zero every test is the exact one, since ``distance(x, y) == 0``
    only when ``x == y``.  His move reads only the point prefix, so the
    table is memoryless.
    """
    budget = budget or Budget(where=stage)
    _require_verified(sigma, Player.II, GameKind.GOWERS_G, stage)
    root = sigma.root
    horizon = payoff.horizon
    point_ids = range(len(space.points))
    seqs = _length_lex_sequences(len(space.points), horizon - 1)
    seq_index = {s: n for n, s in enumerate(seqs)}

    states: dict = {(): initial_position(GameKind.GOWERS_G, root, horizon)}
    for s in seqs[1:]:
        parent = states.get(s[:-1])
        states[s] = None
        if parent is None:
            continue
        for r in space.below(root):
            budget.tick()
            mid = parent.child(Move(Player.I, subspace=r))
            reply = sigma.move_at(mid)
            if space.distance(reply.point, s[-1]) <= 2 * radius[len(s) - 1]:
                states[s] = mid.child(reply)
                break

    chain = [root]
    reach: dict = {}  # one reachable set per realised state
    for s in seqs:
        budget.tick()
        state = states[s]
        if state is None:
            chain.append(chain[-1])
            continue
        key = state.state()
        if key not in reach:
            reach[key] = reachable_set(space, state, sigma, budget)
        chain.append(
            provider.subset_refinement(space, s, reach[key], chain[-1], radius[len(s)])
        )

    q = space.fusion_witness(tuple(chain))
    out = Strategy(Player.I, GameKind.ASYMPTOTIC_F, q, horizon, name=f"{tag}:{sigma.name}")

    def rule(f_pos, shadow):
        s = tuple(
            next(y for y in point_ids if space.distance(x, y) <= radius[i])
            for i, x in enumerate(f_pos.point_prefix)
        )
        if states.get(s) is None:
            raise FiniteExhaustion(stage, f"reached a sequence {s} with no realised state")
        meet = space.meet_witness(q, chain[seq_index[s] + 1])
        if meet is None:
            raise FiniteExhaustion(stage, f"meet of {q} and chain element undefined")
        return Move(Player.I, subspace=meet), shadow

    f0 = initial_position(GameKind.ASYMPTOTIC_F, q, horizon)
    expand(space, f0, Player.I, rule, budget=budget, table=out.table)
    return AsymptoticTransfer(q, out, chain)


def asymptotic_from_gowers(
    space: SpaceInstance,
    sigma: Strategy,
    payoff: Payoff,
    provider,
    budget: Optional[Budget] = None,
) -> AsymptoticTransfer:
    """His asymptotic strategy from her chooser-game strategy, through the
    pigeonhole principle: the transfer at radius zero, so her answers
    realise each sequence exactly and the chain lands inside her
    reachable sets."""
    return _transfer_to_asymptotic(
        space, sigma, payoff, provider, (0,) * payoff.horizon, budget,
        "asymptotic_from_gowers", "F-from-G",
    )


# -- homogeneous set extraction ------------------------------------------------------


def homogeneous_from_asymptotic(
    space: SpaceInstance, tau: Strategy, payoff: Payoff, budget: Optional[Budget] = None
) -> tuple:
    """Extract an integer set every increasing subsequence of which the
    asymptotic strategy already wins on.

    Greedy recursion: the next element must lie inside the strategy's
    recommended subspace after every increasing subsequence of the
    elements chosen so far (of length below the horizon).  Exact
    membership in the recommended subspaces is demanded, not a
    min-threshold, since palette subspaces may have gaps; on strategies
    playing final segments this is the familiar max-of-thresholds
    recursion.  Each replay of the strategy costs one budget tick.
    """
    budget = budget or Budget(where="homogeneous_from_asymptotic")
    if space.meta.get("kind") != "mathias-silver":
        raise KindMismatch("homogeneous extraction needs a Mathias-Silver instance")
    _require_verified(tau, Player.I, GameKind.ASYMPTOTIC_F, "homogeneous extraction")
    masks = space.meta["masks"]
    root_mask = masks[tau.root]
    horizon = payoff.horizon
    chosen: list[int] = []
    while True:
        # Every increasing subsequence of what was chosen so far, of
        # length below the horizon, constrains the next element: it must
        # lie inside each recommended subspace, not merely above its
        # minimum (palette subspaces may have gaps).
        allowed = root_mask
        for length in range(0, horizon):
            for sub in combinations(chosen, length):
                budget.tick()
                rec = asymptotic_recommendation(space, tau, sub)
                allowed &= masks[rec.subspace]
        lo = chosen[-1] + 1 if chosen else 0
        candidate = None
        for x in range(lo, len(space.points)):
            if allowed >> x & 1:
                candidate = x
                break
        if candidate is None:
            break
        chosen.append(candidate)
    if not chosen:
        raise FiniteExhaustion(
            "homogeneous extraction", "no admissible first element"
        )
    return tuple(chosen)


# -- the dichotomy experiment -------------------------------------------------------


@dataclass
class DichotomyEntry:
    q: int
    first_side: bool
    second_side: bool

    @property
    def realized(self) -> bool:
        return self.first_side or self.second_side


@dataclass
class DichotomyReport:
    flavor: str
    entries: list

    @property
    def realized_at(self) -> list:
        return [e.q for e in self.entries if e.realized]

    def to_json(self) -> dict:
        return {
            "flavor": self.flavor,
            "entries": [
                {
                    "q": e.q,
                    "first_side": e.first_side,
                    "second_side": e.second_side,
                }
                for e in self.entries
            ],
            "realized_at": self.realized_at,
        }


# The two games each dichotomy flavor solves below every subspace.
DICHOTOMY_GAMES = {
    "strategic": (GameKind.ASYMPTOTIC_F, GameKind.GOWERS_G),
    "adversarial": (GameKind.ADVERSARIAL_A, GameKind.ADVERSARIAL_B),
}


def check_ramsey_dichotomy(
    space: SpaceInstance,
    payoff: Payoff,
    p: int,
    flavor: str = "strategic",
    budget: Optional[Budget] = None,
) -> DichotomyReport:
    """Decide the paired games below every subspace under p and report
    which subspaces realize the dichotomy.  Findings only; nothing is
    asserted about the infinite statement.

    Strategic flavor: his asymptotic game toward the complement against
    her chooser game toward the set.  Adversarial flavor: his
    constrained game toward the set against hers toward the complement.
    Each game is decided at every root q below p in one search,
    ``winning_roots``, and each row is read off the two bitsets.
    """
    if flavor not in DICHOTOMY_GAMES:
        raise ValueError(f"unknown dichotomy flavor {flavor!r}")
    first_kind, second_kind = DICHOTOMY_GAMES[flavor]
    first_goal, second_goal = negate(payoff), payoff
    if flavor == "adversarial":
        first_goal, second_goal = second_goal, first_goal
    roots = space._leq_column(p)
    first = winning_roots(space, first_kind, roots, first_goal, Player.I, budget)
    second = winning_roots(space, second_kind, roots, second_goal, Player.II, budget)
    entries = [
        DichotomyEntry(q, bool(first >> q & 1), bool(second >> q & 1)) for q in space.below(p)
    ]
    return DichotomyReport(flavor, entries)
