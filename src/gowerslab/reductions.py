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
  unverified inputs would be worthless.
* All searches scan in canonical enumeration order, so outputs are
  reproducible.
* The countable enumerations of the original arguments become finite
  length-then-lexicographic enumerations, which preserves the only
  property the proofs use (prefix monotonicity).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product
from typing import Optional

from .errors import Budget, FiniteExhaustion, KindMismatch
from .games import (
    GameKind,
    GamePosition,
    Move,
    Player,
    initial_position,
    move_legal,
)
from .payoffs import Payoff, negate
from .solver import Strategy, expand, solve
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


def _continuations(space: SpaceInstance, state_pos: GamePosition):
    """Adversary continuation shapes for a nested-game state.

    Returns (adversary_points, subspace_pool, make_move) where
    ``adversary_points`` is the list of the adversary's point choices
    (``[None]`` for the bare opening of the empty state).
    """
    if not state_pos.moves:
        # The adversary opens with a bare subspace.
        pool = space.below(state_pos.root)
        return [None], pool, lambda a, u: Move(Player.II, subspace=u)
    constraint = state_pos.moves[-1].subspace
    pool = space.below(constraint)
    player = state_pos.to_move
    return (
        list(range(len(space.points))),
        pool,
        lambda a, u: Move(player, point=a, subspace=u),
    )


def _diagonal_step(space, state_pos, tau, a, b, compat_with, require_star=None):
    """First (u, v): the adversary legally continues with (a, u), tau
    replies with point b and subspace v, and v is compatible with
    ``compat_with`` (optionally also ``require_star <=* v``)."""
    points, pool, make = _continuations(space, state_pos)
    if a not in points:
        return None
    for u in pool:
        move = make(a, u)
        if not move_legal(space, state_pos, move):
            continue
        reply = tau.move_at(state_pos.child(move))
        if reply.point != b:
            continue
        v = reply.subspace
        if v is None:
            continue
        if not space.compatible(v, compat_with):
            continue
        if require_star is not None and not space.leq_star(require_star, v):
            continue
        return u, v
    return None


def diagonalize_states(
    space: SpaceInstance,
    states,
    tau: Strategy,
    r: int,
    budget: Optional[Budget] = None,
) -> int:
    """Shrink ``r`` so that every state continuation compatible with the
    result admits a continuation whose reply subspace sits above it in
    the star order.

    The chain construction: walk the finite enumeration of
    (state, adversary point, reply point) triples, and whenever some
    continuation's reply subspace is compatible with the current chain
    element, descend to a common lower bound with it.  The fusion
    witness then closes the chain.
    """
    budget = budget or Budget(where="diagonalize_states")
    chain = [r]
    n_points = len(space.points)
    for pos in states:
        adversary_points, _, _ = _continuations(space, pos)
        for a in adversary_points:
            for b in range(n_points):
                budget.tick()
                hit = _diagonal_step(space, pos, tau, a, b, chain[-1])
                if hit is None:
                    chain.append(chain[-1])
                    continue
                _, v = hit
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
    for idx, pos in enumerate(states):
        adversary_points, _, _ = _continuations(space, pos)
        for a in adversary_points:
            for b in range(len(space.points)):
                budget.tick()
                plain = _diagonal_step(space, pos, tau, a, b, r_star)
                if plain is None:
                    continue
                strong = _diagonal_step(
                    space, pos, tau, a, b, r_star, require_star=r_star
                )
                if strong is None:
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
    rounds: dict = field(default_factory=dict)  # position key -> RoundRecord

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
                for _, rec in sorted(self.rounds.items(), key=lambda kv: repr(kv[0]))
            ],
        }


def _require_verified(strat: Strategy, owner: Player, kind: GameKind, what: str):
    if strat.owner is not owner or strat.kind is not kind:
        raise ValueError(f"{what} needs a {kind.value}-game strategy for {owner.value}")
    if not strat.verified:
        raise ValueError(f"{what} refuses unverified input strategies")


def _stored_pairs_for(space, states, tau, q_next, budget):
    """For every continuation landing in a state's reachable pair set,
    fix the canonical continuation whose reply subspace dominates the
    next diagonal subspace; extend the states accordingly."""
    stored = {}
    next_states = []
    n_points = len(space.points)
    for state_pos in states:
        adversary_points, _, make = _continuations(space, state_pos)
        for a in adversary_points:
            for b in range(n_points):
                budget.tick()
                plain = _diagonal_step(space, state_pos, tau, a, b, q_next)
                if plain is None:
                    continue
                strong = _diagonal_step(
                    space, state_pos, tau, a, b, q_next, require_star=q_next
                )
                if strong is None:
                    raise FiniteExhaustion(
                        "stored_pairs",
                        f"diagonalization guarantee failed for reply point {b}",
                    )
                u, v = strong
                stored[(state_pos.key(), a, b)] = (u, v)
                mid = state_pos.child(make(a, u))
                next_states.append(mid.child(tau.move_at(mid)))
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

    root = tau.root
    if owner is Player.II:
        opening = tau.move_at(initial_position(GameKind.KASTANAS, root, tau.horizon))
        chain = [opening.subspace]
        states = [
            initial_position(GameKind.KASTANAS, root, tau.horizon).child(opening)
        ]
        n_diagonal = rounds_total - 1
    else:
        chain = [root]
        states = [initial_position(GameKind.KASTANAS, root, tau.horizon)]
        n_diagonal = rounds_total

    stored_by_round = []
    for n in range(n_diagonal):
        q_next = diagonalize_states(space, states, tau, chain[-1], budget)
        chain.append(q_next)
        stored, states = _stored_pairs_for(space, states, tau, q_next, budget)
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


def _build_second_player(space, tau, q, chain, stored_by_round, transfer, budget):
    """Her adversarial strategy: open with the fused subspace, then per
    round probe the nested game fictively, replay the stored pair for
    real, and answer below the real reply.  The shadow is the real
    nested state of rank n and the round n."""
    strategy = transfer.strategy
    horizon = strategy.horizon
    rounds_total = horizon // 2

    def rule(b_pos, shadow):
        if not b_pos.moves:
            return Move(Player.II, subspace=q), (_opening_state(tau, horizon), 0)
        sim_pos, n = shadow
        i_move = b_pos.moves[-1]
        x, u = i_move.point, i_move.subspace
        v_sim = sim_pos.moves[-1].subspace
        u_fict = _meet_or_exhaust(space, u, v_sim, f"fictive meet (round {n})")
        probe = Move(Player.I, point=x, subspace=u_fict)
        if not move_legal(space, sim_pos, probe):
            raise FiniteExhaustion(
                "fictive probe", f"probe {probe} illegal at round {n}"
            )
        fict_reply = tau.move_at(sim_pos.child(probe))
        y = fict_reply.point
        if n == rounds_total - 1:
            reply = Move(Player.II, point=y)
            transfer.rounds[b_pos.key()] = RoundRecord(
                n, i_move.key(), probe.key(), fict_reply.key(), None, reply.key()
            )
            return reply, None
        if not space.compatible(fict_reply.subspace, chain[n + 1]):
            raise FiniteExhaustion(
                "fictive compatibility",
                f"reply subspace {fict_reply.subspace} incompatible with "
                f"diagonal {chain[n + 1]} at round {n}",
            )
        key = (sim_pos.key(), x, y)
        if key not in stored_by_round[n]:
            raise FiniteExhaustion(
                "stored pair", f"no stored continuation for round {n}"
            )
        u_real, v_real = stored_by_round[n][key]
        real_mid = sim_pos.child(Move(Player.I, point=x, subspace=u_real))
        real_reply = tau.move_at(real_mid)
        assert real_reply == Move(Player.II, point=y, subspace=v_real)
        v_next = _meet_or_exhaust(space, q, v_real, f"answer meet (round {n})")
        reply = Move(Player.II, point=y, subspace=v_next)
        transfer.rounds[b_pos.key()] = RoundRecord(
            n,
            i_move.key(),
            probe.key(),
            fict_reply.key(),
            (u_real, v_real),
            reply.key(),
        )
        return reply, (real_mid.child(real_reply), n + 1)

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
    shadow is the real nested state after his n-th move, with n and his
    real subspace; it is None before his first move."""
    strategy = transfer.strategy
    horizon = strategy.horizon

    def rule(a_pos, shadow):
        her = a_pos.moves[-1]
        if shadow is None:
            # Her opening is nested-legal as it stands: it sits below the root.
            sim_pos, n, probe_move = (
                initial_position(GameKind.KASTANAS, tau.root, horizon), 0, her
            )
        else:
            sim_pos, prev, u_prev = shadow
            w_fict = _meet_or_exhaust(
                space, her.subspace, u_prev, f"her fictive meet (round {prev})"
            )
            probe_move = Move(Player.II, point=her.point, subspace=w_fict)
            if not move_legal(space, sim_pos, probe_move):
                raise FiniteExhaustion(
                    "fictive probe", f"probe {probe_move} illegal at round {prev + 1}"
                )
            n = prev + 1
        fict_reply = tau.move_at(sim_pos.child(probe_move))
        x = fict_reply.point
        if not space.compatible(fict_reply.subspace, chain[n + 1]):
            raise FiniteExhaustion(
                "fictive compatibility",
                f"reply subspace {fict_reply.subspace} incompatible with "
                f"diagonal {chain[n + 1]} at round {n}",
            )
        a = probe_move.point  # None at the opening
        key = (sim_pos.key(), a, x)
        if key not in stored_by_round[n]:
            raise FiniteExhaustion("stored pair", f"no stored continuation (round {n})")
        w_real, u_real = stored_by_round[n][key]
        if a is None:
            real_mid = sim_pos.child(Move(Player.II, subspace=w_real))
        else:
            real_mid = sim_pos.child(Move(Player.II, point=a, subspace=w_real))
        real_reply = tau.move_at(real_mid)
        assert real_reply == Move(Player.I, point=x, subspace=u_real)
        u_mine = _meet_or_exhaust(space, q, u_real, f"his meet (round {n})")
        my_move = Move(Player.I, point=x, subspace=u_mine)
        transfer.rounds[a_pos.key()] = RoundRecord(
            n,
            probe_move.key(),
            probe_move.key(),
            fict_reply.key(),
            (w_real, u_real),
            my_move.key(),
        )
        return my_move, (real_mid.child(real_reply), n, u_real)

    def leaf(a_pos, shadow):
        # Complete the nested play with her bare point.
        point = a_pos.moves[-1].point
        if not move_legal(space, shadow[0], Move(Player.II, point=point)):
            raise FiniteExhaustion(
                "closing move", f"her point {point} not nested-legal"
            )

    a0 = initial_position(strategy.kind, q, horizon)
    expand(space, a0, Player.I, rule, leaf=leaf, budget=budget, table=strategy.table)


def reinterpret_adversarial(strat: Strategy) -> Strategy:
    """His strategy in the game constraining his subspaces, read in the
    game constraining hers: his moves stay legal (the tighter relation
    implies the looser), her options only shrink, so the table carries
    over: a history table with retagged position keys, a positional one
    unchanged (states hold no game kind)."""
    if strat.owner is not Player.I or strat.kind is not GameKind.ADVERSARIAL_A:
        raise ValueError("reinterpretation goes from his constrained game")
    out = Strategy(
        Player.I,
        GameKind.ADVERSARIAL_B,
        strat.root,
        strat.horizon,
        name=f"B-read:{strat.name}",
        verified=strat.verified,
        positional=strat.positional,
    )
    if strat.positional:
        out.table = dict(strat.table)
    else:
        for key, move in strat.table.items():
            out.table[(GameKind.ADVERSARIAL_B.value,) + key[1:]] = move
    return out


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
    raise ValueError("projection expects his A-strategy or her B-strategy")


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
        leaf=echo,
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
    space: SpaceInstance, tau_prime: Strategy, payoff_prime: Payoff
) -> Strategy:
    """Collapse a winning decorated-game strategy to an undecorated one.

    His move after a history is an iterated meet of his decorated moves
    over all bit decorations of that history; outcomes then avoid every
    decoration of the decorated target at once.
    """
    _require_verified(tau_prime, Player.I, GameKind.ASYMPTOTIC_F, "unfold_asymptotic")
    decorated = decorate_space(space)
    root = tau_prime.root
    horizon = payoff_prime.horizon
    out = Strategy(
        Player.I,
        GameKind.ASYMPTOTIC_F,
        root,
        horizon,
        name=f"unfolded:{tau_prime.name}",
    )

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
    expand(space, f0, Player.I, rule, table=out.table)
    return out


# -- asymptotic to chooser game, and back ------------------------------------------


def gowers_from_asymptotic(
    space: SpaceInstance, tau: Strategy, payoff: Payoff
) -> Strategy:
    """Her chooser-game strategy from his asymptotic one: answer each of
    his subspaces by a point admitted below its meet with the
    recommendation of the simulated asymptotic play."""
    _require_verified(tau, Player.I, GameKind.ASYMPTOTIC_F, "gowers_from_asymptotic")
    root = tau.root
    out = Strategy(
        Player.II,
        GameKind.GOWERS_G,
        root,
        tau.horizon,
        name=f"G-from-F:{tau.name}",
    )

    def pending(f_pos):
        # The simulated asymptotic play with his recommendation made.
        f_move = tau.move_at(f_pos)
        return f_pos.child(f_move), f_move

    def rule(g_pos, shadow):
        f_mid, f_move = shadow
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
        x = admitted[0]
        f_next = f_mid.child(Move(Player.II, point=x))
        return Move(Player.II, point=x), None if f_next.terminal else pending(f_next)

    expand(
        space,
        initial_position(GameKind.GOWERS_G, root, tau.horizon),
        Player.II,
        rule,
        shadow=pending(initial_position(GameKind.ASYMPTOTIC_F, root, tau.horizon)),
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


def asymptotic_from_gowers(
    space: SpaceInstance,
    sigma: Strategy,
    payoff: Payoff,
    provider,
    budget: Optional[Budget] = None,
) -> AsymptoticTransfer:
    """His asymptotic strategy from her chooser-game strategy, through the
    pigeonhole principle.

    Build, for every short sequence, a partial play of her game realising
    it (when reachable); refine a subspace chain so that below the n-th
    element every admitted continuation is a point she can be steered to;
    fuse the chain and let him play meets of the fused subspace with the
    chain, keeping the play inside realised states.
    """
    budget = budget or Budget(where="asymptotic_from_gowers")
    _require_verified(sigma, Player.II, GameKind.GOWERS_G, "asymptotic_from_gowers")
    root = sigma.root
    horizon = payoff.horizon
    seqs = _length_lex_sequences(len(space.points), horizon - 1)
    seq_index = {s: n for n, s in enumerate(seqs)}

    states: dict = {(): initial_position(GameKind.GOWERS_G, root, horizon)}
    for s in seqs[1:]:
        parent = states.get(s[:-1])
        if parent is None:
            states[s] = None
            continue
        found = None
        for r in space.below(root):
            budget.tick()
            reply = sigma.move_at(parent.child(Move(Player.I, subspace=r)))
            if reply.point == s[-1]:
                found = parent.child(Move(Player.I, subspace=r)).child(reply)
                break
        states[s] = found

    chain = [root]
    for s in seqs:
        budget.tick()
        state = states[s]
        if state is None:
            chain.append(chain[-1])
            continue
        reach = reachable_set(space, state, sigma, budget)
        refined = provider.subset_refinement(space, s, reach, chain[-1])
        chain.append(refined)

    q = space.fusion_witness(tuple(chain))
    out = Strategy(
        Player.I,
        GameKind.ASYMPTOTIC_F,
        q,
        horizon,
        name=f"F-from-G:{sigma.name}",
    )

    def rule(f_pos, shadow):
        s = f_pos.point_prefix
        if states.get(s) is None:
            raise FiniteExhaustion(
                "asymptotic_from_gowers",
                f"reached a sequence {s} with no realised state",
            )
        meet = space.meet_witness(q, chain[seq_index[s] + 1])
        if meet is None:
            raise FiniteExhaustion(
                "asymptotic_from_gowers", f"meet of {q} and chain element undefined"
            )
        return Move(Player.I, subspace=meet), shadow

    f0 = initial_position(GameKind.ASYMPTOTIC_F, q, horizon)
    expand(space, f0, Player.I, rule, budget=budget, table=out.table)
    return AsymptoticTransfer(q, out, chain)


# -- homogeneous set extraction ------------------------------------------------------


def homogeneous_from_asymptotic(
    space: SpaceInstance, tau: Strategy, payoff: Payoff
) -> tuple:
    """Extract an integer set every increasing subsequence of which the
    asymptotic strategy already wins on.

    Greedy recursion: the next element must lie inside the strategy's
    recommended subspace after every increasing subsequence of the
    elements chosen so far (of length below the horizon).  Exact
    membership in the recommended subspaces is demanded, not a
    min-threshold, since palette subspaces may have gaps; on strategies
    playing final segments this is the familiar max-of-thresholds
    recursion.
    """
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
    """Solve the paired games below every subspace under p and report
    which subspaces realize the dichotomy.  Findings only; nothing is
    asserted about the infinite statement.

    Strategic flavor: his asymptotic game toward the complement against
    her chooser game toward the set.  Adversarial flavor: his
    constrained game toward the set against hers toward the complement.
    """
    if flavor not in DICHOTOMY_GAMES:
        raise ValueError(f"unknown dichotomy flavor {flavor!r}")
    first_kind, second_kind = DICHOTOMY_GAMES[flavor]
    first_goal, second_goal = negate(payoff), payoff
    if flavor == "adversarial":
        first_goal, second_goal = second_goal, first_goal
    entries = []
    for q in space.below(p):
        first = solve(space, first_kind, q, first_goal, Player.I, budget)
        second = solve(space, second_kind, q, second_goal, Player.II, budget)
        entries.append(
            DichotomyEntry(q, first.winner is Player.I, second.winner is Player.II)
        )
    return DichotomyReport(flavor, entries)
