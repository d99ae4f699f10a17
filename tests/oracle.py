"""Test-only references, kept for the tests next to ``historywalk``.

``naive_solve_oracle`` decides a game by minimax over move histories,
with no memo and a smaller default budget than ``solve``, and reads the
payoff at ``state_outcome`` rather than through the solver.  The solver
tests and acceptance criteria 2 and 5 compare ``solve`` with it.

``per_root_winners`` decides a game at every root of a palette bitset
with one ``solve`` per root; the tests compare ``winning_roots``, the
one search over all the roots that the dichotomy runs, with it.

``diagonal_step`` is the Kastanas diagonalization's scan of one
(state, adversary point a, reply point b) triple, rereading the strategy
at every candidate continuation; ``diagonalize_by_scan``,
``check_by_scan`` and ``stored_pairs_by_scan`` walk the triples with it.
The tests compare ``reductions``' continuation tables with them.

``vector_palette_reference`` builds the Rosendal palettes by tuple
arithmetic, apart from the base-q numeral bitsets of
``gowerslab.instances``; the instance tests compare the two.

``lift_by_scan`` lifts a strategy off a discretization with one rule
per game family, a chooser one and an interleaved one, which find each
shadow and witness by a scan of host distances and admissions; the
tests compare ``approx.lift_strategy``, which reads the discretization's
bitsets, with it, and its nearest table with ``shadow_by_scan``.

``subspace_inside_by_scan`` is the ``stay-in-set`` rule's scan of every
palette subspace below an anchor, with its admitted points; the tests
compare ``cli.largest_inside`` and the rule's tables with it.

``gowers_from_asymptotic_by_shadow`` builds her chooser-game strategy
with his simulated asymptotic play threaded down each line as the
walk's shadow; the tests compare ``reductions.gowers_from_asymptotic``,
which makes that play once per point prefix, with it.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Optional

from gowerslab.errors import Budget, FiniteExhaustion
from gowerslab.games import (
    CHOOSER,
    GameKind,
    GamePosition,
    Move,
    Player,
    initial_position,
    legal_moves,
    move_legal,
    state_outcome,
)
from gowerslab.payoffs import Payoff
from gowerslab.solver import SolveResult, Strategy, checked_leaf, expand, legality, solve
from gowerslab.space import SpaceInstance, bits


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


def per_root_winners(
    space: SpaceInstance, kind: GameKind, roots: int, payoff: Payoff, goal_owner: Player
) -> int:
    """The palette bitset of the roots q in ``roots`` with
    ``solve(space, kind, q, payoff, goal_owner).winner is goal_owner``:
    one solve, with its own budget, per root."""
    won = 0
    for q in bits(roots):
        if solve(space, kind, q, payoff, goal_owner).winner is goal_owner:
            won |= 1 << q
    return won


def diagonal_step(space, legal, pos, tau, a, b, compat_with, require_star=None):
    """First (u, v) in pool order such that the adversary legally
    continues ``pos`` with (a, u), ``tau`` replies with point b and
    subspace v, and v is compatible with ``compat_with`` (and, when
    ``require_star`` is given, star-above it), or None.  The adversary
    opens the empty state with a bare subspace below the root (a is
    None there), and later moves below the last nested subspace."""
    anchor = pos.moves[-1].subspace if pos.moves else pos.root
    for u in space.below(anchor):
        move = Move(pos.to_move, point=a, subspace=u)
        if not legal(pos, move):
            continue
        reply = tau.move_at(pos.child(move))
        v = reply.subspace
        if reply.point != b or v is None or not space.compatible(v, compat_with):
            continue
        if require_star is not None and not space.leq_star(require_star, v):
            continue
        return u, v
    return None


def _scanned_triples(space, states, budget):
    """(state index, state, a, b) in the diagonalization's order, one
    budget tick each."""
    for idx, pos in enumerate(states):
        for a in range(len(space.points)) if pos.moves else (None,):
            for b in range(len(space.points)):
                budget.tick()
                yield idx, pos, a, b


def diagonalize_by_scan(space, states, tau, r, legal, budget) -> int:
    """``reductions.diagonalize_states`` by one ``diagonal_step`` per
    triple."""
    chain = [r]
    for _, pos, a, b in _scanned_triples(space, states, budget):
        hit = diagonal_step(space, legal, pos, tau, a, b, chain[-1])
        lower = chain[-1] if hit is None else space.common_lower_bound(chain[-1], hit[1])
        if lower is None:
            raise FiniteExhaustion("diagonalize_states", "no common lower bound")
        chain.append(lower)
    return space.fusion_witness(tuple(chain))


def check_by_scan(space, states, tau, r_star, budget) -> list:
    """``reductions.check_diagonalization`` by two ``diagonal_step``
    scans per triple."""
    legal = legality(space)
    return [
        (idx, a, b)
        for idx, pos, a, b in _scanned_triples(space, states, budget)
        if diagonal_step(space, legal, pos, tau, a, b, r_star) is not None
        and diagonal_step(space, legal, pos, tau, a, b, r_star, r_star) is None
    ]


def stored_pairs_by_scan(space, legal, states, tau, q_next, budget) -> tuple:
    """``reductions._stored_pairs_for`` by two ``diagonal_step`` scans
    per triple."""
    stored, next_states = {}, []
    for _, pos, a, b in _scanned_triples(space, states, budget):
        if diagonal_step(space, legal, pos, tau, a, b, q_next) is None:
            continue
        pair = diagonal_step(space, legal, pos, tau, a, b, q_next, q_next)
        if pair is None:
            raise FiniteExhaustion("stored_pairs", f"guarantee failed for reply point {b}")
        stored[(pos.state(), a, b)] = pair
        mid = pos.child(Move(pos.to_move, point=a, subspace=pair[0]))
        next_states.append(mid.child(tau.move_at(mid)))
    return stored, next_states


def vector_palette_reference(q: int, d: int, projective: bool) -> tuple:
    """``(points, masks, dims, labels, ticks)`` of ``rosendal(q, d)``, or
    of ``projective_rosendal(q, d)``, by tuple arithmetic.

    A span's mask is read off every combination of its basis with
    coefficients mod q, coordinate by coordinate; the spans are the
    tails, every one-term block and every two-term block ``(u, v)`` with
    v's support past u's, closed under intersection.  ``ticks`` counts
    one per span and one per closure candidate, as the builder charges
    its budget."""
    ticks = 0

    def tick():
        nonlocal ticks
        ticks += 1

    vectors = sorted(v for v in product(range(q), repeat=d) if any(v))
    vec_index = {v: i for i, v in enumerate(vectors)}

    def support(v):
        return [i for i, c in enumerate(v) if c]

    def span_mask(basis):
        mask = 0
        for coeffs in product(range(q), repeat=len(basis)):
            if any(coeffs):
                vec = tuple(
                    sum(c * b[i] for c, b in zip(coeffs, basis)) % q for i in range(d)
                )
                mask |= 1 << vec_index[vec]
        return mask

    unit = [tuple(int(i == j) for i in range(d)) for j in range(d)]
    spans = [unit[j:] for j in range(d)] + [[v] for v in vectors]
    spans += [[u, v] for u in vectors for v in vectors if support(v)[0] > support(u)[-1]]
    masks = set()
    for basis in spans:
        tick()
        masks.add(span_mask(basis))
    while True:
        fresh = set()
        for a, b in combinations(list(masks), 2):
            tick()
            if a & b and a & b not in masks:
                fresh.add(a & b)
        if not fresh:
            break
        masks |= fresh

    points = vectors
    if projective:

        def normalize(v):
            inv = pow(v[support(v)[0]], q - 2, q)
            return tuple(c * inv % q for c in v)

        points = sorted({normalize(v) for v in vectors})
        pt_index = {v: i for i, v in enumerate(points)}
        masks = {
            sum({1 << pt_index[normalize(v)] for v, i in vec_index.items() if m >> i & 1})
            for m in masks
        }

    def members(m):
        return tuple(i for i in range(len(points)) if m >> i & 1)

    def size(k):
        return (q**k - 1) // (q - 1) if projective else q**k - 1

    masks = sorted(masks, key=members)
    dims = [next(k for k in range(d + 1) if size(k) == m.bit_count()) for m in masks]
    labels = [members(m)[:1] + (k,) for m, k in zip(masks, dims)]
    return tuple(points), masks, dims, tuple(labels), ticks


def shadow_by_scan(space, discretized, host_point, bound, stage):
    for local, host in enumerate(discretized.meta["host_points"]):
        if space.distance(host_point, host) < bound:
            return local
    raise FiniteExhaustion(stage, f"no dense point within {bound} of {host_point}")


def _witness_by_scan(space, discretized, local_point, constraint, bound, stage):
    target = discretized.meta["host_points"][local_point]
    for x in range(len(space.points)):
        if space.admits((x,), constraint) and space.distance(x, target) < bound:
            return x
    raise FiniteExhaustion(stage, f"no admitted host point within {bound}")


def lift_by_scan(space, discretized, strat, delta) -> Strategy:
    """``approx.lift_strategy`` of a verified strategy, by the chooser
    lift (F, G) or the interleaved lift (A, B), each point shadowed or
    witnessed by a scan of the host points."""
    kind, owner = strat.kind, strat.owner
    out = Strategy(owner, kind, strat.root, strat.horizon, name=f"lift:{strat.name}")
    start = initial_position(kind, strat.root, strat.horizon)
    if kind in CHOOSER:

        def shadow_answer(real_pos, disc_mid):
            answer = real_pos.moves[-1]
            shadow = shadow_by_scan(
                space, discretized, answer.point, delta[real_pos.depth - 1], "chooser shadow"
            )
            disc_answer = Move(Player.II, point=shadow)
            if not move_legal(discretized, disc_mid, disc_answer):
                raise FiniteExhaustion("chooser shadow", "shadow move illegal")
            return disc_mid.child(disc_answer)

        def his_rule(real_pos, disc_pos):
            if real_pos.moves:
                disc_pos = shadow_answer(real_pos, disc_pos)
            disc_move = strat.move_at(disc_pos)
            return Move(Player.I, subspace=disc_move.subspace), disc_pos.child(disc_move)

        def her_rule(real_mid, disc_pos):
            his = real_mid.moves[-1]
            disc_mid = disc_pos.child(Move(Player.I, subspace=his.subspace))
            reply = strat.move_at(disc_mid)
            x = _witness_by_scan(
                space, discretized, reply.point, his.subspace, delta[real_mid.depth],
                "chooser witness",
            )
            return Move(Player.II, point=x), disc_mid.child(reply)

        if owner is Player.I:
            expand(space, start, owner, his_rule, start, leaf=checked_leaf(shadow_answer),
                   table=out.table)
        else:
            expand(space, start, owner, her_rule, start, table=out.table)
        return out

    def absorb(real_pos, disc_pos):
        theirs = real_pos.moves[-1]
        if theirs.player is owner:
            return disc_pos
        if theirs.point is None:
            disc_theirs = theirs
        else:
            idx = len(real_pos.point_prefix) - 1
            shadow = shadow_by_scan(
                space, discretized, theirs.point, delta[idx], "interleaved shadow"
            )
            disc_theirs = Move(theirs.player, point=shadow, subspace=theirs.subspace)
        if not move_legal(discretized, disc_pos, disc_theirs):
            raise FiniteExhaustion("interleaved shadow", "shadow move illegal")
        return disc_pos.child(disc_theirs)

    def rule(real_pos, disc_pos):
        if real_pos.moves:
            disc_pos = absorb(real_pos, disc_pos)
        disc_move = strat.move_at(disc_pos)
        if disc_move.point is None:
            my_move = Move(owner, subspace=disc_move.subspace)
        else:
            idx = len(real_pos.point_prefix)
            constraint = real_pos.moves[-1].subspace
            x = _witness_by_scan(
                space, discretized, disc_move.point, constraint, delta[idx],
                "interleaved witness",
            )
            my_move = Move(owner, point=x, subspace=disc_move.subspace)
        return my_move, disc_pos.child(disc_move)

    expand(space, start, owner, rule, start, leaf=checked_leaf(absorb), table=out.table)
    return out


def subspace_inside_by_scan(space, inside, anchor):
    """The largest palette subspace below the anchor whose admitted
    points all lie in ``inside`` (ties: canonical order), or None."""
    best, best_size = None, 0
    for q in space.below(anchor):
        pts = space.admitted_points((), q)
        if pts and len(pts) > best_size and all(x in inside for x in pts):
            best, best_size = q, len(pts)
    return best


def gowers_from_asymptotic_by_shadow(space, tau, budget=None) -> Strategy:
    """``reductions.gowers_from_asymptotic`` with the simulated asymptotic
    play, his recommendation made, as the walk's shadow: one
    ``tau.move_at`` per state of hers."""
    root = tau.root
    out = Strategy(Player.II, GameKind.GOWERS_G, root, tau.horizon, name=f"G-from-F:{tau.name}")

    def pending(f_pos):
        f_move = tau.move_at(f_pos)
        return f_pos.child(f_move), f_move

    def rule(g_pos, shadow):
        f_mid, f_move = shadow
        meet = space.meet_witness(g_pos.moves[-1].subspace, f_move.subspace)
        if meet is None:
            raise FiniteExhaustion("gowers_from_asymptotic", "meet undefined")
        admitted = space.admitted_points(g_pos.point_prefix, meet)
        if not admitted:
            raise FiniteExhaustion("gowers_from_asymptotic", f"no point admitted below {meet}")
        x = admitted[0]
        f_next = f_mid.child(Move(Player.II, point=x))
        return Move(Player.II, point=x), None if f_next.terminal else pending(f_next)

    expand(
        space,
        initial_position(GameKind.GOWERS_G, root, tau.horizon),
        Player.II,
        rule,
        shadow=pending(initial_position(GameKind.ASYMPTOTIC_F, root, tau.horizon)),
        budget=budget or Budget(where="gowers_from_asymptotic"),
        table=out.table,
    )
    return out
