"""Approximate machinery: expansions, discretization, strategy lifts,
precompact systems, block sequences, and the strong asymptotic game.

All metric arithmetic is exact (rationals), so expansion boundaries are
decidable and every test in the suite is bit-reproducible.  Strict
versus non-strict comparisons follow the conventions the constructions
need: discretized admission uses a strict bound, expansions a
non-strict one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Callable, Optional

from .errors import Budget, FiniteExhaustion, NotDense, SpecInvalid
from .games import GameKind, Move, Player, initial_position, move_legal
from .payoffs import Payoff
from .reductions import (
    AsymptoticTransfer,
    _length_lex_sequences,
    asymptotic_recommendation,
    reachable_set,
)
from .solver import Strategy, VerificationReport, expand, table_rule
from .space import LENGTH_INDEXED, SpaceInstance, iterated_meet
from .util import parse_fraction


@dataclass(frozen=True)
class DeltaSeq:
    """A horizon-length sequence of strictly positive rationals."""

    values: tuple

    def __post_init__(self):
        if not self.values or any(v <= 0 for v in self.values):
            raise SpecInvalid("delta sequence must be nonempty and positive")

    @staticmethod
    def of(*values) -> "DeltaSeq":
        return DeltaSeq(tuple(parse_fraction(v) for v in values))

    @staticmethod
    def constant(value, horizon: int) -> "DeltaSeq":
        return DeltaSeq((parse_fraction(value),) * horizon)

    def __getitem__(self, i: int) -> Fraction:
        return self.values[i]

    def __len__(self) -> int:
        return len(self.values)

    def halved(self) -> "DeltaSeq":
        return DeltaSeq(tuple(v / 2 for v in self.values))

    def tripled(self) -> "DeltaSeq":
        return DeltaSeq(tuple(3 * v for v in self.values))


# -- expansions -----------------------------------------------------------------


def _balls(space: SpaceInstance, radii, centres) -> dict:
    """``ball[r][y]``: the points x with ``distance(x, y) <= r``, ascending,
    for each radius r and each centre y.  One distance per (x, y) pair,
    however many radii share it."""
    balls = {r: {} for r in set(radii)}
    everything = range(len(space.points))
    for y in centres:
        row = [space.distance(x, y) for x in everything]
        for r, ball in balls.items():
            ball[y] = tuple(x for x in everything if row[x] <= r)
    return balls


def expand_point_set(space: SpaceInstance, points, delta) -> frozenset:
    """All points within delta of the set (non-strict)."""
    space.require_metric()
    delta = parse_fraction(delta)
    points = frozenset(points)
    ball = _balls(space, (delta,), points)[delta]
    return frozenset(x for y in points for x in ball[y])


def materialize_payoff_set(space: SpaceInstance, payoff: Payoff) -> frozenset:
    """All accepted sequences over the whole point universe."""
    n = len(space.points)
    return frozenset(
        seq
        for seq in product(range(n), repeat=payoff.horizon)
        if payoff.accepts(seq)
    )


def expand_sequence_set(space: SpaceInstance, seqs, delta: DeltaSeq) -> frozenset:
    """Coordinatewise delta-expansion of a set of equal-length sequences:
    the union over y in the set of the products of the balls of radius
    ``delta[i]`` around ``y[i]`` (non-strict)."""
    space.require_metric()
    seqs = list(seqs)
    if not seqs:
        return frozenset()
    k = len(seqs[0])
    radii = [delta[i] for i in range(k)]
    balls = _balls(space, radii, {c for y in seqs for c in y})
    out = set()
    for y in seqs:
        out.update(product(*(balls[radii[i]][y[i]] for i in range(k))))
    return frozenset(out)


def expanded_target(
    space: SpaceInstance, payoff: Payoff, delta: DeltaSeq, side: str = "accepts"
) -> Payoff:
    """The delta-expansion of the payoff's accepted set or of its
    complement, as a plain payoff (used to verify lifted strategies)."""
    base = materialize_payoff_set(space, payoff)
    if side == "complement":
        everything = set(product(range(len(space.points)), repeat=payoff.horizon))
        base = frozenset(everything - base)
    expanded = expand_sequence_set(space, base, delta)
    return Payoff(
        payoff.horizon,
        lambda seq: seq in expanded,
        f"({payoff.name}:{side})_delta",
    )


# -- nets -------------------------------------------------------------------------


@dataclass(frozen=True)
class Net:
    center_set: frozenset
    resolution: Fraction
    members: tuple

    def covers(self, space: SpaceInstance) -> bool:
        return all(
            any(space.distance(x, m) <= self.resolution for m in self.members)
            for x in self.center_set
        )


def build_net(space: SpaceInstance, points, resolution) -> Net:
    """Greedy net in canonical point order: keep a point iff it is farther
    than the resolution from everything kept so far."""
    resolution = parse_fraction(resolution)
    members = []
    for x in sorted(points):
        if all(space.distance(x, m) > resolution for m in members):
            members.append(x)
    return Net(frozenset(points), resolution, tuple(members))


# -- precompact systems -------------------------------------------------------------


class PrecompactSystem:
    """A finite family of nonempty point sets with an associative sum
    compatible with admission."""

    def __init__(self, family, oplus: Callable, name: str = ""):
        self.family = tuple(frozenset(k) for k in family)
        if any(not k for k in self.family):
            raise SpecInvalid("precompact sets must be nonempty")
        self.oplus = oplus
        self.name = name
        self._closure: Optional[tuple] = None

    def closure(self, budget: Optional[Budget] = None) -> tuple:
        """Smallest superset of the family closed under the sum."""
        if self._closure is not None:
            return self._closure
        budget = budget or Budget(where="system closure")
        seen = {k: None for k in self.family}
        frontier = list(self.family)
        while frontier:
            fresh = []
            for a in list(seen):
                for b in frontier:
                    budget.tick()
                    for s in (self.oplus(a, b), self.oplus(b, a)):
                        if s not in seen:
                            seen[s] = None
                            fresh.append(s)
            frontier = fresh
        self._closure = tuple(seen)
        return self._closure

    def block_sum(self, sets: tuple, indices) -> frozenset:
        """Sum of sets[i] over the indices taken in increasing order."""
        idx = sorted(indices)
        acc = sets[idx[0]]
        for i in idx[1:]:
            acc = self.oplus(acc, sets[i])
        return acc

    def validate(self, space: SpaceInstance, budget: Optional[Budget] = None) -> None:
        """Exhaustively test associativity on the closure and admission
        compatibility over the palette; raises on failure."""
        budget = budget or Budget(where="system validation")
        closure = self.closure(budget)
        for a in closure:
            for b in closure:
                for c in closure:
                    budget.tick()
                    if self.oplus(self.oplus(a, b), c) != self.oplus(a, self.oplus(b, c)):
                        raise SpecInvalid("precompact sum is not associative")
        for p in space.subspaces():
            for a in self.family:
                if not space.set_admitted(a, p):
                    continue
                for b in self.family:
                    budget.tick()
                    if not space.set_admitted(b, p):
                        continue
                    if not space.set_admitted(self.oplus(a, b), p):
                        raise SpecInvalid(
                            f"sum of admitted sets not admitted below subspace {p}"
                        )


def ms_singleton_system(space: SpaceInstance) -> PrecompactSystem:
    """Singletons with max as the sum; block sequences of singletons are
    exactly increasing subsequences."""

    def oplus(a, b):
        return frozenset({max(max(a), max(b))})

    return PrecompactSystem(
        [frozenset({i}) for i in range(len(space.points))],
        oplus,
        name="singletons-max",
    )


def field_subspace_system(space: SpaceInstance) -> PrecompactSystem:
    """Over a finite-field instance: nonzero parts of all subspaces, with
    the sum-span as the operation.  The sum is memoized on the union of
    its arguments, and equal spans are one shared set."""
    if space.meta.get("kind") != "rosendal":
        raise SpecInvalid("the field system needs a Rosendal instance")
    q = space.meta["field_order"]
    vectors = space.points
    index = {v: i for i, v in enumerate(vectors)}
    # Vector arithmetic on point ids; None stands for the zero vector.
    plus = [
        [index.get(tuple((x + y) % q for x, y in zip(u, v))) for v in vectors]
        for u in vectors
    ]
    multiples = [
        [index[tuple(lam * x % q for x in v)] for lam in range(1, q)] for v in vectors
    ]
    shared: dict = {}  # a span -> the one set standing for it
    bits: dict = {}  # a summand -> the bitmask of its ids
    sums: dict = {}  # the bitmask of a union -> its span

    def close(ids) -> frozenset:
        """Nonzero part of the span, one vector at a time: a vector v
        outside the span S so far adds lam * v and s + lam * v for every s
        in S and every nonzero scalar lam."""
        span: set = set()
        for i in ids:
            if i not in span:
                line = multiples[i]
                span.update([plus[s][m] for s in span for m in line] + line)
        out = frozenset(span)
        return shared.setdefault(out, out)

    def mask(ids) -> int:
        hit = bits.get(ids)
        if hit is None:
            hit = bits[ids] = sum(1 << i for i in ids)
        return hit

    def oplus(a, b):
        key = mask(a) | mask(b)
        hit = sums.get(key)
        if hit is None:
            hit = sums[key] = close(a | b)
        return hit

    family = {close((i,)) for i in range(len(vectors))}
    frontier = list(family)
    while frontier:
        fresh = []
        for a in list(family):
            for b in frontier:
                s = oplus(a, b)
                if s not in family:
                    family.add(s)
                    fresh.append(s)
        frontier = fresh
    return PrecompactSystem(sorted(family, key=sorted), oplus, name=f"subspaces-F{q}")


# -- discretization and strategy lifts -------------------------------------------------


def discretize(
    space: SpaceInstance, dense, delta: DeltaSeq, name: str = ""
) -> SpaceInstance:
    """The plain space over a dense subset, with admission weakened to
    "within the stage's delta of an admitted host point" (strict).

    The returned instance has no metric and length-indexed admission;
    its palette and relations are those of the host.
    """
    space.require_metric()
    host_ids = tuple(sorted(dense))
    if not host_ids:
        raise NotDense("dense set is empty")
    scale = min(delta.values) / 2
    for x in range(len(space.points)):
        if not any(space.distance(x, y) <= scale for y in host_ids):
            raise NotDense(f"host point {x} farther than {scale} from the dense set")
    n_host = len(space.points)

    def admits(history, p):
        y = host_ids[history[-1]]
        bound = delta[len(history) - 1]
        return any(
            space.admits((x,), p) and space.distance(x, y) < bound
            for x in range(n_host)
        )

    return space.derive(
        name=name or f"discretized({space.name})",
        points=[space.points[i] for i in host_ids],
        admits=admits,
        metric=None,
        admission=LENGTH_INDEXED,
        system=None,
        meta={**space.meta, "discretized": True, "host_points": host_ids},
    )


def restrict_payoff(discretized: SpaceInstance, payoff: Payoff) -> Payoff:
    """View a host payoff as a payoff on discretized outcomes."""
    host_ids = discretized.meta["host_points"]
    base = payoff.accepts
    return Payoff(
        payoff.horizon,
        lambda seq: base(tuple(host_ids[i] for i in seq)),
        f"{payoff.name}|dense",
    )


def _shadow_to_dense(space, discretized, host_point, bound, stage):
    host_ids = discretized.meta["host_points"]
    for local, host in enumerate(host_ids):
        if space.distance(host_point, host) < bound:
            return local
    raise FiniteExhaustion(stage, f"no dense point within {bound} of {host_point}")


def _witness_in_host(space, discretized, local_point, constraint, bound, stage):
    host_ids = discretized.meta["host_points"]
    target = host_ids[local_point]
    for x in range(len(space.points)):
        if space.admits((x,), constraint) and space.distance(x, target) < bound:
            return x
    raise FiniteExhaustion(stage, f"no admitted host point within {bound}")


def lift_strategy(
    space: SpaceInstance,
    discretized: SpaceInstance,
    strat: Strategy,
    direction: str,
    payoff: Payoff,
    delta: DeltaSeq,
) -> Strategy:
    """Lift a strategy verified on the discretized space back to the host.

    Directions: "F-I" and "B-II" lift strategies toward complements (the
    lift lands in the expanded complement), "G-II" and "A-I" toward the
    set (the lift lands in the expanded set).  Subspace moves transfer
    unchanged; points are shadowed to the dense set or witnessed back in
    the host within the stage's delta.
    """
    if not strat.verified:
        raise ValueError("lift_strategy refuses unverified inputs")
    if len(delta) != strat.horizon:
        raise SpecInvalid("delta length must match the strategy horizon")
    if direction == "F-I":
        return _lift_chooser(space, discretized, strat, delta, Player.I)
    if direction == "G-II":
        return _lift_chooser(space, discretized, strat, delta, Player.II)
    if direction in ("A-I", "B-II"):
        return _lift_interleaved(space, discretized, strat, delta)
    raise ValueError(f"unknown lift direction {direction!r}")


def _lift_chooser(space, discretized, strat, delta, owner):
    """Chooser-game lift; the shadow is the discretized play.  His lift
    shadows her host answers to the dense set; hers witnesses her
    discretized answers back in the host."""
    kind = strat.kind
    out = Strategy(owner, kind, strat.root, strat.horizon, name=f"lift:{strat.name}")

    def shadow_answer(real_pos, disc_mid):
        # Her host answer, shadowed into the discretized play.
        answer = real_pos.moves[-1]
        shadow = _shadow_to_dense(
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
        x = _witness_in_host(
            space, discretized, reply.point, his.subspace, delta[real_mid.depth],
            "chooser witness",
        )
        return Move(Player.II, point=x), disc_mid.child(reply)

    rule, leaf = (his_rule, shadow_answer) if owner is Player.I else (her_rule, None)
    start = initial_position(kind, strat.root, strat.horizon)
    expand(space, start, owner, rule, start, leaf=leaf, table=out.table)
    return out


def _lift_interleaved(space, discretized, strat, delta):
    """Adversarial-game lift; the shadow is the discretized play.  The
    opponent's host points are shadowed to the dense set, the owner's
    discretized points witnessed back in the host, subspaces copied."""
    kind = strat.kind
    owner = strat.owner
    out = Strategy(owner, kind, strat.root, strat.horizon, name=f"lift:{strat.name}")

    def absorb(real_pos, disc_pos):
        # The opponent's last host move, shadowed into the discretized play.
        theirs = real_pos.moves[-1]
        if theirs.player is owner:
            return disc_pos
        if theirs.point is None:
            disc_theirs = theirs
        else:
            idx = len(real_pos.point_prefix) - 1
            shadow = _shadow_to_dense(
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
            # Opening: copy the subspace.
            my_move = Move(owner, subspace=disc_move.subspace)
        else:
            idx = len(real_pos.point_prefix)
            constraint = real_pos.moves[-1].subspace
            x = _witness_in_host(
                space, discretized, disc_move.point, constraint, delta[idx],
                "interleaved witness",
            )
            my_move = Move(owner, point=x, subspace=disc_move.subspace)
        return my_move, disc_pos.child(disc_move)

    start = initial_position(kind, strat.root, strat.horizon)
    expand(space, start, owner, rule, start, leaf=absorb, table=out.table)
    return out


# -- approximate chooser-to-asymptotic transfer ------------------------------------------


def approx_asymptotic_from_gowers(
    space: SpaceInstance,
    sigma: Strategy,
    payoff: Payoff,
    delta: DeltaSeq,
    provider,
    budget: Optional[Budget] = None,
) -> AsymptoticTransfer:
    """Metric version of the chooser-to-asymptotic transfer.

    States realise sequences only up to twice the stage delta; the chain
    is refined against the delta-expansions of the reachable sets, and
    the resulting asymptotic strategy forces the three-delta expansion
    of the target (verify it against ``expanded_target`` with the
    tripled delta).
    """
    budget = budget or Budget(where="approx_asymptotic_from_gowers")
    if not sigma.verified or sigma.owner is not Player.II:
        raise ValueError("approx transfer needs her verified chooser strategy")
    space.require_metric()
    root = sigma.root
    horizon = payoff.horizon
    n_points = len(space.points)

    seqs = _length_lex_sequences(n_points, horizon - 1)
    seq_index = {s: n for n, s in enumerate(seqs)}

    states: dict = {(): initial_position(GameKind.GOWERS_G, root, horizon)}
    reach_cache: dict = {}  # one reachable set per realised position
    for s in seqs[1:]:
        parent = states.get(s[:-1])
        if parent is None:
            states[s] = None
            continue
        stage = len(s) - 1
        found = None
        for r in space.below(root):
            budget.tick()
            reply = sigma.move_at(parent.child(Move(Player.I, subspace=r)))
            if space.distance(reply.point, s[-1]) <= 2 * delta[stage]:
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
        key = state.key()
        if key not in reach_cache:
            reach_cache[key] = reachable_set(space, state, sigma, budget)
        refined = provider.subset_refinement_expanded(
            space, reach_cache[key], chain[-1], delta[len(s)]
        )
        chain.append(refined)

    q = space.fusion_witness(tuple(chain))
    out = Strategy(
        Player.I, GameKind.ASYMPTOTIC_F, q, horizon, name=f"approxF-from-G:{sigma.name}"
    )

    def rule(f_pos, tracked):
        # The shadow is the tracked sequence before her last answer.
        if f_pos.moves:
            stage = len(tracked)
            answer = f_pos.moves[-1].point
            shadow = None
            for y in range(n_points):
                if space.distance(answer, y) <= delta[stage]:
                    shadow = y
                    break
            tracked = tracked + (shadow,)
            if states.get(tracked) is None:
                raise FiniteExhaustion(
                    "approx_asymptotic_from_gowers",
                    f"no realised state near {tracked}",
                )
        meet = space.meet_witness(q, chain[seq_index[tracked] + 1])
        if meet is None:
            raise FiniteExhaustion(
                "approx_asymptotic_from_gowers", "meet with chain element undefined"
            )
        return Move(Player.I, subspace=meet), tracked

    f0 = initial_position(GameKind.ASYMPTOTIC_F, q, horizon)
    expand(space, f0, Player.I, rule, (), budget=budget, table=out.table)
    return AsymptoticTransfer(q, out, chain)


# -- block sequences and the strong asymptotic game ----------------------------------------


def enumerate_block_sequences(
    system: PrecompactSystem, sets: tuple, length: int, budget: Optional[Budget] = None
) -> list:
    """All sequences picking each entry from the sum over one block of an
    increasing tuple of nonempty index sets; deduplicated, canonical
    order."""
    budget = budget or Budget(where="enumerate_block_sequences")
    n = len(sets)
    if length == 0:
        return [()]
    out: dict = {}

    def subsets_from(start):
        indices = range(start, n)
        for size in range(1, n - start + 1):
            for c in combinations(indices, size):
                yield c

    def walk(prefix, start):
        if len(prefix) == length:
            out.setdefault(prefix, None)
            return
        for block in subsets_from(start):
            budget.tick()
            total = system.block_sum(sets, block)
            for x in sorted(total):
                walk(prefix + (x,), block[-1] + 1)

    walk((), 0)
    return sorted(out)


def strong_asymptotic_from_asymptotic(
    space: SpaceInstance,
    system: PrecompactSystem,
    tau: Strategy,
    payoff: Payoff,
    delta: DeltaSeq,
    budget: Optional[Budget] = None,
) -> Strategy:
    """His strong-asymptotic strategy from his asymptotic one.

    Per round, enumerate net points of every block sum available so far,
    meet the asymptotic recommendations over all those prefixes (and the
    previous move), and play the meet.  Block sequences of any outcome
    then land in the delta-expansion of the target.
    """
    budget = budget or Budget(where="strong_asymptotic")
    if not tau.verified or tau.owner is not Player.I:
        raise ValueError("strong asymptotic transfer needs his verified strategy")
    k = payoff.horizon
    root = tau.root
    nets: dict = {}

    def net_members(i, sum_set):
        key = (i, sum_set)
        if key not in nets:
            nets[key] = build_net(space, sum_set, delta[i]).members
        return nets[key]

    def prefix_pool(sets: tuple) -> list:
        """Net-decorated prefixes over the sets played so far."""
        n = len(sets)
        pool = [()]

        def extend(prefix, start):
            if len(prefix) == k - 1:
                return
            for size in range(1, n - start + 1):
                for block in combinations(range(start, n), size):
                    budget.tick()
                    total = system.block_sum(sets, block)
                    for y in net_members(len(prefix), total):
                        nxt = prefix + (y,)
                        pool.append(nxt)
                        extend(nxt, block[-1] + 1)

        extend((), 0)
        return pool

    out = Strategy(
        Player.I,
        GameKind.STRONG_ASYMPTOTIC_SF,
        root,
        k,
        name=f"SF-from-F:{tau.name}",
    )
    if space.system is not system:
        # The game needs the system attached to the instance.
        raise SpecInvalid("attach the system to the instance before transferring")

    def rule(sf_pos, prev):
        # The shadow is his previous move.
        sets = tuple(system.family[b] for b in sf_pos.block_prefix)
        parts = [
            asymptotic_recommendation(space, tau, s).subspace
            for s in prefix_pool(sets)
        ]
        if prev is not None:
            parts.append(prev)
        move_sub = iterated_meet(space, parts, root)
        return Move(Player.I, subspace=move_sub), move_sub

    sf0 = initial_position(GameKind.STRONG_ASYMPTOTIC_SF, root, k)
    expand(space, sf0, Player.I, rule, budget=budget, table=out.table)
    return out


def verify_strong_asymptotic(
    space: SpaceInstance,
    system: PrecompactSystem,
    strategy: Strategy,
    payoff: Payoff,
    delta: DeltaSeq,
    budget: Optional[Budget] = None,
) -> VerificationReport:
    """Exhaustively play the strong asymptotic strategy and check every
    block sequence of every outcome against the delta-expanded target.

    The report counts (outcome, block sequence) pairs."""
    budget = budget or Budget(where="verify_strong_asymptotic")
    if space.metric is None and all(v < 1 for v in delta.values):
        # Discrete distance: expansion below one is the set itself.
        in_target = payoff.accepts
    else:
        # A plain instance is measured by its discrete 0/1 distance.
        metric_space = space if space.metric is not None else space.derive(
            metric=space.distance
        )
        expanded_set = expand_sequence_set(
            metric_space, materialize_payoff_set(space, payoff), delta
        )
        in_target = expanded_set.__contains__

    report = VerificationReport("exhaustive", "accepts", 0, 0)

    def score(pos, shadow):
        sets = tuple(system.family[b] for b in pos.block_prefix)
        for seq in enumerate_block_sequences(system, sets, payoff.horizon, budget):
            report.plays += 1
            if in_target(seq):
                report.in_accepts += 1

    sf0 = initial_position(GameKind.STRONG_ASYMPTOTIC_SF, strategy.root, strategy.horizon)
    expand(
        space, sf0, Player.I, table_rule(space, strategy), leaf=score, budget=budget
    )
    return report
