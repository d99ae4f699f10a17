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

from .errors import Budget, FiniteExhaustion, KindMismatch, NotDense, SpecInvalid
from .games import GameKind, Move, Player, initial_position, move_legal
from .payoffs import Payoff
from .reductions import (
    AsymptoticTransfer,
    _require_verified,
    _transfer_to_asymptotic,
    asymptotic_recommendation,
)
from .solver import Strategy, VerificationReport, checked_leaf, expand, require_horizon, table_rule
from .space import LENGTH_INDEXED, SpaceInstance, bits, iterated_meet
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
    tables = [balls[r] for r in radii]  # read once: hashing a Fraction key is slow
    out = set()
    for y in seqs:
        out.update(product(*(table[c] for table, c in zip(tables, y))))
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
    the sum-span as the operation.

    The family is enumerated a dimension at a time: each span S found so
    far is extended by one vector v outside it.  Every w in S + <v> but
    not in S gives S + <w> = S + <v>, so once an extension is made
    its vectors are skipped for S, and each subspace is reached once from
    each of its hyperplanes.  The sum is memoized on the union of its
    arguments, and equal spans are one shared set: the sum returns the
    family's own sets."""
    if space.meta.get("kind") != "rosendal":
        raise SpecInvalid("the field system needs a Rosendal instance")
    q = space.meta["field_order"]
    vectors = space.points
    n = len(vectors)
    index = {v: i for i, v in enumerate(vectors)}
    multiples = [
        [index[tuple(lam * x % q for x in v)] for lam in range(1, q)] for v in vectors
    ]
    pairs: dict = {}  # s * n + v -> the id of the vector s + v
    shared: dict = {}  # a span -> the one set standing for it; the family
    masks: dict = {}  # a summand -> the bitmask of its ids
    sums: dict = {}  # the bitmask of a union -> its span

    def plus(s, v):
        """The id of s + v, made on first use; never the zero vector, as
        v lies outside a span that holds s."""
        key = s * n + v
        hit = pairs.get(key)
        if hit is None:
            u, w = vectors[s], vectors[v]
            hit = pairs[key] = index[tuple((x + y) % q for x, y in zip(u, w))]
        return hit

    def extend(span: frozenset, v) -> frozenset:
        """Nonzero part of S + <v> for v outside the span S: the multiples
        of v and of s + v for every s in S (lam * (S + v) = S + lam * v)."""
        return span.union(multiples[v], [m for s in span for m in multiples[plus(s, v)]])

    def close(ids) -> frozenset:
        """Nonzero part of the span, one vector at a time."""
        span = frozenset()
        for i in ids:
            if i not in span:
                span = extend(span, i)
        return shared.setdefault(span, span)

    def mask(ids) -> int:
        hit = masks.get(ids)
        if hit is None:
            hit = masks[ids] = sum(1 << i for i in ids)
        return hit

    def oplus(a, b):
        key = mask(a) | mask(b)
        hit = sums.get(key)
        if hit is None:
            hit = sums[key] = close(a | b)
        return hit

    frontier = [frozenset()]
    while frontier:
        fresh = []
        for span in frontier:
            made = set(span)  # the span and every extension of it made so far
            for v in range(n):
                if v not in made:
                    wider = extend(span, v)
                    made.update(wider)
                    if wider not in shared:
                        shared[wider] = wider
                        fresh.append(wider)
        frontier = fresh
    return PrecompactSystem(sorted(shared, key=sorted), oplus, name=f"subspaces-F{q}")


# -- discretization and strategy lifts -------------------------------------------------


def discretize(
    space: SpaceInstance, dense, delta: DeltaSeq, name: str = ""
) -> SpaceInstance:
    """The plain space over a dense subset, with admission weakened to
    "within the stage's delta of an admitted host point" (strict).

    The returned instance has no metric and length-indexed admission;
    its palette and relations are those of the host.  Its meta carries
    the host-point bitsets its admission reads, ``host_ball(y, bound)``
    and ``host_below(p)``, and the nearest table ``host_nearest(bound)``
    that the lift's shadows read, made once per bound from the balls in
    dense order, so it alone knows which host points a dense point
    stands for.  (They ride in the meta, not on ``admits``, which a
    wrapper may replace.)
    """
    space.require_metric()
    host_ids = tuple(sorted(dense))
    if not host_ids:
        raise NotDense("dense set is empty")
    n_host = len(space.points)
    # One distance row per dense point, read by the density test and the balls.
    rows = [[space.distance(x, y) for x in range(n_host)] for y in host_ids]
    scale = min(delta.values) / 2
    for x in range(n_host):
        if not any(row[x] <= scale for row in rows):
            raise NotDense(f"host point {x} farther than {scale} from the dense set")
    balls: dict = {}
    near: dict = {}
    admitted: dict = {}

    def ball(y, bound):
        """The host points closer than bound to dense point y, as a bitset
        made on first use."""
        hit = balls.get((y, bound))
        if hit is None:
            row = rows[y]
            hit = balls[y, bound] = sum(1 << x for x in range(n_host) if row[x] < bound)
        return hit

    def nearest(bound):
        """For each host point, the first dense point whose ball of
        radius bound holds it (None when no ball does), as a tuple made
        on first use."""
        hit = near.get(bound)
        if hit is None:
            hit = [None] * n_host
            left = (1 << n_host) - 1  # the host points no ball holds yet
            for y in range(len(host_ids)):
                if not left:
                    break
                held = ball(y, bound) & left
                for x in bits(held):
                    hit[x] = y
                left ^= held
            hit = near[bound] = tuple(hit)
        return hit

    def below(p):
        """The host points admitted below p, as a bitset made on first use."""
        hit = admitted.get(p)
        if hit is None:
            hit = admitted[p] = sum(1 << x for x in range(n_host) if space.admits((x,), p))
        return hit

    def admits(history, p):
        return ball(history[-1], delta[len(history) - 1]) & below(p) != 0

    return space.derive(
        name=name or f"discretized({space.name})",
        points=[space.points[i] for i in host_ids],
        admits=admits,
        metric=None,
        admission=LENGTH_INDEXED,
        system=None,
        meta={
            **space.meta,
            "discretized": True,
            "host_points": host_ids,
            "host_ball": ball,
            "host_nearest": nearest,
            "host_below": below,
        },
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


def _shadow_to_dense(discretized, host_point, bound):
    """The first dense point whose ball of radius bound holds the host
    point, read off the discretization's nearest table for the bound."""
    local = discretized.meta["host_nearest"](bound)[host_point]
    if local is None:
        raise FiniteExhaustion("lift shadow", f"no dense point within {bound} of {host_point}")
    return local


def _witness_in_host(discretized, local_point, constraint, bound):
    """The first host point admitted below ``constraint`` in the ball of
    radius bound around the dense point."""
    meta = discretized.meta
    hits = meta["host_ball"](local_point, bound) & meta["host_below"](constraint)
    if not hits:
        raise FiniteExhaustion("lift witness", f"no admitted host point within {bound}")
    return (hits & -hits).bit_length() - 1


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
    set (the lift lands in the expanded set); each is ``<game>-<player>``
    of the strategy it lifts, and any other strategy is refused, as is
    an instance ``discretize`` did not build.

    One rule lifts every direction, with the discretized play as its
    shadow: the opponent's host points are shadowed to the dense set,
    the owner's discretized points witnessed back in the host below the
    last real subspace, each within the stage's delta, and subspaces
    copied.
    """
    if direction not in ("F-I", "G-II", "A-I", "B-II"):
        raise ValueError(f"unknown lift direction {direction!r}")
    game, player = direction.split("-")
    owner = Player(player)
    _require_verified(strat, owner, GameKind(game), "lift_strategy")
    if len(delta) != strat.horizon:
        raise SpecInvalid("delta length must match the strategy horizon")
    if "host_nearest" not in discretized.meta:
        raise KindMismatch("lift_strategy needs an instance built by discretize")
    out = Strategy(owner, strat.kind, strat.root, strat.horizon, name=f"lift:{strat.name}")

    def absorb(real_pos, disc_pos):
        # The opponent's last host move, shadowed into the discretized play.
        theirs = real_pos.moves[-1]
        if theirs.player is owner:
            return disc_pos
        if theirs.point is not None:
            bound = delta[len(real_pos.point_prefix) - 1]
            shadow = _shadow_to_dense(discretized, theirs.point, bound)
            theirs = Move(theirs.player, point=shadow, subspace=theirs.subspace)
        if not move_legal(discretized, disc_pos, theirs):
            raise FiniteExhaustion("lift shadow", "shadow move illegal")
        return disc_pos.child(theirs)

    def rule(real_pos, disc_pos):
        if real_pos.moves:
            disc_pos = absorb(real_pos, disc_pos)
        disc_move = strat.move_at(disc_pos)
        x = disc_move.point
        if x is not None:
            bound = delta[len(real_pos.point_prefix)]
            x = _witness_in_host(discretized, x, real_pos.moves[-1].subspace, bound)
        return Move(owner, point=x, subspace=disc_move.subspace), disc_pos.child(disc_move)

    start = initial_position(strat.kind, strat.root, strat.horizon)
    expand(space, start, owner, rule, start, leaf=checked_leaf(absorb), table=out.table)
    return out


# -- chooser-to-asymptotic transfer, with the stage deltas as radii ------------------------


def approx_asymptotic_from_gowers(
    space: SpaceInstance,
    sigma: Strategy,
    payoff: Payoff,
    delta: DeltaSeq,
    provider,
    budget: Optional[Budget] = None,
) -> AsymptoticTransfer:
    """Metric version of the chooser-to-asymptotic transfer: the same
    construction with the stage deltas as radii.

    States realise sequences only up to twice the stage delta; the chain
    is refined against the delta-expansions of the reachable sets, and
    the resulting asymptotic strategy (memoryless, like the exact one)
    forces the three-delta expansion of the target (verify it against
    ``expanded_target`` with the tripled delta).
    """
    space.require_metric()
    return _transfer_to_asymptotic(
        space, sigma, payoff, provider, delta.values, budget,
        "approx_asymptotic_from_gowers", "approxF-from-G",
    )


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
    _require_verified(tau, Player.I, GameKind.ASYMPTOTIC_F, "strong asymptotic transfer")
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

    The report counts (outcome, block sequence) pairs, summed by
    ``expand`` replaying the strategy's table (``table_rule``) over its
    (state, memory) pairs: the block sequences of an outcome are a
    function of its state.  The payoff must be read at the strategy's
    horizon."""
    require_horizon(strategy, payoff)
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

    def score(pos, memory):
        sets = tuple(system.family[b] for b in pos.block_prefix)
        seqs = enumerate_block_sequences(system, sets, payoff.horizon, budget)
        return len(seqs), sum(1 for seq in seqs if in_target(seq))

    start = initial_position(strategy.kind, strategy.root, strategy.horizon)
    rule = table_rule(space, strategy)
    plays, hits = expand(space, start, strategy.owner, rule, 0, leaf=score, budget=budget)
    return VerificationReport("exhaustive", "accepts", plays, hits)
