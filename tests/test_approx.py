"""Expansions, nets, discretization, lifts, systems, block sequences."""

import random
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import combinations, product

import pytest

from gowerslab import (
    GameKind,
    Player,
    negate,
    solve,
    verify_strategy,
    with_system,
)
from gowerslab.approx import (
    DeltaSeq,
    PrecompactSystem,
    _shadow_to_dense,
    approx_asymptotic_from_gowers,
    build_net,
    discretize,
    enumerate_block_sequences,
    expand_point_set,
    expand_sequence_set,
    expanded_target,
    field_subspace_system,
    lift_strategy,
    materialize_payoff_set,
    ms_singleton_system,
    restrict_payoff,
    strong_asymptotic_from_asymptotic,
    verify_strong_asymptotic,
)
from gowerslab.errors import FiniteExhaustion, KindMismatch, NoMetric, NotDense, SpecInvalid
from gowerslab.instances import (
    InstanceSpec,
    build_instance,
    grid_sphere,
    provider_for,
    rosendal,
    top_subspace,
)
from gowerslab.payoffs import Payoff
from oracle import lift_by_scan, shadow_by_scan


def lex_positive_payoff(space, horizon, index=0):
    def accepts(seq):
        v = space.points[seq[index]]
        nz = next(c for c in v if c != 0)
        return nz > 0

    return Payoff(horizon, accepts, "lex-positive")


class TestDeltaSeq:
    def test_validation(self):
        with pytest.raises(SpecInvalid):
            DeltaSeq.of("0")
        with pytest.raises(SpecInvalid):
            DeltaSeq(())

    def test_halving_and_tripling(self):
        delta = DeltaSeq.of("1/4", "1/2")
        assert delta.halved().values == (Fraction(1, 8), Fraction(1, 4))
        assert delta.tripled().values == (Fraction(3, 4), Fraction(3, 2))


class TestPointExpansion:
    def test_ball_on_the_sphere(self, grid_quarter):
        # Hand count: sup-ball of radius 1/4 around (1, 1/2) meets the
        # sphere in the three points with first coordinate one and
        # second within a quarter.
        x = grid_quarter.points.index((Fraction(1), Fraction(1, 2)))
        ball = expand_point_set(grid_quarter, {x}, "1/4")
        labels = sorted(grid_quarter.points[i] for i in ball)
        assert labels == [
            (Fraction(1), Fraction(1, 4)),
            (Fraction(1), Fraction(1, 2)),
            (Fraction(1), Fraction(3, 4)),
        ]

    def test_below_grid_step_is_identity(self, grid_quarter):
        some = frozenset({0, 5, 9})
        assert expand_point_set(grid_quarter, some, "1/8") == some

    def test_full_set_is_fixed(self, grid_quarter):
        full = frozenset(range(len(grid_quarter.points)))
        assert expand_point_set(grid_quarter, full, "1/4") == full

    def test_monotone_in_delta(self, grid_quarter):
        seed = frozenset({2, 17})
        small = expand_point_set(grid_quarter, seed, "1/4")
        large = expand_point_set(grid_quarter, seed, "1/2")
        assert small <= large

    def test_no_metric_raises(self, ms6):
        with pytest.raises(NoMetric):
            expand_point_set(ms6, {0}, "1/4")


class TestSequenceExpansion:
    def test_tiny_delta_matches_plain_acceptance(self, grid_half):
        payoff = lex_positive_payoff(grid_half, 2)
        expanded = expanded_target(grid_half, payoff, DeltaSeq.of("1/8", "1/8"))
        for seq in [(0, 1), (5, 9), (12, 3)]:
            assert expanded.accepts(seq) == payoff.accepts(seq)

    def test_coordinatewise_ball(self, grid_quarter):
        x = grid_quarter.points.index((Fraction(1), Fraction(1, 2)))
        payoff = Payoff(1, lambda s: s[0] == x, "pinned")
        expanded = expanded_target(grid_quarter, payoff, DeltaSeq.of("1/4"))
        hits = [i for i in range(len(grid_quarter.points)) if expanded.accepts((i,))]
        assert hits == sorted(expand_point_set(grid_quarter, {x}, "1/4"))

    def test_nested_expansion_inside_full_expansion(self, grid_half):
        # Two half-steps never escape the full step, checked on seeded
        # samples against materialized sets.
        payoff = lex_positive_payoff(grid_half, 2)
        delta = DeltaSeq.of("1/2", "1/2")
        base = materialize_payoff_set(grid_half, payoff)
        once = expand_sequence_set(grid_half, base, delta.halved())
        twice = expand_sequence_set(grid_half, once, delta.halved())
        full = expand_sequence_set(grid_half, base, delta)
        rng = random.Random(7)
        n = len(grid_half.points)
        for _ in range(1000):
            seq = (rng.randrange(n), rng.randrange(n))
            if seq in twice:
                assert seq in full


# The pairwise-distance definitions the ball-based expansions replaced,
# kept as oracles.


def brute_point_set(space, points, delta):
    delta = Fraction(delta)
    return frozenset(
        x
        for x in range(len(space.points))
        if any(space.distance(x, y) <= delta for y in points)
    )


def brute_sequence_set(space, seqs, delta):
    seqs = list(seqs)
    if not seqs:
        return frozenset()
    k = len(seqs[0])
    out = set()
    for cand in product(range(len(space.points)), repeat=k):
        for y in seqs:
            if all(space.distance(cand[i], y[i]) <= delta[i] for i in range(k)):
                out.add(cand)
                break
    return frozenset(out)


def brute_membership(space, seq, target, delta):
    k = len(seq)
    for y in product(range(len(space.points)), repeat=k):
        if not target.accepts(y):
            continue
        if all(space.distance(seq[i], y[i]) <= delta[i] for i in range(k)):
            return True
    return False


def distances(space):
    n = len(space.points)
    return sorted({space.distance(x, y) for x in range(n) for y in range(n)})


def lopsided(x, y):
    # Not symmetric, so a swapped distance(x, y) shows.
    return Fraction(x - y) if x >= y else Fraction(2 * (y - x), 3)


def metric_spaces(request):
    # Two grids, a plain instance measured by its discrete distance, and
    # one by a lopsided distance.
    ms6 = request.getfixturevalue("ms6")
    return [
        request.getfixturevalue("grid_quarter"),
        request.getfixturevalue("grid_half"),
        ms6.derive(metric=ms6.distance),
        ms6.derive(metric=lopsided),
    ]


def radius(rng, space):
    """A positive radius: half the time exactly a distance of the space
    (the non-strict boundary), else halfway between two distances."""
    ds = distances(space)
    i = rng.randrange(1, len(ds))
    return ds[i] if rng.random() < 0.5 else (ds[i - 1] + ds[i]) / 2


class TestExpansionsAgainstPairwiseOracle:
    def test_point_sets(self, request):
        rng = random.Random(11)
        for space in metric_spaces(request):
            n = len(space.points)
            for r in distances(space):
                for size in (0, 1, 3, n // 2):
                    points = rng.sample(range(n), size)
                    got = expand_point_set(space, points, r)
                    assert got == brute_point_set(space, points, r), (space.name, r)

    def test_sequence_sets(self, request):
        rng = random.Random(12)
        for space in metric_spaces(request):
            n = len(space.points)
            for k in (1, 2):
                for _ in range(4):
                    delta = DeltaSeq(tuple(radius(rng, space) for _ in range(k)))
                    seqs = {
                        tuple(rng.randrange(n) for _ in range(k))
                        for _ in range(rng.randrange(1, 12))
                    }
                    got = expand_sequence_set(space, seqs, delta)
                    want = brute_sequence_set(space, seqs, delta)
                    assert got == want, (space.name, delta.values)
            assert expand_sequence_set(space, [], DeltaSeq.of("1")) == frozenset()

    def test_membership(self, request):
        rng = random.Random(13)
        for space in metric_spaces(request):
            n = len(space.points)
            for _ in range(3):
                delta = DeltaSeq(tuple(radius(rng, space) for _ in range(2)))
                accepted = {(rng.randrange(n), rng.randrange(n)) for _ in range(5)}
                target = Payoff(2, accepted.__contains__, "seeded-pairs")
                expanded = expanded_target(space, target, delta)
                for _ in range(15):
                    seq = (rng.randrange(n), rng.randrange(n))
                    got = expanded.accepts(seq)
                    assert got == brute_membership(space, seq, target, delta)

    def test_boundary_radius_is_included(self, grid_quarter):
        # Distance exactly the radius counts; just below it does not.
        x = grid_quarter.points.index((Fraction(1), Fraction(1, 2)))
        y = grid_quarter.points.index((Fraction(1), Fraction(-1, 4)))
        r = grid_quarter.distance(y, x)
        assert y in expand_point_set(grid_quarter, {x}, r)
        assert y not in expand_point_set(grid_quarter, {x}, r - Fraction(1, 100))
        assert (y, y) in expand_sequence_set(grid_quarter, {(x, y)}, DeltaSeq((r, r)))


class TestNets:
    def test_covering_property(self, grid_quarter):
        for resolution in ("1/4", "1/2", "1"):
            net = build_net(grid_quarter, range(len(grid_quarter.points)), resolution)
            assert net.covers(grid_quarter)

    def test_members_are_separated(self, grid_quarter):
        net = build_net(grid_quarter, range(len(grid_quarter.points)), "1/2")
        for a, b in combinations(net.members, 2):
            assert grid_quarter.distance(a, b) > Fraction(1, 2)


class TestDiscretize:
    def test_full_dense_set_weakens_admission_by_a_ball(self, grid_half):
        delta = DeltaSeq.of("1/2")
        disc = discretize(grid_half, range(len(grid_half.points)), delta)
        # Exhaustive cross-check against the defining formula.
        for p in range(len(grid_half.palette)):
            for y in range(len(disc.points)):
                direct = any(
                    grid_half.admits((x,), p)
                    and grid_half.distance(x, y) < Fraction(1, 2)
                    for x in range(len(grid_half.points))
                )
                assert disc.admits((y,), p) == direct

    @pytest.mark.parametrize("dense", ["full", "half"])
    def test_two_stage_admission_is_the_bounded_host_search(self, grid_half, dense):
        # The half set is the integer points, within 1/2 of every point.
        host_points = range(len(grid_half.points))
        if dense == "half":
            host_points = [
                i for i, v in enumerate(grid_half.points) if all(c.denominator == 1 for c in v)
            ]
        delta = DeltaSeq.of("1", "3/2")
        disc = discretize(grid_half, host_points, delta)
        host = disc.meta["host_points"]
        local = range(len(disc.points))
        histories = [(y,) for y in local] + list(product(local, repeat=2))
        for history in histories:
            y = host[history[-1]]
            bound = delta[len(history) - 1]
            for p in range(len(grid_half.palette)):
                direct = any(
                    grid_half.admits((x,), p) and grid_half.distance(x, y) < bound
                    for x in range(len(grid_half.points))
                )
                assert disc.admits(history, p) == direct
        # The second stage's bound admits more than the first's.
        assert any(
            disc.admits((y, y), p) and not disc.admits((y,), p)
            for y in local
            for p in range(len(grid_half.palette))
        )

    def test_huge_delta_saturates(self, grid_half):
        delta = DeltaSeq.of("4")
        disc = discretize(grid_half, range(len(grid_half.points)), delta)
        for p in range(len(grid_half.palette)):
            assert all(disc.admits((y,), p) for y in range(len(disc.points)))

    def test_sparse_dense_set_rejected(self, grid_quarter):
        with pytest.raises(NotDense):
            discretize(grid_quarter, [0, 1], DeltaSeq.of("1/4"))

    def test_half_grid_dense_set(self, grid_quarter):
        # The half-step subgrid is dense in the quarter-step sphere at
        # resolution one quarter.
        dense = [
            i
            for i, v in enumerate(grid_quarter.points)
            if all(c.denominator <= 2 for c in v)
        ]
        delta = DeltaSeq.of("1/2")
        disc = discretize(grid_quarter, dense, delta)
        host = disc.meta["host_points"]
        for p in range(0, len(grid_quarter.palette), 3):
            for local, host_id in enumerate(host):
                direct = any(
                    grid_quarter.admits((x,), p)
                    and grid_quarter.distance(x, host_id) < Fraction(1, 2)
                    for x in range(len(grid_quarter.points))
                )
                assert disc.admits((local,), p) == direct


class TestLifts:
    def test_identity_lift_below_grid_step(self, grid_half):
        # Dense set is everything and the delta is below the grid step,
        # so the discretized game is the original and the expanded target
        # is the plain one.
        delta = DeltaSeq.of("1/4")
        disc = discretize(grid_half, range(len(grid_half.points)), delta)
        payoff = lex_positive_payoff(grid_half, 1)
        top = top_subspace(grid_half)
        result = solve(disc, GameKind.GOWERS_G, top, restrict_payoff(disc, payoff), Player.II)
        assert result.winner is Player.II
        lifted = lift_strategy(grid_half, disc, result.strategy, "G-II", payoff, delta)
        report = verify_strategy(
            grid_half, lifted, expanded_target(grid_half, payoff, delta, "accepts"),
            target="accepts",
        )
        assert report.passed

    def test_all_four_directions(self, grid_half):
        top = top_subspace(grid_half)
        delta1 = DeltaSeq.of("1/2")
        delta2 = DeltaSeq.of("1/2", "1/2")
        disc1 = discretize(grid_half, range(len(grid_half.points)), delta1)
        disc2 = discretize(grid_half, range(len(grid_half.points)), delta2)
        corner = grid_half.points.index((Fraction(1), Fraction(1)))
        pin = Payoff(1, lambda s: s[0] == corner, "corner")
        pin2 = Payoff(2, lambda s: s[0] == corner, "corner-first")
        lex2 = lex_positive_payoff(grid_half, 2)

        cases = [
            ("G-II", GameKind.GOWERS_G, lex_positive_payoff(grid_half, 1), delta1,
             Player.II, "accepts", "accepts"),
            ("F-I", GameKind.ASYMPTOTIC_F, pin, delta1, Player.I,
             "complement", "complement"),
            ("A-I", GameKind.ADVERSARIAL_A, lex2, delta2, Player.I,
             "accepts", "accepts"),
            ("B-II", GameKind.ADVERSARIAL_B, pin2, delta2, Player.II,
             "complement", "complement"),
        ]
        for direction, kind, payoff, delta, goal, side, solve_side in cases:
            disc = disc1 if len(delta) == 1 else disc2
            disc_payoff = restrict_payoff(disc, payoff)
            if solve_side == "complement":
                disc_payoff = negate(disc_payoff)
            result = solve(disc, kind, top, disc_payoff, goal)
            assert result.winner is goal, direction
            lifted = lift_strategy(grid_half, disc, result.strategy, direction, payoff, delta)
            target = expanded_target(grid_half, payoff, delta, side)
            report = verify_strategy(grid_half, lifted, target, target="accepts")
            assert report.passed, direction

    def test_chooser_lift_at_horizon_two(self, grid_half):
        # He dodges the corner for two rounds in the discretized game;
        # the lift lands every real outcome in the expanded complement.
        top = top_subspace(grid_half)
        corner = grid_half.points.index((Fraction(1), Fraction(1)))
        payoff = Payoff(2, lambda s: corner in s, "corner-anywhere")
        delta = DeltaSeq.of("1/2", "1/2")
        disc = discretize(grid_half, range(len(grid_half.points)), delta)
        result = solve(
            disc, GameKind.ASYMPTOTIC_F, top, negate(restrict_payoff(disc, payoff)), Player.I
        )
        assert result.winner is Player.I
        lifted = lift_strategy(grid_half, disc, result.strategy, "F-I", payoff, delta)
        target = expanded_target(grid_half, payoff, delta, "complement")
        assert verify_strategy(grid_half, lifted, target, target="accepts").passed

    def test_refuses_an_instance_discretize_did_not_build(self, grid_half):
        delta = DeltaSeq.of("1/2")
        disc = discretize(grid_half, range(len(grid_half.points)), delta)
        payoff = lex_positive_payoff(grid_half, 1)
        top = top_subspace(grid_half)
        result = solve(disc, GameKind.GOWERS_G, top, restrict_payoff(disc, payoff), Player.II)
        bare = {k: v for k, v in disc.meta.items() if not k.startswith("host_")}
        for other in (grid_half, disc.derive(meta=bare)):
            with pytest.raises(KindMismatch):
                lift_strategy(grid_half, other, result.strategy, "G-II", payoff, delta)

    def test_refuses_unverified(self, grid_half):
        from gowerslab import Strategy

        delta = DeltaSeq.of("1/2")
        disc = discretize(grid_half, range(len(grid_half.points)), delta)
        fake = Strategy(Player.II, GameKind.GOWERS_G, 0, 1)
        with pytest.raises(ValueError):
            lift_strategy(grid_half, disc, fake, "G-II", lex_positive_payoff(grid_half, 1), delta)


def _corner_payoff(grid, horizon):
    corner = grid.points.index((Fraction(1), Fraction(1)))
    return Payoff(horizon, lambda s: s[0] == corner, "corner")


# direction -> (game, payoff, goal, side): the lifts toward the set
# read the lex-positive payoff, those toward the complement the corner.
LIFTS = {
    "G-II": (GameKind.GOWERS_G, lex_positive_payoff, Player.II, "accepts"),
    "F-I": (GameKind.ASYMPTOTIC_F, _corner_payoff, Player.I, "complement"),
    "A-I": (GameKind.ADVERSARIAL_A, lex_positive_payoff, Player.I, "accepts"),
    "B-II": (GameKind.ADVERSARIAL_B, _corner_payoff, Player.II, "complement"),
}
# (grid step, delta, horizon, dense set): every full dense set, and
# every third point of the quarter grid, dense at delta one.
LIFT_GRIDS = [
    (step, delta, horizon, "full")
    for step in ("1/2", "1/3", "1/4")
    for delta in ("1/4", "1/2", "1")
    for horizon in (1, 2)
] + [("1/4", "1", horizon, "every third") for horizon in (1, 2)]


class TestLiftReference:
    """``lift_strategy`` reads the discretization's ball and admission
    bitsets; the chooser and interleaved lifts that scan host distances
    (``oracle.lift_by_scan``) must build the same table, and its replay
    the same count."""

    @pytest.mark.parametrize("step,delta,horizon,dense", LIFT_GRIDS)
    def test_the_lift_is_the_scan_lift(self, step, delta, horizon, dense):
        grid = grid_sphere(2, step, 1)
        dense_set = range(0, len(grid.points), 1 if dense == "full" else 3)
        deltas = DeltaSeq.of(*[delta] * horizon)
        disc = discretize(grid, dense_set, deltas)
        top = top_subspace(grid)
        # The adversarial games need an even horizon.
        for direction in LIFTS if horizon % 2 == 0 else ("G-II", "F-I"):
            kind, make_payoff, goal, side = LIFTS[direction]
            payoff = make_payoff(grid, horizon)
            disc_payoff = restrict_payoff(disc, payoff)
            if side == "complement":
                disc_payoff = negate(disc_payoff)
            result = solve(disc, kind, top, disc_payoff, goal)
            assert result.winner is goal, direction
            lifted = lift_strategy(grid, disc, result.strategy, direction, payoff, deltas)
            reference = lift_by_scan(grid, disc, result.strategy, deltas)
            assert lifted.to_json() == reference.to_json(), direction
            target = expanded_target(grid, payoff, deltas, side)
            report = verify_strategy(grid, lifted, target, target="accepts")
            assert report.passed, direction
            assert report == verify_strategy(grid, reference, target, target="accepts")

    @pytest.mark.parametrize(
        "step,delta,dense", sorted({(step, delta, dense) for step, delta, _, dense in LIFT_GRIDS})
    )
    def test_the_nearest_table_is_the_shadow_scan(self, step, delta, dense):
        # Every bound the lifts above read, and one too small to reach
        # any other point: off the dense set, the shadow is refused.
        grid = grid_sphere(2, step, 1)
        dense_set = range(0, len(grid.points), 1 if dense == "full" else 3)
        disc = discretize(grid, dense_set, DeltaSeq.of(delta))
        refused = 0
        for bound in map(Fraction, ("1/100", "1/4", "1/2", "1")):
            for x in range(len(grid.points)):
                outcomes = []
                for shadow in (
                    lambda: _shadow_to_dense(disc, x, bound),
                    lambda: shadow_by_scan(grid, disc, x, bound, "lift shadow"),
                ):
                    try:
                        outcomes.append(shadow())
                    except FiniteExhaustion as exc:
                        outcomes.append(str(exc))
                assert outcomes[0] == outcomes[1]
                refused += isinstance(outcomes[0], str)
        assert (refused > 0) is (dense != "full")

    def test_the_lifts_make_no_distance_call(self, grid_half, monkeypatch):
        # The solve on the discretization built every ball the lift reads.
        delta = DeltaSeq.of("1/2", "1/2")
        disc = discretize(grid_half, range(len(grid_half.points)), delta)
        payoff = lex_positive_payoff(grid_half, 2)
        result = solve(
            disc, GameKind.ADVERSARIAL_A, top_subspace(grid_half),
            restrict_payoff(disc, payoff), Player.I,
        )
        calls = []
        real = type(grid_half).distance
        monkeypatch.setattr(
            type(grid_half), "distance", lambda space, x, y: calls.append(x) or real(space, x, y)
        )
        lifted = lift_strategy(grid_half, disc, result.strategy, "A-I", payoff, delta)
        assert calls == []
        # A wrapper put on admission, as a call counter does, leaves the
        # bitsets the lift reads in place.
        disc.admits = lambda history, p, admits=disc.admits: admits(history, p)
        again = lift_strategy(grid_half, disc, result.strategy, "A-I", payoff, delta)
        assert again.to_json() == lifted.to_json()


class TestApproxTransfer:
    def test_grid_transfer_hits_tripled_expansion(self, grid_half):
        top = top_subspace(grid_half)
        payoff = lex_positive_payoff(grid_half, 1)
        result = solve(grid_half, GameKind.GOWERS_G, top, payoff, Player.II)
        assert result.winner is Player.II
        delta = DeltaSeq.of("1/2")
        transfer = approx_asymptotic_from_gowers(
            grid_half, result.strategy, payoff, delta, provider_for(grid_half)
        )
        target = expanded_target(grid_half, payoff, delta.tripled(), "accepts")
        report = verify_strategy(grid_half, transfer.strategy, target, target="accepts")
        assert report.passed

    def test_huge_delta_trivializes(self, grid_half):
        top = top_subspace(grid_half)
        payoff = lex_positive_payoff(grid_half, 1)
        result = solve(grid_half, GameKind.GOWERS_G, top, payoff, Player.II)
        delta = DeltaSeq.of("2")
        transfer = approx_asymptotic_from_gowers(
            grid_half, result.strategy, payoff, delta, provider_for(grid_half)
        )
        target = expanded_target(grid_half, payoff, delta.tripled(), "accepts")
        assert verify_strategy(
            grid_half, transfer.strategy, target, target="accepts"
        ).passed


class TestBlockSequences:
    def test_singleton_pair(self, ms6):
        system = ms_singleton_system(ms6)
        sets = (frozenset({2}), frozenset({5}))
        assert enumerate_block_sequences(system, sets, 2) == [(2, 5)]
        assert enumerate_block_sequences(system, sets, 1) == [(2,), (5,)]
        assert enumerate_block_sequences(system, sets, 0) == [()]

    def test_max_merges_blocks(self, ms6):
        system = ms_singleton_system(ms6)
        sets = (frozenset({1}), frozenset({4}), frozenset({2}))
        # Any block containing index 1 sums to four; singleton blocks keep
        # their own values.
        seqs = enumerate_block_sequences(system, sets, 2)
        assert (1, 4) in seqs and (1, 2) in seqs and (4, 2) in seqs
        assert (1, 4, 2) not in seqs


class TestPrecompactSystems:
    def test_singleton_system_validates(self, ms6):
        ms_singleton_system(ms6).validate(ms6)

    def test_field_system_validates(self, f2d3):
        system = field_subspace_system(f2d3)
        system.validate(f2d3)
        assert len(system.family) == 15

    def test_field_system_over_f3_d4(self):
        spec = InstanceSpec.from_json(
            {"kind": "rosendal", "field_order": 3, "dimension": 4, "system": "field-subspaces"}
        )
        system = build_instance(spec).system
        assert len(system.family) == 211
        assert set(system.closure()) == set(system.family)

    @pytest.mark.parametrize("q,d", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)])
    def test_field_sum_matches_the_pairwise_closure(self, q, d):
        space = rosendal(q, d, 1)
        index = {v: i for i, v in enumerate(space.points)}

        @cache
        def pairwise_close(ids):
            # The definition the one-vector-at-a-time span replaced.
            vecs = {space.points[i] for i in ids}
            changed = True
            while changed:
                changed = False
                current = list(vecs)
                for a in current:
                    for b in current:
                        s = tuple((x + y) % q for x, y in zip(a, b))
                        if any(s) and s not in vecs:
                            vecs.add(s)
                            changed = True
                    for lam in range(2, q):
                        s = tuple(lam * x % q for x in a)
                        if s not in vecs:
                            vecs.add(s)
                            changed = True
            return frozenset(index[v] for v in vecs)

        # The family as every pair of sets found so far sums it.
        family = {pairwise_close(frozenset({i})) for i in range(len(space.points))}
        frontier = list(family)
        while frontier:
            fresh = []
            for a in list(family):
                for b in frontier:
                    s = pairwise_close(a | b)
                    if s not in family:
                        family.add(s)
                        fresh.append(s)
            frontier = fresh
        system = field_subspace_system(space)
        assert system.family == tuple(sorted(family, key=sorted))
        # Every sum is a subspace, and the sum returns the family's own set.
        own = {k: k for k in system.family}
        rng = random.Random(q * 10 + d)
        n = len(space.points)
        pairs = [(a, b) for a in system.family for b in system.family] + [
            (
                frozenset(rng.sample(range(n), rng.randrange(1, n + 1))),
                frozenset(rng.sample(range(n), rng.randrange(1, n + 1))),
            )
            for _ in range(60)
        ]
        for a, b in pairs:
            s = system.oplus(a, b)
            assert s == pairwise_close(a | b)
            assert s is own[s]

    @pytest.mark.parametrize(
        "q,d,sizes",
        [
            (2, 5, {1: 31, 3: 155, 7: 155, 15: 31, 31: 1}),
            (3, 4, {2: 40, 8: 130, 26: 40, 80: 1}),
            (5, 3, {4: 31, 24: 31, 124: 1}),
            (2, 6, {1: 63, 3: 651, 7: 1395, 15: 651, 31: 63, 63: 1}),
        ],
    )
    def test_field_family_counts_every_subspace_once(self, q, d, sizes):
        # The Gaussian binomials: [d choose k]_q subspaces of dimension k,
        # each with q^k - 1 nonzero vectors.
        family = field_subspace_system(rosendal(q, d, 1)).family
        assert Counter(len(k) for k in family) == sizes
        assert len(set(family)) == len(family)

    def test_nonempty_invariant(self):
        with pytest.raises(SpecInvalid):
            PrecompactSystem([frozenset()], lambda a, b: a)

    def test_broken_associativity_detected(self, ms6):
        def skew(a, b):
            return frozenset({min(min(a), min(b)) + (1 if len(a) > 1 else 0)})

        system = PrecompactSystem(
            [frozenset({i}) for i in range(3)] + [frozenset({0, 1})], skew
        )
        with pytest.raises(SpecInvalid):
            system.validate(ms6)


class TestStrongAsymptotic:
    def test_ms_singletons_reduce_to_subsequence_extraction(self, ms6):
        # A final-segment strategy keeps its recommendation aligned, so
        # the per-round meets stay within the slack budget.
        from gowerslab import Move, strategy_from_rule, verified

        system = ms_singleton_system(ms6)
        space = with_system(ms6, system)
        top = top_subspace(space)
        tail = ms6.palette.index((1, 2, 3, 4, 5))
        payoff = Payoff(2, lambda s: all(x >= 1 for x in s), "all-nonzero")
        tau = verified(
            ms6,
            strategy_from_rule(
                ms6,
                GameKind.ASYMPTOTIC_F,
                top,
                2,
                Player.I,
                lambda spc, pos: Move(Player.I, subspace=tail),
            ),
            payoff,
        )
        delta = DeltaSeq.of("1/2", "1/2")
        strong = strong_asymptotic_from_asymptotic(space, system, tau, payoff, delta)
        report = verify_strong_asymptotic(space, system, strong, payoff, delta)
        assert report.passed and report.plays > 0

        # Cross-check against the homogeneous extraction: both certify
        # the all-increasing-subsequences property for this target.
        from gowerslab.reductions import homogeneous_from_asymptotic

        chosen = homogeneous_from_asymptotic(ms6, tau, payoff)
        assert all(payoff.accepts(p) for p in combinations(chosen, 2))

    def test_replay_refuses_an_illegal_opening(self, ms6):
        # The strong verifier replays through the shared table rule, so a
        # corrupted entry is refused rather than played; so is a payoff
        # of another horizon than the strategy's.
        from gowerslab import Move, strategy_from_rule, verified
        from gowerslab.errors import IllegalMove
        from gowerslab.games import initial_position

        system = ms_singleton_system(ms6)
        space = with_system(ms6, system)
        top = top_subspace(space)
        tail = ms6.palette.index((1, 2, 3, 4, 5))
        payoff = Payoff(2, lambda s: all(x >= 1 for x in s), "all-nonzero")
        tau = verified(
            ms6,
            strategy_from_rule(
                ms6, GameKind.ASYMPTOTIC_F, top, 2, Player.I,
                lambda spc, pos: Move(Player.I, subspace=tail),
            ),
            payoff,
        )
        delta = DeltaSeq.of("1/2", "1/2")
        strong = strong_asymptotic_from_asymptotic(space, system, tau, payoff, delta)
        assert verify_strong_asymptotic(space, system, strong, payoff, delta).passed
        short = Payoff(1, lambda s: s[0] >= 1, "nonzero")
        with pytest.raises(ValueError, match="horizon"):
            verify_strong_asymptotic(space, system, strong, short, DeltaSeq.of("1/2"))
        small = next(q for q in space.subspaces() if not space.lessapprox(q, top))
        opening = initial_position(GameKind.STRONG_ASYMPTOTIC_SF, top, 2)
        strong.table[(opening.state(), 0)] = (Move(Player.I, subspace=small), 0)
        with pytest.raises(IllegalMove):
            verify_strong_asymptotic(space, system, strong, payoff, delta)

    def test_slack_starved_meet_is_loud(self, ms6):
        # The same transfer at slack one exhausts the meet budget and
        # says so instead of playing an illegal subspace.
        from gowerslab.errors import FiniteExhaustion

        system = ms_singleton_system(ms6)
        space = with_system(ms6, system)
        top = top_subspace(space)
        payoff = Payoff(2, lambda s: s[1] >= 1, "second-nonzero")
        result = solve(ms6, GameKind.ASYMPTOTIC_F, top, payoff, Player.I)
        delta = DeltaSeq.of("1/2", "1/2")
        with pytest.raises(FiniteExhaustion):
            strong_asymptotic_from_asymptotic(
                space, system, result.strategy, payoff, delta
            )

    def test_finite_field_system_realizes_block_ramsey(self, f2d4):
        system = field_subspace_system(f2d4)
        space = with_system(f2d4, system)
        top = top_subspace(space)
        payoff = Payoff(1, lambda s: f2d4.points[s[0]][0] == 0, "coord0-zero")
        result = solve(f2d4, GameKind.ASYMPTOTIC_F, top, payoff, Player.I)
        assert result.winner is Player.I
        delta = DeltaSeq.of("1/2")
        strong = strong_asymptotic_from_asymptotic(
            space, system, result.strategy, payoff, delta
        )
        report = verify_strong_asymptotic(space, system, strong, payoff, delta)
        assert report.passed

    def test_discrete_delta_below_one_is_exact(self, ms6):
        system = ms_singleton_system(ms6)
        space = with_system(ms6, system)
        top = top_subspace(space)
        payoff = Payoff(1, lambda s: s[0] >= 1, "nonzero")
        result = solve(ms6, GameKind.ASYMPTOTIC_F, top, payoff, Player.I)
        delta = DeltaSeq.of("1/2")
        strong = strong_asymptotic_from_asymptotic(
            space, system, result.strategy, payoff, delta
        )
        report = verify_strong_asymptotic(space, system, strong, payoff, delta)
        # Expansion at this delta is the plain payoff, so the fraction is
        # exact acceptance.
        assert report.passed


class TestDeltaPayoffs:
    def test_solver_evaluates_expanded_acceptance(self, grid_half):
        # The delta-expansion is decided like any payoff: the pinned
        # corner is unreachable exactly, but with slack around it the
        # second player reaches the ball.
        top = top_subspace(grid_half)
        corner = grid_half.points.index((Fraction(1), Fraction(1)))
        pinned = Payoff(1, lambda s: s[0] == corner, "corner")
        exact = solve(grid_half, GameKind.GOWERS_G, top, pinned, Player.II)
        assert exact.winner is Player.I
        widened = expanded_target(grid_half, pinned, DeltaSeq.of("2"))
        loose = solve(grid_half, GameKind.GOWERS_G, top, widened, Player.II)
        assert loose.winner is Player.II
        report = verify_strategy(grid_half, loose.strategy, widened, target="accepts")
        assert report.passed
