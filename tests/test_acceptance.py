"""Acceptance criteria, one test per criterion, each printing a verdict.

Every tolerance here is exact: winners must agree exactly, verification
fractions must equal one, scans must be empty, reports byte-identical.
Criterion 3 allows one alternative outcome per case: an explicit
witness-exhaustion diagnostic; silent degradation fails the test.

Criterion 5 is the finite shadow of the support counterexample.  The
paper's map phi from the nonzero scalars into omega is unbounded, which
needs an infinite field; over F_q it only reaches q - 2.  At field order
five, dimension four, the exhaustive block-subspace scan is empty, and
the second player wins the support game below the full space: every
nonzero subspace is closed under scalars, so she can answer any opening
with a vector whose first nonzero coordinate is 4, phi(4) = 3 = d - 1,
and no vector has its support start past the last coordinate.  The test
checks that scalar reply directly from the rules, and checks her win by
memoized solve, by the naive oracle and by exhaustive replay at fraction
one.  The first player's win needs q - 2 < d - 1, that is d >= q; at
field order three, dimension three, slack two he wins, verified at
fraction one, and the block scan is then nonempty.  No finite parameters
give both the empty scan and his win.
"""

import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from microsuite import micro_games
from oracle import naive_solve_oracle

from gowerslab import (
    Budget,
    GameKind,
    Move,
    Player,
    build_payoff,
    check_axioms,
    negate,
    seeded_payoff,
    solve,
    strategy_from_rule,
    verified,
    verify_strategy,
    with_system,
)
from gowerslab.approx import (
    DeltaSeq,
    approx_asymptotic_from_gowers,
    build_net,
    discretize,
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
from gowerslab.cli import RULES, run_scenario
from gowerslab.errors import FiniteExhaustion, PigeonholeUnavailable
from gowerslab.games import initial_position, legal_moves
from gowerslab.instances import (
    FIRST_COORD_ONE,
    PHI_SUPPORT,
    PROJECTIVE_FIRST_LAST,
    counterexample_sets,
    first_nonzero_value,
    grid_sphere,
    mathias_silver,
    meets_both_scan,
    phi_map,
    phi_support_block_scan,
    projective_rosendal,
    provider_for,
    rosendal,
    top_subspace,
)
from gowerslab.payoffs import Payoff
from gowerslab.reductions import (
    adversarial_from_kastanas,
    asymptotic_from_gowers,
    gowers_from_asymptotic,
    homogeneous_from_asymptotic,
    project_tilde_strategy,
    projected_payoff,
    tilde_lift,
    unfold_asymptotic,
    decorate_space,
)


def verdict(criterion: str, status: str, detail: str = "") -> None:
    line = f"[criterion {criterion}] {status}"
    if detail:
        line += f" - {detail}"
    print(line)


def test_criterion_1_axiom_suite():
    started = time.time()
    instances = [
        mathias_silver(10, 2, 1),
        rosendal(2, 4, 1),
        rosendal(3, 4, 1),
        projective_rosendal(3, 4, 1),
        grid_sphere(2, Fraction(1, 4), 1),
    ]
    for space in instances:
        report = check_axioms(space, 3, Budget(30_000_000, "acceptance-axioms"))
        assert report.all_pass, f"{space.name}: {report.summary()}"
    elapsed = time.time() - started
    assert elapsed < 60
    verdict("1", "PASS", f"5 instances, horizon 3, {elapsed:.1f}s")


def test_criterion_2_solver_oracle_equivalence():
    started = time.time()
    games = micro_games()
    assert len(games) >= 50
    for game in games:
        fast = solve(game.space, game.kind, game.root, game.payoff, game.goal)
        slow = naive_solve_oracle(
            game.space, game.kind, game.root, game.payoff, game.goal
        )
        assert fast.winner == slow.winner, game.label
    elapsed = time.time() - started
    assert elapsed < 300
    verdict("2", "PASS", f"{len(games)} games agree, {elapsed:.1f}s")


def _transformation_cases():
    """Every transformation with its verified micro-suite inputs.

    Yields (label, runner) where the runner returns a VerificationReport
    or raises FiniteExhaustion / PigeonholeUnavailable.
    """
    ms6 = mathias_silver(6, 2, 1)
    ms8 = mathias_silver(8, 2, 1)
    ms84 = mathias_silver(8, 2, 4)
    ms8t = mathias_silver(8, 6, 1)
    ms10 = mathias_silver(10, 2, 1)
    ms12 = mathias_silver(12, 2, 1)
    ms3 = mathias_silver(3, 2, 1)
    f3 = rosendal(3, 4, 1)
    grid = grid_sphere(2, Fraction(1, 2), 1)
    cases = []

    def case(label):
        def deco(fn):
            cases.append((label, fn))
            return fn

        return deco

    # --- nested game to adversarial games, both owners -----------------
    @case("adversarial_from_kastanas/II/hand/h1")
    def _():
        top = top_subspace(ms10)
        payoff = build_payoff(ms10, "point_odd", 2, {"index": 1})
        rule = RULES["stay-in-set"](ms10, {"labels": [1, 3, 5, 7, 9]})
        tau = verified(
            ms10,
            strategy_from_rule(ms10, GameKind.KASTANAS, top, 2, Player.II, rule),
            payoff,
        )
        transfer = adversarial_from_kastanas(ms10, tau, Player.II, payoff)
        return verify_strategy(ms10, transfer.strategy, payoff, target="accepts")

    @case("adversarial_from_kastanas/I/solver/h1")
    def _():
        top = top_subspace(ms6)
        payoff = build_payoff(ms6, "first_in", 2, {"labels": [1, 2, 3, 4, 5]})
        result = solve(ms6, GameKind.KASTANAS, top, payoff, Player.I)
        assert result.winner is Player.I
        transfer = adversarial_from_kastanas(ms6, result.strategy, Player.I, payoff)
        return verify_strategy(ms6, transfer.strategy, payoff, target="accepts")

    @case("adversarial_from_kastanas/I/solver/h2")
    def _():
        top = top_subspace(ms3)
        payoff = Payoff(4, lambda s: s[0] <= 1 and s[2] <= 1, "small-firsts")
        result = solve(ms3, GameKind.KASTANAS, top, payoff, Player.I)
        assert result.winner is Player.I
        transfer = adversarial_from_kastanas(ms3, result.strategy, Player.I, payoff)
        return verify_strategy(ms3, transfer.strategy, payoff, target="accepts")

    @case("adversarial_from_kastanas/II/solver/h2")
    def _():
        top = top_subspace(ms3)
        payoff = seeded_payoff(4, 40, density=0.15)
        result = solve(ms3, GameKind.KASTANAS, top, payoff, Player.II)
        assert result.winner is Player.II
        transfer = adversarial_from_kastanas(ms3, result.strategy, Player.II, payoff)
        return verify_strategy(ms3, transfer.strategy, payoff, target="accepts")

    @case("adversarial_from_kastanas/II/solver/h2-wide")
    def _():
        ms43 = mathias_silver(4, 3, 1)
        top = top_subspace(ms43)
        payoff = seeded_payoff(4, 86, density=0.2)
        result = solve(ms43, GameKind.KASTANAS, top, payoff, Player.II)
        assert result.winner is Player.II
        transfer = adversarial_from_kastanas(ms43, result.strategy, Player.II, payoff)
        return verify_strategy(ms43, transfer.strategy, payoff, target="accepts")

    @case("adversarial_from_kastanas/I/solver/h2-wide")
    def _():
        ms43 = mathias_silver(4, 3, 1)
        top = top_subspace(ms43)
        payoff = seeded_payoff(4, 70, density=0.85)
        result = solve(ms43, GameKind.KASTANAS, top, payoff, Player.I)
        assert result.winner is Player.I
        transfer = adversarial_from_kastanas(ms43, result.strategy, Player.I, payoff)
        return verify_strategy(ms43, transfer.strategy, payoff, target="accepts")

    # --- parity lift pipeline, both projections ------------------------
    @case("tilde_lift/A-to-F")
    def _():
        top = top_subspace(ms8t)
        payoff = build_payoff(ms8t, "first_in", 1, {"labels": [3]})
        twisted, doubled = tilde_lift(ms8t, payoff)
        result = solve(
            twisted, GameKind.ADVERSARIAL_A, top, negate(doubled), Player.I
        )
        assert result.winner is Player.I
        f_strat = project_tilde_strategy(ms8t, twisted, result.strategy)
        return verify_strategy(ms8t, f_strat, payoff, target="complement")

    @case("tilde_lift/B-to-G")
    def _():
        top = top_subspace(ms8t)
        payoff = build_payoff(ms8t, "point_even", 1, {"index": 0})
        twisted, doubled = tilde_lift(ms8t, payoff)
        result = solve(twisted, GameKind.ADVERSARIAL_B, top, doubled, Player.II)
        assert result.winner is Player.II
        g_strat = project_tilde_strategy(ms8t, twisted, result.strategy)
        return verify_strategy(ms8t, g_strat, payoff, target="accepts")

    # --- unfolding ------------------------------------------------------
    @case("unfold_asymptotic/h1")
    def _():
        top = top_subspace(ms6)
        decorated = decorate_space(ms6)
        payoff_prime = Payoff(
            1, lambda s: decorated.points[s[0]] == (3, 1), "hit-3-bit1"
        )
        result = solve(
            decorated, GameKind.ASYMPTOTIC_F, top, negate(payoff_prime), Player.I
        )
        assert result.winner is Player.I
        tau = unfold_asymptotic(ms6, result.strategy, payoff_prime)
        return verify_strategy(
            ms6, tau, projected_payoff(payoff_prime), target="complement"
        )

    @case("unfold_asymptotic/h2")
    def _():
        top = top_subspace(ms6)
        decorated = decorate_space(ms6)

        def accepts(seq):
            first = decorated.points[seq[0]]
            second = decorated.points[seq[1]]
            return (first == (3, 1)) or (second == (5, 0))

        payoff_prime = Payoff(2, accepts, "decorated-pair")
        result = solve(
            decorated, GameKind.ASYMPTOTIC_F, top, negate(payoff_prime), Player.I
        )
        assert result.winner is Player.I
        tau = unfold_asymptotic(ms6, result.strategy, payoff_prime)
        return verify_strategy(
            ms6, tau, projected_payoff(payoff_prime), target="complement"
        )

    # --- asymptotic to chooser game -------------------------------------
    @case("gowers_from_asymptotic/constant")
    def _():
        top = top_subspace(ms8)
        payoff = build_payoff(ms8, "everything", 2)
        tau = verified(
            ms8,
            strategy_from_rule(
                ms8,
                GameKind.ASYMPTOTIC_F,
                top,
                2,
                Player.I,
                lambda spc, pos: Move(Player.I, subspace=top),
            ),
            payoff,
        )
        sigma = gowers_from_asymptotic(ms8, tau, payoff)
        return verify_strategy(ms8, sigma, payoff, target="accepts")

    @case("gowers_from_asymptotic/evens-starved")
    def _():
        top = top_subspace(ms84)
        evens = ms84.palette.index((0, 2, 4, 6))
        payoff = build_payoff(ms84, "all_even", 2)
        tau = verified(
            ms84,
            strategy_from_rule(
                ms84,
                GameKind.ASYMPTOTIC_F,
                top,
                2,
                Player.I,
                lambda spc, pos: Move(Player.I, subspace=evens),
            ),
            payoff,
        )
        sigma = gowers_from_asymptotic(ms84, tau, payoff)
        return verify_strategy(ms84, sigma, payoff, target="accepts")

    # --- chooser game back to asymptotic, exact and approximate ---------
    @case("asymptotic_from_gowers/nonzero")
    def _():
        top = top_subspace(ms6)
        payoff = Payoff(2, lambda s: all(x >= 1 for x in s), "all-nonzero")
        result = solve(ms6, GameKind.GOWERS_G, top, payoff, Player.II)
        assert result.winner is Player.II
        transfer = asymptotic_from_gowers(
            ms6, result.strategy, payoff, provider_for(ms6)
        )
        return verify_strategy(ms6, transfer.strategy, payoff, target="accepts")

    @case("asymptotic_from_gowers/ternary-counterexample")
    def _():
        top = top_subspace(f3)
        target = counterexample_sets(f3, FIRST_COORD_ONE)
        payoff = Payoff(1, lambda s: s[0] in target, "first-coord-one")
        result = solve(f3, GameKind.GOWERS_G, top, payoff, Player.II)
        assert result.winner is Player.II
        transfer = asymptotic_from_gowers(
            f3, result.strategy, payoff, provider_for(f3)
        )
        return verify_strategy(f3, transfer.strategy, payoff, target="accepts")

    @case("approx_asymptotic_from_gowers/grid")
    def _():
        top = top_subspace(grid)

        def lex_positive(seq):
            v = grid.points[seq[0]]
            nz = next(c for c in v if c != 0)
            return nz > 0

        payoff = Payoff(1, lex_positive, "lex-positive")
        result = solve(grid, GameKind.GOWERS_G, top, payoff, Player.II)
        assert result.winner is Player.II
        delta = DeltaSeq.of("1/2")
        transfer = approx_asymptotic_from_gowers(
            grid, result.strategy, payoff, delta, provider_for(grid)
        )
        target = expanded_target(grid, payoff, delta.tripled(), "accepts")
        return verify_strategy(grid, transfer.strategy, target, target="accepts")

    # --- homogeneous extraction -----------------------------------------
    @case("homogeneous_from_asymptotic/solver")
    def _():
        top = top_subspace(ms12)
        payoff = Payoff(2, lambda s: s[1] >= 1, "second-nonzero")
        result = solve(ms12, GameKind.ASYMPTOTIC_F, top, payoff, Player.I)
        assert result.winner is Player.I
        chosen = homogeneous_from_asymptotic(ms12, result.strategy, payoff)
        good = sum(1 for p in combinations(chosen, 2) if payoff.accepts(p))
        total = len(list(combinations(chosen, 2)))
        from gowerslab.solver import VerificationReport

        return VerificationReport("exhaustive", "accepts", total, good)

    # --- discretization lifts, all four directions -----------------------
    def lift_case(direction, kind, payoff, delta, goal, side):
        top = top_subspace(grid)
        disc = discretize(grid, range(len(grid.points)), delta)
        disc_payoff = restrict_payoff(disc, payoff)
        if side == "complement":
            disc_payoff = negate(disc_payoff)
        result = solve(disc, kind, top, disc_payoff, goal)
        assert result.winner is goal
        lifted = lift_strategy(grid, disc, result.strategy, direction, payoff, delta)
        target = expanded_target(grid, payoff, delta, side)
        return verify_strategy(grid, lifted, target, target="accepts")

    def lex_positive_first(seq):
        v = grid.points[seq[0]]
        nz = next(c for c in v if c != 0)
        return nz > 0

    corner = grid.points.index((Fraction(1), Fraction(1)))

    @case("lift_strategy/G-II")
    def _():
        return lift_case(
            "G-II",
            GameKind.GOWERS_G,
            Payoff(1, lex_positive_first, "lex-positive"),
            DeltaSeq.of("1/2"),
            Player.II,
            "accepts",
        )

    @case("lift_strategy/F-I")
    def _():
        return lift_case(
            "F-I",
            GameKind.ASYMPTOTIC_F,
            Payoff(1, lambda s: s[0] == corner, "corner"),
            DeltaSeq.of("1/2"),
            Player.I,
            "complement",
        )

    @case("lift_strategy/A-I")
    def _():
        return lift_case(
            "A-I",
            GameKind.ADVERSARIAL_A,
            Payoff(2, lex_positive_first, "lex-positive-x0"),
            DeltaSeq.of("1/2", "1/2"),
            Player.I,
            "accepts",
        )

    @case("lift_strategy/B-II")
    def _():
        return lift_case(
            "B-II",
            GameKind.ADVERSARIAL_B,
            Payoff(2, lambda s: s[0] == corner, "corner-first"),
            DeltaSeq.of("1/2", "1/2"),
            Player.II,
            "complement",
        )

    # --- strong asymptotic game ------------------------------------------
    @case("strong_asymptotic/ms-singletons")
    def _():
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
        return verify_strong_asymptotic(space, system, strong, payoff, delta)

    @case("strong_asymptotic/field-system")
    def _():
        f2 = rosendal(2, 4, 1)
        system = field_subspace_system(f2)
        space = with_system(f2, system)
        top = top_subspace(space)
        payoff = Payoff(1, lambda s: f2.points[s[0]][0] == 0, "coord0-zero")
        result = solve(f2, GameKind.ASYMPTOTIC_F, top, payoff, Player.I)
        assert result.winner is Player.I
        delta = DeltaSeq.of("1/2")
        strong = strong_asymptotic_from_asymptotic(
            space, system, result.strategy, payoff, delta
        )
        return verify_strong_asymptotic(space, system, strong, payoff, delta)

    @case("strong_asymptotic/slack-starved")
    def _():
        system = ms_singleton_system(ms6)
        space = with_system(ms6, system)
        top = top_subspace(space)
        payoff = Payoff(2, lambda s: s[1] >= 1, "second-nonzero")
        result = solve(ms6, GameKind.ASYMPTOTIC_F, top, payoff, Player.I)
        delta = DeltaSeq.of("1/2", "1/2")
        strong = strong_asymptotic_from_asymptotic(
            space, system, result.strategy, payoff, delta
        )
        return verify_strong_asymptotic(space, system, strong, payoff, delta)

    return cases


def test_criterion_3_reduction_correctness():
    started = time.time()
    outcomes = []
    for label, runner in _transformation_cases():
        try:
            report = runner()
        except (FiniteExhaustion, PigeonholeUnavailable) as exc:
            outcomes.append((label, f"EXHAUSTED ({exc.__class__.__name__})"))
            continue
        assert report.passed, f"{label}: fraction {report.fraction_target}"
        outcomes.append((label, f"verified 1.0 over {report.plays} plays"))
    elapsed = time.time() - started
    assert elapsed < 900
    for label, status in outcomes:
        print(f"    {label}: {status}")
    assert len(outcomes) >= 18
    verdict("3", "PASS", f"{len(outcomes)} transformation cases, {elapsed:.1f}s")


def test_criterion_4_pigeonhole_counterexamples():
    started = time.time()
    f3 = rosendal(3, 4, 1)
    target = counterexample_sets(f3, FIRST_COORD_ONE)
    assert meets_both_scan(f3, target, min_dim=1) == []
    with pytest.raises(PigeonholeUnavailable):
        provider_for(f3).decide(f3, (), target, top_subspace(f3))

    proj = projective_rosendal(3, 4, 1)
    target_p = counterexample_sets(proj, PROJECTIVE_FIRST_LAST)
    assert meets_both_scan(proj, target_p, min_dim=2) == []
    elapsed = time.time() - started
    assert elapsed < 30
    verdict("4", "PASS", f"both scans empty, {elapsed:.1f}s")


def _support_game(space):
    """The support game below the full space, decided by the memoized
    solver and by the naive oracle; the solver's strategy is replayed
    exhaustively toward the side it claims."""
    payoff = counterexample_sets(space, PHI_SUPPORT)
    top = top_subspace(space)
    fast = solve(
        space,
        GameKind.ASYMPTOTIC_F,
        top,
        payoff,
        Player.I,
        Budget(30_000_000, "criterion5"),
    )
    slow = naive_solve_oracle(space, GameKind.ASYMPTOTIC_F, top, payoff, Player.I)
    target = "accepts" if fast.winner is Player.I else "complement"
    replay = verify_strategy(space, fast.strategy, payoff, target=target)
    return fast.winner, slow.winner, replay


def _scalar_reply_blocks_every_opening(space) -> bool:
    """Below every legal opening the second player has an admitted x0 with
    phi(first nonzero value) >= d - 1, and no point x1 completes an
    accepted pair after it.  Checked from the rules, without the solver."""
    d = space.meta["dimension"]
    phi = phi_map(space.meta["field_order"])
    payoff = counterexample_sets(space, PHI_SUPPORT)
    pos0 = initial_position(GameKind.ASYMPTOTIC_F, top_subspace(space), payoff.horizon)
    openings = legal_moves(space, pos0)

    def blocked(opening):
        return any(
            phi[first_nonzero_value(space.points[reply.point])] >= d - 1
            and not any(
                payoff.accepts((reply.point, x1)) for x1 in range(len(space.points))
            )
            for reply in legal_moves(space, pos0.child(opening))
        )

    return bool(openings) and all(blocked(opening) for opening in openings)


def test_criterion_5_support_counterexample_shadow():
    started = time.time()
    ros5 = rosendal(5, 4, 1)
    scan_ok = phi_support_block_scan(ros5) == []
    fast, slow, replay = _support_game(ros5)
    scalar_ok = _scalar_reply_blocks_every_opening(ros5)

    # The d >= q side of the trade-off: the first player wins once phi can
    # no longer reach d - 1, and the block scan then finds subspaces inside.
    ros3 = rosendal(3, 3, 2)
    fast3, slow3, replay3 = _support_game(ros3)
    inside3 = phi_support_block_scan(ros3)
    elapsed = time.time() - started

    second_player_wins = fast is slow is Player.II and replay.passed
    first_player_wins_at_d_ge_q = fast3 is slow3 is Player.I and replay3.passed
    holds = (
        scan_ok,
        scalar_ok,
        second_player_wins,
        first_player_wins_at_d_ge_q,
        bool(inside3),
    )
    status = "PASS" if all(holds) else "FAIL"
    verdict(
        "5",
        status,
        f"block-scan-empty={scan_ok}, scalar-reply-blocks={scalar_ok}, "
        f"second-player-wins={second_player_wins} ({replay.plays} plays), "
        f"F3-d3-first-player-wins={first_player_wins_at_d_ge_q}, "
        f"F3-d3-inside={len(inside3)}, {elapsed:.1f}s",
    )
    assert elapsed < 120
    assert scan_ok, "block-subspace scan found a fully-inside subspace"
    assert fast is Player.II, "memoized solve: the second player must win at F5, d=4"
    assert slow is Player.II, "naive oracle: the second player must win at F5, d=4"
    assert replay.passed and replay.fraction_target == 1, (
        f"second player's strategy reaches the complement in "
        f"{replay.fraction_target} of {replay.plays} plays"
    )
    assert scalar_ok, "some opening leaves the second player no blocking scalar reply"
    assert fast3 is Player.I, "memoized solve: the first player must win at F3, d=3"
    assert slow3 is Player.I, "naive oracle: the first player must win at F3, d=3"
    assert replay3.passed and replay3.fraction_target == 1, (
        f"first player's strategy reaches the payoff in "
        f"{replay3.fraction_target} of {replay3.plays} plays"
    )
    assert inside3, "F3, d=3: the first player's win must come with a nonempty scan"


def _seeded_avoidance_payoff(seed: int) -> Payoff:
    """Seeded coordinatewise clopen payoff on pairs: each coordinate must
    avoid a seeded set of zero to two points.  Winnable by the first
    player exactly when every avoided set fits inside his slack."""
    from gowerslab.util import stable_fraction_hash

    avoid = []
    for i in (0, 1):
        count = stable_fraction_hash(seed, f"count{i}", 3)
        avoid.append(
            frozenset(
                stable_fraction_hash(seed, f"miss{i}.{j}", 12) for j in range(count)
            )
        )

    def accepts(seq):
        return seq[0] not in avoid[0] and seq[1] not in avoid[1]

    return Payoff(2, accepts, f"avoid({seed})")


def test_criterion_6_homogeneous_extraction():
    started = time.time()
    ms12 = mathias_silver(12, 2, 1)
    top = top_subspace(ms12)
    universe = range(12)
    wins = 0
    for seed in range(100):
        payoff = _seeded_avoidance_payoff(seed)
        result = solve(ms12, GameKind.ASYMPTOTIC_F, top, payoff, Player.I)
        # Independent brute-force homogeneous-set search at size two.
        pair_exists = any(
            payoff.accepts((a, b)) for a in universe for b in universe if a < b
        )
        if result.winner is not Player.I:
            continue
        wins += 1
        chosen = homogeneous_from_asymptotic(ms12, result.strategy, payoff)
        assert len(chosen) >= 2, f"seed {seed}: extraction too small"
        for pair in combinations(chosen, 2):
            assert payoff.accepts(pair), f"seed {seed}: pair {pair} rejected"
        # Agreement of existence: the winning strategy promises what the
        # brute-force search must also find.
        assert pair_exists, f"seed {seed}: no homogeneous pair exists"
    elapsed = time.time() - started
    assert wins >= 10, "too few first-player wins to exercise the extraction"
    assert elapsed < 300
    verdict("6", "PASS", f"{wins} extractions verified of 100 seeds, {elapsed:.1f}s")


def test_criterion_7_expansion_laws():
    started = time.time()
    for step in (Fraction(1, 4), Fraction(1, 2)):
        grid = grid_sphere(2, step, 1)
        n = len(grid.points)
        # Net covering at several resolutions.
        for resolution in ("1/4", "1/2", "1"):
            net = build_net(grid, range(n), resolution)
            assert net.covers(grid)
        # Two half-expansions land inside the full expansion, on a
        # thousand seeded sequences.
        def lex_positive(seq):
            v = grid.points[seq[0]]
            nz = next(c for c in v if c != 0)
            return nz > 0

        payoff = Payoff(2, lex_positive, "lex-positive")
        delta = DeltaSeq.of("1/2", "1/2")
        base = materialize_payoff_set(grid, payoff)
        once = expand_sequence_set(grid, base, delta.halved())
        twice = expand_sequence_set(grid, once, delta.halved())
        full = expand_sequence_set(grid, base, delta)
        rng = random.Random(int(1 / step))
        for _ in range(1000):
            seq = (rng.randrange(n), rng.randrange(n))
            if seq in twice:
                assert seq in full
        # Monotonicity of the point expansion in delta.
        seed_set = frozenset({0, n // 2})
        assert expand_point_set(grid, seed_set, "1/4") <= expand_point_set(
            grid, seed_set, "1/2"
        )
    elapsed = time.time() - started
    assert elapsed < 60
    verdict("7", "PASS", f"nets, nesting, monotonicity on 2 grids, {elapsed:.1f}s")


def test_criterion_8_deterministic_reports(tmp_path):
    from importlib import resources

    names = [
        "ms-kastanas-h1.json",
        "f3-pigeonhole-counterexample.json",
        "ms-f-dichotomy.json",
        "rosendal-f2-gowers.json",
        "ms-strong-asymptotic.json",
    ]
    for name in names:
        path = str(resources.files("gowerslab") / "scenarios" / name)
        first = run_scenario(path, out_dir=tmp_path / "a")
        second = run_scenario(path, out_dir=tmp_path / "b")
        stem = first.report["scenario"]
        a = (tmp_path / "a" / f"{stem}.json").read_bytes()
        b = (tmp_path / "b" / f"{stem}.json").read_bytes()
        assert a == b, f"{name} report not byte-identical"
        assert first.exit_code == 0
    verdict("8", "PASS", f"{len(names)} scenarios byte-identical")
