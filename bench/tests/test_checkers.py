"""The benchmark's independent checkers agree with the program on tiny
cases, and reject a planted wrong answer."""

import ast
import dataclasses
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import pytest

import checkers
from gowerslab import GameKind, Player, seeded_payoff, solve, verify_strategy, with_system
from gowerslab.approx import (
    DeltaSeq,
    build_net,
    expand_sequence_set,
    field_subspace_system,
    materialize_payoff_set,
    ms_singleton_system,
)
from gowerslab.instances import (
    FIRST_COORD_ONE,
    counterexample_sets,
    grid_sphere,
    mathias_silver,
    meets_both_scan,
    rosendal,
    top_subspace,
)
from gowerslab.reductions import check_ramsey_dichotomy
from gowerslab.space import check_axioms

BENCH = Path(checkers.__file__).resolve().parent

# (instance, game, horizon, density, goal owner): every game kind the
# workloads solve.
GAMES = [
    (lambda: mathias_silver(4, 2, 1), "G", 2, 0.6, "II"),
    (lambda: rosendal(2, 3, 1), "F", 2, 0.5, "I"),
    (lambda: mathias_silver(4, 2, 1), "A", 2, 0.5, "I"),
    (lambda: mathias_silver(4, 2, 1), "B", 2, 0.5, "II"),
    (lambda: mathias_silver(3, 2, 1), "K", 2, 0.5, "I"),
    (lambda: rosendal(3, 2, 1), "G", 2, 0.9, "II"),
]


def _singleton_space():
    ms = mathias_silver(4, 2, 1)
    return with_system(ms, ms_singleton_system(ms))


@pytest.mark.parametrize("make, kind, horizon, density, goal", GAMES)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_minimax_agrees_with_solver(make, kind, horizon, density, goal, seed):
    space = make()
    root = top_subspace(space)
    result = solve(space, GameKind(kind), root, seeded_payoff(horizon, seed, density), Player(goal))
    accepts = checkers.seeded_accepts(seed, density)
    winner = result.winner.value
    assert checkers.check_winner(space, kind, root, horizon, accepts, goal, winner) == []
    flipped = "I" if winner == "II" else "II"
    assert checkers.check_winner(space, kind, root, horizon, accepts, goal, flipped)


@pytest.mark.parametrize("seed", [4, 5, 6])
def test_minimax_agrees_on_strong_asymptotic_game(seed):
    space = _singleton_space()
    root = top_subspace(space)
    result = solve(space, GameKind.STRONG_ASYMPTOTIC_SF, root, seeded_payoff(2, seed, 0.6), Player.II)
    family = space.system.family
    accepts = checkers.seeded_accepts(seed, 0.6)
    winner = result.winner.value
    assert checkers.check_winner(space, "SF", root, 2, accepts, "II", winner, family) == []
    flipped = "I" if winner == "II" else "II"
    assert checkers.check_winner(space, "SF", root, 2, accepts, "II", flipped, family)


def test_seeded_accepts_matches_the_payoff():
    space = _singleton_space()
    payoff = seeded_payoff(2, 9, 0.5)
    mine = checkers.seeded_accepts(9, 0.5)
    for outcome in product(range(4), repeat=2):
        assert mine(outcome) == payoff.accepts(outcome)
    for a, b in product(space.system.family, repeat=2):
        assert mine((a, b)) == payoff.accepts((a, b))


def test_replay_check_rejects_a_missed_play():
    space = mathias_silver(4, 2, 1)
    payoff = seeded_payoff(2, 3, 0.6)
    result = solve(space, GameKind.GOWERS_G, top_subspace(space), payoff, Player.II)
    target = "accepts" if result.winner is Player.II else "complement"
    report = verify_strategy(space, result.strategy, payoff, target=target)
    assert checkers.check_replay("G", report) == []
    off = report.in_accepts + (-1 if target == "accepts" else 1)
    assert checkers.check_replay("G", dataclasses.replace(report, in_accepts=off))


def _brute_chains(masks, max_len):
    n = len(masks)
    count = 0
    for length in range(1, max_len + 1):
        for chain in product(range(n), repeat=length):
            if all(masks[b] & ~masks[a] == 0 for a, b in zip(chain, chain[1:])):
                count += 1
    return count


def test_chain_count_matches_enumeration():
    masks = mathias_silver(4, 2, 1).meta["masks"]
    for max_len in (1, 2, 3):
        assert checkers.count_decreasing_chains(masks, max_len) == _brute_chains(masks, max_len)


@pytest.mark.parametrize(
    "make, horizon",
    [
        (lambda: mathias_silver(5, 2, 1), 3),
        (lambda: rosendal(2, 3, 1), 2),
        (lambda: grid_sphere(2, Fraction(1, 2), 1), 3),
    ],
)
def test_axiom_check_counts(make, horizon):
    space = make()
    report = check_axioms(space, horizon)
    assert checkers.check_axioms_report(space, horizon, report) == []
    report.axioms["axiom3"].checked += 1
    assert checkers.check_axioms_report(space, horizon, report)
    report.axioms["axiom3"].checked -= 1
    report.axioms["axiom1"].checked -= 1
    assert checkers.check_axioms_report(space, horizon, report)


def test_expansion_matches_and_rejects_a_missing_sequence():
    step = Fraction(1, 2)
    grid = grid_sphere(2, step, 1)
    coords = checkers.grid_coordinates(grid.points, step)
    base = materialize_payoff_set(grid, seeded_payoff(2, 7, 0.1))
    delta = DeltaSeq.of("1/2", "1")
    got = expand_sequence_set(grid, base, delta)
    assert len(got) > len(base)
    assert checkers.check_expansion("grid", coords, step, base, delta.values, got) == []
    missing = frozenset(sorted(got)[1:])
    assert checkers.check_expansion("grid", coords, step, base, delta.values, missing)


def test_net_check():
    step = Fraction(1, 2)
    grid = grid_sphere(2, step, 1)
    coords = checkers.grid_coordinates(grid.points, step)
    points = range(len(grid.points))
    net = build_net(grid, points, "1/2")
    assert checkers.check_net("net", coords, step, points, net) == []
    short = dataclasses.replace(net, members=net.members[1:])
    assert checkers.check_net("net", coords, step, points, short)


def test_gaussian_binomial_counts():
    assert checkers.nonzero_subspaces(2, 4) == 66
    assert checkers.nonzero_subspaces(3, 3) == 27
    assert [checkers.gaussian_binomial(4, k, 2) for k in range(5)] == [1, 15, 35, 15, 1]


@pytest.mark.parametrize("q, d", [(2, 3), (3, 2)])
def test_field_system_size(q, d):
    system = field_subspace_system(rosendal(q, d, 1))
    assert checkers.check_field_system("field", q, d, system) == []
    short = SimpleNamespace(family=system.family[1:])
    assert checkers.check_field_system("field", q, d, short)


@pytest.mark.parametrize("flavor", ["strategic", "adversarial"])
def test_dichotomy_check(flavor):
    space = mathias_silver(5, 2, 1)
    root = top_subspace(space)
    report = check_ramsey_dichotomy(space, seeded_payoff(2, 11, 0.5), root, flavor)
    rows = [(e.q, e.first_side, e.second_side) for e in report.entries]
    assert checkers.check_dichotomy("d", space, root, rows) == []
    assert checkers.check_dichotomy("d", space, root, rows[:-1])
    q, _, _ = rows[0]
    assert checkers.check_dichotomy("d", space, root, [(q, True, True)] + rows[1:])


def test_point_scan_check():
    space = rosendal(3, 3, 1)
    target = counterexample_sets(space, FIRST_COORD_ONE)
    failures = meets_both_scan(space, target, min_dim=1)
    masks, dims = space.meta["masks"], space.meta["dims"]
    assert checkers.check_point_scan("scan", masks, dims, target, 1, failures) == []
    assert checkers.check_point_scan("scan", masks, dims, target, 1, failures + [0])


def test_calibration_imports_nothing_from_the_program():
    tree = ast.parse((BENCH / "calib.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0])
    assert imported <= {"__future__", "gc", "hashlib", "time", "fractions"}
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import calib; "
        "calib.timed_calibration(); "
        "print(sorted(m for m in sys.modules if m.startswith('gowerslab')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe, str(BENCH)], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
