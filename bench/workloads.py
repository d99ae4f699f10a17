"""The benchmark's three workloads.

A workload is a list of operations.  Each operation makes one chain of
calls into the program's public functions, building its instances fresh
(every ``gowerslab run`` pays for instance construction and cache
filling), and returns its outputs; a separate check tests them against a
computation made apart from the program or against a property the method
must have.  Program functions that the traced run wraps are always
looked up on their module at call time (``solver.solve``), so the
tracer's wrappers see every call.

Inputs come from the run's seed: the payoff seeds of deep-solve, the
scenario seeds and the symmetry of the expanded set.  The dichotomy
sweeps and the transformations use fixed payoffs.  A seeded payoff
makes a sweep's cost swing with the seed (``mathias_silver(7, 2, 1)``,
strategic, density 0.5: 12k to 56k solver nodes over 16 seeds), and on
other payoffs the transformations' finite witnesses can run out, which
would make an operation fail on some seeds only.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Callable

import checkers
import gowerslab.approx as approx
import gowerslab.cli as cli
import gowerslab.instances as instances
import gowerslab.reductions as reductions
import gowerslab.solver as solver
import gowerslab.space as space_mod
from gowerslab.approx import DeltaSeq
from gowerslab.errors import Budget
from gowerslab.games import GameKind, Move, Player
from gowerslab.payoffs import Payoff, build_payoff, negate, seeded_payoff

SCENARIOS = (
    "ms-kastanas-h1",
    "f3-pigeonhole-counterexample",
    "ms-f-dichotomy",
    "rosendal-f2-gowers",
    "ms-strong-asymptotic",
)


def derive(seed: int, label: str) -> int:
    """A child seed for one input, stable across platforms."""
    digest = hashlib.sha256(f"{seed}/{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % 1_000_000_007


@dataclass
class Operation:
    """``run`` returns a dict of outputs.  Keys starting with "_" hold
    objects for the check; the others must repeat exactly from pass to
    pass."""

    label: str
    run: Callable[[], dict]
    check: Callable[[dict], list]


def summary(outputs: dict) -> dict:
    return {k: v for k, v in outputs.items() if not k.startswith("_")}


# -- deep-solve --------------------------------------------------------------------

# (instance, game, horizon, payoff density, goal owner).  Densities near
# one keep the solver's node count steady across payoff seeds; the
# adversarial games need them nearest one (see the README).
DEEP_GAMES = (
    ("mathias_silver", (5, 2, 1), "G", 3, 0.95, "II"),
    ("mathias_silver", (5, 2, 1), "A", 4, 0.99, "I"),
    ("mathias_silver", (5, 2, 1), "B", 4, 0.98, "II"),
    ("mathias_silver", (4, 2, 1), "G", 4, 0.95, "II"),
    ("rosendal", (3, 3, 1), "G", 3, 0.95, "II"),
    ("rosendal", (3, 3, 1), "F", 4, 0.9, "II"),
)


def _deep_game(factory, args, kind, horizon, density, goal, payoff_seed) -> Operation:
    label = f"{factory}{args} {kind} h{horizon}"

    def run():
        space = getattr(instances, factory)(*args)
        root = instances.top_subspace(space)
        payoff = seeded_payoff(horizon, payoff_seed, density)
        result = solver.solve(
            space, GameKind(kind), root, payoff, Player(goal), Budget(10_000_000, label)
        )
        target = "accepts" if result.winner.value == goal else "complement"
        report = solver.verify_strategy(space, result.strategy, payoff, target=target)
        return {
            "winner": result.winner.value,
            "nodes": result.nodes_expanded,
            "entries": len(result.strategy.table),
            "plays": report.plays,
            "_space": space,
            "_root": root,
            "_report": report,
        }

    def check(out):
        accepts = checkers.seeded_accepts(payoff_seed, density)
        return checkers.check_winner(
            out["_space"], kind, out["_root"], horizon, accepts, goal, out["winner"]
        ) + checkers.check_replay(label, out["_report"])

    return Operation(label, run, check)


def deep_solve(seed: int, workdir: Path) -> list:
    return [
        _deep_game(*game, derive(seed, f"deep-solve/{i}"))
        for i, game in enumerate(DEEP_GAMES)
    ]


# -- pipelines -----------------------------------------------------------------------


def _scenario(path: Path, out_dir: Path) -> Operation:
    def run():
        outcome = cli.run_scenario(str(path), out_dir=str(out_dir))
        data = (out_dir / f"{outcome.report['scenario']}.json").read_bytes()
        return {
            "exit_code": outcome.exit_code,
            "status": outcome.report["status"],
            "report_sha256": hashlib.sha256(data).hexdigest(),
        }

    def check(out):
        if out["exit_code"] != 0 or out["status"] != "ok":
            return [f"{path.stem}: exit {out['exit_code']}, status {out['status']}"]
        return []

    return Operation(f"scenario {path.stem}", run, check)


def _dichotomy(factory, args, flavor, payoff_name, params) -> Operation:
    label = f"dichotomy {factory}{args} {flavor} {payoff_name}"

    def run():
        space = getattr(instances, factory)(*args)
        root = instances.top_subspace(space)
        payoff = build_payoff(space, payoff_name, 2, params)
        report = reductions.check_ramsey_dichotomy(
            space, payoff, root, flavor, Budget(10_000_000, label)
        )
        rows = [(e.q, e.first_side, e.second_side) for e in report.entries]
        return {"rows": repr(rows), "_rows": rows, "_space": space, "_root": root}

    def check(out):
        return checkers.check_dichotomy(label, out["_space"], out["_root"], out["_rows"])

    return Operation(label, run, check)


def _replayed(label, make_report) -> Operation:
    """A transformation followed by its exhaustive replay."""

    def run():
        report = make_report()
        return {"plays": report.plays, "in_accepts": report.in_accepts, "_report": report}

    return Operation(label, run, lambda out: checkers.check_replay(label, out["_report"]))


def _expect_winner(result, owner: Player):
    if result.winner is not owner:
        raise ValueError(f"solver gave {result.winner.value}, the transformation needs {owner.value}")
    return result.strategy


def _kastanas(factory_args, payoff_fn, owner, rule_labels=None):
    def make():
        space = instances.mathias_silver(*factory_args)
        top = instances.top_subspace(space)
        payoff = payoff_fn(space)
        if rule_labels is not None:
            rule = cli.RULES["stay-in-set"](space, {"labels": rule_labels})
            tau = solver.verified(
                space,
                solver.strategy_from_rule(
                    space, GameKind.KASTANAS, top, payoff.horizon, owner, rule
                ),
                payoff,
            )
        else:
            tau = _expect_winner(
                solver.solve(space, GameKind.KASTANAS, top, payoff, owner), owner
            )
        transfer = reductions.adversarial_from_kastanas(
            space, tau, owner, payoff, Budget(10_000_000, "kastanas")
        )
        return solver.verify_strategy(space, transfer.strategy, payoff, target="accepts")

    return make


def _tilde(kind, payoff_name, params, owner, side):
    def make():
        space = instances.mathias_silver(8, 6, 1)
        top = instances.top_subspace(space)
        payoff = build_payoff(space, payoff_name, 1, params)
        twisted, doubled = reductions.tilde_lift(space, payoff)
        goal = negate(doubled) if side == "complement" else doubled
        result = solver.solve(twisted, kind, top, goal, owner)
        strat = reductions.project_tilde_strategy(space, twisted, _expect_winner(result, owner))
        return solver.verify_strategy(space, strat, payoff, target=side)

    return make


def _unfold(horizon):
    def make():
        space = instances.mathias_silver(6, 2, 1)
        top = instances.top_subspace(space)
        decorated = reductions.decorate_space(space)
        if horizon == 1:
            payoff_prime = Payoff(1, lambda s: decorated.points[s[0]] == (3, 1), "hit-3-bit1")
        else:
            payoff_prime = Payoff(
                2,
                lambda s: decorated.points[s[0]] == (3, 1) or decorated.points[s[1]] == (5, 0),
                "decorated-pair",
            )
        result = solver.solve(
            decorated, GameKind.ASYMPTOTIC_F, top, negate(payoff_prime), Player.I
        )
        tau = reductions.unfold_asymptotic(space, _expect_winner(result, Player.I), payoff_prime)
        return solver.verify_strategy(
            space, tau, reductions.projected_payoff(payoff_prime), target="complement"
        )

    return make


def _gowers_from_asymptotic():
    space = instances.mathias_silver(8, 2, 1)
    top = instances.top_subspace(space)
    payoff = build_payoff(space, "everything", 2)
    tau = solver.verified(
        space,
        solver.strategy_from_rule(
            space, GameKind.ASYMPTOTIC_F, top, 2, Player.I,
            lambda spc, pos: Move(Player.I, subspace=top),
        ),
        payoff,
    )
    sigma = reductions.gowers_from_asymptotic(space, tau, payoff)
    return solver.verify_strategy(space, sigma, payoff, target="accepts")


def _asymptotic_from_gowers():
    space = instances.mathias_silver(6, 2, 1)
    top = instances.top_subspace(space)
    payoff = Payoff(2, lambda s: all(x >= 1 for x in s), "all-nonzero")
    sigma = _expect_winner(
        solver.solve(space, GameKind.GOWERS_G, top, payoff, Player.II), Player.II
    )
    transfer = reductions.asymptotic_from_gowers(
        space, sigma, payoff, instances.provider_for(space), Budget(10_000_000, "F-from-G")
    )
    return solver.verify_strategy(space, transfer.strategy, payoff, target="accepts")


def _lex_positive(grid):
    def accepts(seq):
        v = grid.points[seq[0]]
        return next(c for c in v if c != 0) > 0

    return accepts


def _approx_asymptotic_from_gowers():
    grid = instances.grid_sphere(2, Fraction(1, 2), 1)
    top = instances.top_subspace(grid)
    payoff = Payoff(1, _lex_positive(grid), "lex-positive")
    sigma = _expect_winner(
        solver.solve(grid, GameKind.GOWERS_G, top, payoff, Player.II), Player.II
    )
    delta = DeltaSeq.of("1/2")
    transfer = approx.approx_asymptotic_from_gowers(
        grid, sigma, payoff, delta, instances.provider_for(grid), Budget(10_000_000, "approx")
    )
    target = approx.expanded_target(grid, payoff, delta.tripled(), "accepts")
    return solver.verify_strategy(grid, transfer.strategy, target, target="accepts")


def _homogeneous():
    space = instances.mathias_silver(12, 2, 1)
    top = instances.top_subspace(space)
    payoff = Payoff(2, lambda s: s[1] >= 1, "second-nonzero")
    tau = _expect_winner(
        solver.solve(space, GameKind.ASYMPTOTIC_F, top, payoff, Player.I), Player.I
    )
    chosen = reductions.homogeneous_from_asymptotic(space, tau, payoff)
    pairs = list(combinations(chosen, 2))
    good = sum(1 for pair in pairs if payoff.accepts(pair))
    return solver.VerificationReport("exhaustive", "accepts", len(pairs), good)


def _lift(direction, kind, payoff_fn, horizon, goal, side):
    def make():
        grid = instances.grid_sphere(2, Fraction(1, 2), 1)
        top = instances.top_subspace(grid)
        payoff = Payoff(horizon, payoff_fn(grid), direction)
        delta = DeltaSeq.of(*["1/2"] * horizon)
        disc = approx.discretize(grid, range(len(grid.points)), delta)
        disc_payoff = approx.restrict_payoff(disc, payoff)
        if side == "complement":
            disc_payoff = negate(disc_payoff)
        result = solver.solve(disc, kind, top, disc_payoff, goal)
        lifted = approx.lift_strategy(
            grid, disc, _expect_winner(result, goal), direction, payoff, delta
        )
        target = approx.expanded_target(grid, payoff, delta, side)
        return solver.verify_strategy(grid, lifted, target, target="accepts")

    return make


def _corner(grid):
    corner = grid.points.index((Fraction(1), Fraction(1)))
    return lambda s: s[0] == corner


def _strong_singletons():
    ms6 = instances.mathias_silver(6, 2, 1)
    system = approx.ms_singleton_system(ms6)
    space = space_mod.with_system(ms6, system)
    top = instances.top_subspace(space)
    tail = ms6.palette.index((1, 2, 3, 4, 5))
    payoff = Payoff(2, lambda s: all(x >= 1 for x in s), "all-nonzero")
    tau = solver.verified(
        ms6,
        solver.strategy_from_rule(
            ms6, GameKind.ASYMPTOTIC_F, top, 2, Player.I,
            lambda spc, pos: Move(Player.I, subspace=tail),
        ),
        payoff,
    )
    delta = DeltaSeq.of("1/2", "1/2")
    budget = Budget(10_000_000, "strong")
    strong = approx.strong_asymptotic_from_asymptotic(space, system, tau, payoff, delta, budget)
    return approx.verify_strong_asymptotic(space, system, strong, payoff, delta, budget)


def _strong_field():
    f2 = instances.rosendal(2, 4, 1)
    system = approx.field_subspace_system(f2)
    space = space_mod.with_system(f2, system)
    top = instances.top_subspace(space)
    payoff = Payoff(1, lambda s: f2.points[s[0]][0] == 0, "coord0-zero")
    tau = _expect_winner(
        solver.solve(f2, GameKind.ASYMPTOTIC_F, top, payoff, Player.I), Player.I
    )
    delta = DeltaSeq.of("1/2")
    budget = Budget(10_000_000, "strong")
    strong = approx.strong_asymptotic_from_asymptotic(space, system, tau, payoff, delta, budget)
    return approx.verify_strong_asymptotic(space, system, strong, payoff, delta, budget)


def _transformations() -> list:
    odd = lambda space: build_payoff(space, "point_odd", 2, {"index": 1})  # noqa: E731
    first_in = lambda space: build_payoff(  # noqa: E731
        space, "first_in", 2, {"labels": [1, 2, 3, 4, 5]}
    )
    small_firsts = lambda space: Payoff(  # noqa: E731
        4, lambda s: s[0] <= 1 and s[2] <= 1, "small-firsts"
    )
    A, B, F, G = (
        GameKind.ADVERSARIAL_A, GameKind.ADVERSARIAL_B,
        GameKind.ASYMPTOTIC_F, GameKind.GOWERS_G,
    )
    makers = {
        "kastanas II hand h1": _kastanas((10, 2, 1), odd, Player.II, [1, 3, 5, 7, 9]),
        "kastanas I h1": _kastanas((6, 2, 1), first_in, Player.I),
        "kastanas I h2": _kastanas((3, 2, 1), small_firsts, Player.I),
        "kastanas II h2": _kastanas((3, 2, 1), lambda s: seeded_payoff(4, 40, 0.15), Player.II),
        "kastanas II h2-wide": _kastanas((4, 3, 1), lambda s: seeded_payoff(4, 86, 0.2), Player.II),
        "kastanas I h2-wide": _kastanas((4, 3, 1), lambda s: seeded_payoff(4, 70, 0.85), Player.I),
        "tilde A-to-F": _tilde(A, "first_in", {"labels": [3]}, Player.I, "complement"),
        "tilde B-to-G": _tilde(B, "point_even", {"index": 0}, Player.II, "accepts"),
        "unfold h1": _unfold(1),
        "unfold h2": _unfold(2),
        "gowers_from_asymptotic ms8": _gowers_from_asymptotic,
        "asymptotic_from_gowers": _asymptotic_from_gowers,
        "approx_asymptotic_from_gowers": _approx_asymptotic_from_gowers,
        "homogeneous_from_asymptotic": _homogeneous,
        "lift G-II": _lift("G-II", G, _lex_positive, 1, Player.II, "accepts"),
        "lift F-I": _lift("F-I", F, _corner, 1, Player.I, "complement"),
        "lift A-I": _lift("A-I", A, _lex_positive, 2, Player.I, "accepts"),
        "lift B-II": _lift("B-II", B, _corner, 2, Player.II, "complement"),
        "strong asymptotic singletons": _strong_singletons,
        "strong asymptotic field system": _strong_field,
    }
    return [_replayed(label, make) for label, make in makers.items()]


def prepare_scenarios(seed: int, workdir: Path) -> list:
    """Copy the bundled scenarios into the work directory, each with a
    seed derived from the run's seed."""
    bundled = Path(cli.__file__).parent / "scenarios"
    paths = []
    for name in SCENARIOS:
        data = json.loads((bundled / f"{name}.json").read_text())
        data["seed"] = derive(seed, f"scenario/{name}") % 1_000_000
        path = workdir / "scenarios" / f"{name}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(data, indent=2) + "\n")
        paths.append(path)
    return paths


def pipelines(seed: int, workdir: Path) -> list:
    out_dir = workdir / "reports"
    ops = [_scenario(path, out_dir) for path in prepare_scenarios(seed, workdir)]
    ops += [
        _dichotomy("mathias_silver", (7, 2, 1), "strategic", "point_even", {"index": 1}),
        _dichotomy("mathias_silver", (6, 2, 1), "adversarial", "increasing", {}),
        _dichotomy("rosendal", (3, 3, 1), "strategic", "first_nonzero_is", {"value": 1, "index": 1}),
    ]
    return ops + _transformations()


# -- axioms-expansion ------------------------------------------------------------------

AXIOM_CASES = (
    ("mathias_silver", (9, 2, 1), 3),
    ("mathias_silver", (10, 2, 1), 2),
    ("rosendal", (2, 4, 1), 3),
    ("rosendal", (3, 4, 1), 3),
    ("projective_rosendal", (3, 4, 1), 3),
    ("grid_sphere", (2, Fraction(1, 4), 1), 3),
)
GRID_STEP = Fraction(1, 3)
NET_RESOLUTIONS = ("1/3", "2/3", "1")


def _axioms(factory, args, horizon) -> Operation:
    label = f"axioms {factory}{args} h{horizon}"

    def run():
        space = getattr(instances, factory)(*args)
        report = space_mod.check_axioms(space, horizon, Budget(30_000_000, label))
        return {
            "summary": report.summary(),
            "checked": [report.axioms[k].checked for k in sorted(report.axioms)],
            "_space": space,
            "_report": report,
        }

    def check(out):
        return checkers.check_axioms_report(out["_space"], horizon, out["_report"])

    return Operation(label, run, check)


def symmetry(seed: int):
    """One of the eight symmetries of the square, picked by the seed."""
    code = derive(seed, "expansion/symmetry") % 8
    swap, flip0, flip1 = code & 1, code >> 1 & 1, code >> 2 & 1

    def apply(v):
        a, b = (v[1], v[0]) if swap else (v[0], v[1])
        return (-a if flip0 else a, -b if flip1 else b)

    return apply


def _expansion(seed: int) -> Operation:
    """Materialize a half-sphere payoff on pairs (first entry in the
    seeded image of the open upper half), expand it twice by half of
    delta and once by delta; the two half-expansions must nest inside
    the full one."""
    label = "expansion grid_sphere(2,1/3)"
    g = symmetry(seed)
    delta = DeltaSeq.of("2/3", "2/3")

    def half(v):
        return next(c for c in g(v) if c != 0) > 0

    def run():
        grid = instances.grid_sphere(2, GRID_STEP, 1)
        payoff = Payoff(2, lambda s: half(grid.points[s[0]]), "half-sphere")
        base = approx.materialize_payoff_set(grid, payoff)
        once = approx.expand_sequence_set(grid, base, delta.halved())
        twice = approx.expand_sequence_set(grid, once, delta.halved())
        full = approx.expand_sequence_set(grid, base, delta)
        return {
            "sizes": (len(base), len(once), len(twice), len(full)),
            "_points": grid.points,
            "_sets": (base, once, twice, full),
        }

    def check(out):
        base, once, twice, full = out["_sets"]
        coords = checkers.grid_coordinates(out["_points"], GRID_STEP)
        n = len(coords)
        want_base = frozenset(
            (x, y) for x in range(n) for y in range(n) if half(out["_points"][x])
        )
        problems = [] if base == want_base else [f"{label}: materialized set differs"]
        halved = delta.halved().values
        problems += checkers.check_expansion(f"{label} once", coords, GRID_STEP, base, halved, once)
        problems += checkers.check_expansion(f"{label} twice", coords, GRID_STEP, once, halved, twice)
        problems += checkers.check_expansion(f"{label} full", coords, GRID_STEP, base, delta.values, full)
        if not twice <= full:
            problems.append(f"{label}: {len(twice - full)} sequences of the half-expansions lie outside the full one")
        return problems

    return Operation(label, run, check)


def _net(resolution) -> Operation:
    label = f"net grid_sphere(2,1/3) at {resolution}"

    def run():
        grid = instances.grid_sphere(2, GRID_STEP, 1)
        net = approx.build_net(grid, range(len(grid.points)), resolution)
        return {"members": net.members, "_net": net, "_points": grid.points}

    def check(out):
        coords = checkers.grid_coordinates(out["_points"], GRID_STEP)
        return checkers.check_net(label, coords, GRID_STEP, range(len(coords)), out["_net"])

    return Operation(label, run, check)


def _field_system(q, d) -> Operation:
    label = f"field system rosendal({q},{d},1)"

    def run():
        system = approx.field_subspace_system(instances.rosendal(q, d, 1))
        return {"sets": len(system.family), "_system": system}

    return Operation(label, run, lambda out: checkers.check_field_system(label, q, d, out["_system"]))


def _first_coord_one(v):
    return next(c for c in v if c) == 1


def _first_equals_last(v):
    support = [c for c in v if c]
    return support[0] == support[-1]


def _scan(factory, which, min_dim, member) -> Operation:
    label = f"scan {factory}(3,4,1) {which}"

    def run():
        space = getattr(instances, factory)(3, 4, 1)
        point_set = instances.counterexample_sets(space, which)
        failures = instances.meets_both_scan(space, point_set, min_dim=min_dim)
        return {"failures": failures, "_space": space, "_set": point_set}

    def check(out):
        space = out["_space"]
        mine = frozenset(i for i, v in enumerate(space.points) if member(v))
        problems = [] if out["_set"] == mine else [f"{label}: counterexample set differs"]
        return problems + checkers.check_point_scan(
            label, space.meta["masks"], space.meta.get("dims"), mine, min_dim, out["failures"]
        )

    return Operation(label, run, check)


def axioms_expansion(seed: int, workdir: Path) -> list:
    ops = [_axioms(*case) for case in AXIOM_CASES]
    ops.append(_expansion(seed))
    ops += [_net(r) for r in NET_RESOLUTIONS]
    ops += [_field_system(2, 4), _field_system(3, 3)]
    ops += [
        _scan("rosendal", instances.FIRST_COORD_ONE, 1, _first_coord_one),
        _scan("projective_rosendal", instances.PROJECTIVE_FIRST_LAST, 2, _first_equals_last),
    ]
    return ops


WORKLOADS = {
    "deep-solve": deep_solve,
    "pipelines": pipelines,
    "axioms-expansion": axioms_expansion,
}
