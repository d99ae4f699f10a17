"""Batch experiment runner.

A scenario file names an instance, a game, a payoff, and a pipeline of
stages (strategy construction, solving, reductions, verification,
dichotomy experiments, pigeonhole checks, counterexample sets).  Runs
are deterministic: all randomness flows from the scenario seed through
named splits, reports contain no timestamps, and rationals are rendered
exactly, so the same scenario and seed produce byte-identical reports.

Exit codes: 0 all declared verifications passed, 2 validation error,
3 budget or witness exhaustion, 4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from .errors import (
    Budget,
    ExhaustionBudget,
    FiniteExhaustion,
    GowersLabError,
    PigeonholeUnavailable,
    SpecInvalid,
)
from .games import GameKind, Move, Player, initial_position, legal_moves
from .instances import (
    COUNTEREXAMPLES,
    InstanceSpec,
    build_instance,
    counterexample_sets,
    meets_both_scan,
    provider_for,
    subspace_of_labels,
    top_subspace,
)
from .payoffs import REGISTRY as PAYOFFS, Payoff, build_payoff, seeded_payoff
from .reductions import (
    DICHOTOMY_GAMES,
    adversarial_from_kastanas,
    asymptotic_from_gowers,
    check_ramsey_dichotomy,
    gowers_from_asymptotic,
    homogeneous_from_asymptotic,
)
from .solver import VERIFY_MODES, VERIFY_TARGETS, solve, strategy_from_rule, verify_strategy
from .space import check_axioms
from .util import canonical_json, fraction_str, split_seed

STAGE_KINDS = {
    "strategy",
    "solve",
    "reduce",
    "verify",
    "dichotomy",
    "pigeonhole-check",
    "counterexample",
}

REDUCTIONS_IN_STRATEGY = {
    "adversarial_from_kastanas",
    "gowers_from_asymptotic",
    "asymptotic_from_gowers",
    "homogeneous_from_asymptotic",
}


# -- hand strategy rules -------------------------------------------------------------

RULES: dict = {}


def rule(name):
    def deco(fn):
        RULES[name] = fn
        return fn

    return deco


@rule("first-legal")
def _first_legal(space, params):
    def play(spc, pos):
        return legal_moves(spc, pos)[0]

    return play


@rule("pass-set")
def _pass_set(space, params):
    """First-player chooser-game rule: constantly play the subspace whose
    points are exactly the given labels."""
    target = subspace_of_labels(space, params["labels"])

    def play(spc, pos):
        return Move(Player.I, subspace=target)

    return play


@rule("stay-in-set")
def _stay_in_set(space, params):
    """Second-player nested-game rule: open with the largest palette
    subspace inside the set, answer with its least admitted point, and
    keep passing down the part of the current subspace inside the set."""
    wanted = {tuple(v) if isinstance(v, list) else v for v in params["labels"]}
    inside = frozenset(
        i for i, lab in enumerate(space.points) if lab in wanted
    )

    def subspace_inside(pool):
        # Largest palette subspace inside the set (ties: canonical order),
        # i.e. the intersection with the set when the palette has it.
        best = None
        best_size = 0
        for q in pool:
            pts = space.admitted_points((), q)
            if pts and len(pts) > best_size and all(x in inside for x in pts):
                best, best_size = q, len(pts)
        return best

    def play(spc, pos):
        if not pos.moves:
            q = subspace_inside(spc.below(pos.root))
            if q is None:
                raise SpecInvalid("no palette subspace inside the set")
            return Move(Player.II, subspace=q)
        constraint = pos.moves[-1].subspace
        admitted = spc.admitted_points(pos.point_prefix, constraint)
        pick = next((x for x in admitted if x in inside), None)
        if pick is None:
            raise SpecInvalid("set-bound rule has no admitted point in the set")
        if len(pos.moves) == pos.horizon:
            return Move(Player.II, point=pick)
        down = subspace_inside(spc.below(constraint))
        if down is None:
            raise SpecInvalid("set-bound rule has no subspace to pass down")
        return Move(Player.II, point=pick, subspace=down)

    return play


# -- scenario ---------------------------------------------------------------------------


@dataclass
class Scenario:
    name: str
    seed: int
    instance: InstanceSpec
    game_kind: GameKind
    root_spec: object
    horizon: int
    payoff_name: str
    payoff_params: dict
    pipeline: list
    budget_nodes: int = 5_000_000
    budget_seconds: float = 0.0

    @staticmethod
    def from_json(data: dict) -> "Scenario":
        with _validating("scenario"):
            instance = InstanceSpec.from_json(data["instance"])
            game = data["game"]
            kind = GameKind(game["kind"])
            horizon = int(game["horizon"])
            has_system = instance.params.get("system") is not None
            _check_game(kind, horizon, has_system)
            payoff = data.get("payoff", {"name": "everything"})
            if payoff["name"] not in PAYOFFS:
                raise SpecInvalid(f"unknown payoff {payoff['name']!r}")
            if payoff["name"] == "in_counterexample":
                which = payoff.get("params", {}).get("which")
                if which not in COUNTEREXAMPLES:
                    raise SpecInvalid(f"payoff: unknown counterexample {which!r}")
            pipeline = data.get("pipeline", [])
            _check_pipeline(pipeline, horizon, has_system)
            return Scenario(
                name=data.get("name", "scenario"),
                seed=int(data.get("seed", 0)),
                instance=instance,
                game_kind=kind,
                root_spec=game.get("root", "top"),
                horizon=horizon,
                payoff_name=payoff["name"],
                payoff_params=payoff.get("params", {}),
                pipeline=pipeline,
                budget_nodes=int(
                    data.get("budgets", {}).get("nodes", 5_000_000)
                ),
                budget_seconds=float(
                    data.get("budgets", {}).get("seconds", 0.0)
                ),
            )


@contextmanager
def _validating(what: str):
    """Malformed input read inside the block (a missing field, a value of
    the wrong type or shape, a zero denominator) raises SpecInvalid,
    exit 2, not a traceback."""
    try:
        yield
    except (LookupError, ValueError, TypeError, AttributeError, ZeroDivisionError) as exc:
        detail = f"{type(exc).__name__}: {exc}"
        raise SpecInvalid(f"{what} does not validate: {detail}") from exc


# The stage fields that name something, and the names each may take.
STAGE_NAMES = {
    "goal": {p.value for p in Player},
    "owner": {p.value for p in Player},
    "kind": {k.value for k in GameKind},
    "flavor": DICHOTOMY_GAMES,
    "mode": VERIFY_MODES,
    "target": VERIFY_TARGETS,
}


def _check_game(kind, horizon, has_system) -> None:
    """The game takes the horizon (ValueError otherwise), and the strong
    asymptotic game is played on an instance with a system."""
    initial_position(kind, 0, horizon)
    if kind is GameKind.STRONG_ASYMPTOTIC_SF and not has_system:
        raise SpecInvalid("the strong asymptotic game needs an instance with a system")


def _check_pipeline(pipeline, horizon, has_system) -> None:
    """Each stage's named fields are known, every game it plays besides
    the scenario's own passes ``_check_game``, and it is fed the
    artifact kind it consumes."""
    current = None
    for i, stage in enumerate(pipeline):
        op = stage.get("op")
        if op not in STAGE_KINDS:
            raise SpecInvalid(f"unknown pipeline op {op!r}")
        if op == "strategy" and stage.get("rule") not in RULES:
            raise SpecInvalid(f"stage {i}: unknown rule {stage.get('rule')!r}")
        which = stage.get("which")
        if op in ("counterexample", "pigeonhole-check") and which not in COUNTEREXAMPLES:
            raise SpecInvalid(f"stage {i}: unknown counterexample {which!r}")
        for name, known in STAGE_NAMES.items():
            if name in stage and stage[name] not in known:
                raise SpecInvalid(f"stage {i}: unknown {name} {stage[name]!r}")
        if not isinstance(stage.get("trials", 0), int):
            raise SpecInvalid(f"stage {i}: trials must be an integer")
        games = [GameKind(stage["kind"])] if "kind" in stage else []
        if op == "dichotomy":
            games += DICHOTOMY_GAMES[stage.get("flavor", "strategic")]
        for game in games:
            _check_game(game, horizon, has_system)
        if op in ("strategy", "solve"):
            current = "strategy"
        elif op == "reduce":
            name = stage.get("name")
            if name not in REDUCTIONS_IN_STRATEGY:
                raise SpecInvalid(f"unknown reduction {name!r}")
            if current != "strategy":
                raise SpecInvalid(f"stage {i}: reduce needs a strategy upstream")
            current = "set" if name == "homogeneous_from_asymptotic" else "strategy"
        elif op == "verify":
            if current != "strategy":
                raise SpecInvalid(f"stage {i}: verify needs a strategy upstream")


# -- stage execution -----------------------------------------------------------------------


@dataclass
class StageResult:
    op: str
    result: dict
    nodes: int = 0
    exhausted: bool = False
    verified_fraction: object = None
    ok: bool = True


@dataclass
class RunOutcome:
    exit_code: int
    report: dict
    scenario: Scenario


def _resolve_root(space, root_spec) -> int:
    if root_spec == "top" or root_spec is None:
        return top_subspace(space)
    if isinstance(root_spec, int) and 0 <= root_spec < len(space.palette):
        return root_spec
    if isinstance(root_spec, list):
        return subspace_of_labels(space, root_spec)
    raise SpecInvalid(f"cannot resolve game root {root_spec!r}")


def _build_payoff(space, scenario: Scenario) -> Payoff:
    if scenario.payoff_name == "seeded":
        params = dict(scenario.payoff_params)
        params.setdefault("seed", split_seed(scenario.seed, "payoff"))
        return seeded_payoff(
            scenario.horizon, params["seed"], params.get("density", 0.5)
        )
    return build_payoff(
        space, scenario.payoff_name, scenario.horizon, scenario.payoff_params
    )


def run_scenario(path, out_dir=None, budget_nodes=None) -> RunOutcome:
    return _run_parsed(json.loads(Path(path).read_text()), out_dir, budget_nodes)


def _run_parsed(data: dict, out_dir=None, budget_nodes=None) -> RunOutcome:
    scenario = Scenario.from_json(data)
    if budget_nodes is not None:
        scenario.budget_nodes = budget_nodes
    with _validating("scenario"):
        space = build_instance(scenario.instance)
        root = _resolve_root(space, scenario.root_spec)
        payoff = _build_payoff(space, scenario)
    if payoff.horizon != scenario.horizon:
        raise SpecInvalid("payoff and game horizons disagree")

    stages: list[StageResult] = []
    current = None  # the strategy artifact being threaded through
    status = "ok"
    diagnostic = None
    exit_code = 0
    budget = Budget(scenario.budget_nodes, "scenario")
    deadline = (
        time.monotonic() + scenario.budget_seconds
        if scenario.budget_seconds
        else None
    )

    for i, stage in enumerate(scenario.pipeline):
        op = stage["op"]
        if deadline is not None and time.monotonic() > deadline:
            status = "budget-exhausted"
            diagnostic = {"stage": i, "op": op, "error": "time budget exhausted"}
            stages.append(
                StageResult(op, {"error": "time budget exhausted"}, exhausted=True, ok=False)
            )
            exit_code = 3
            break
        before = budget.used
        try:
            result = _run_stage(
                space, scenario, root, payoff, stage, current, i, budget
            )
        except (FiniteExhaustion, ExhaustionBudget) as exc:
            status = "budget-exhausted"
            diagnostic = {"stage": i, "op": op, "error": str(exc)}
            stages.append(StageResult(op, {"error": str(exc)}, exhausted=True, ok=False))
            exit_code = 3
            break
        result.stage.nodes = max(result.stage.nodes, budget.used - before)
        stages.append(result.stage)
        if result.artifact is not None:
            current = result.artifact
            if stage.get("save") and out_dir is not None:
                out = Path(out_dir)
                out.mkdir(parents=True, exist_ok=True)
                name = f"{scenario.name}-stage{i}-strategy.json"
                (out / name).write_text(
                    canonical_json(current.to_json()) + "\n"
                )
                result.stage.result["strategy_file"] = name
        if not result.stage.ok:
            status = "verification-failed"
            diagnostic = {"stage": i, "op": op, "error": "declared verification failed"}
            exit_code = 4
            if op == "strategy":
                # Every later stage would consume the unverified strategy.
                break

    report = {
        "scenario": scenario.name,
        "seed": scenario.seed,
        "instance": space.name,
        "game": {
            "kind": scenario.game_kind.value,
            "root": root,
            "horizon": scenario.horizon,
        },
        "payoff": payoff.name,
        "stages": [
            {
                "stage": n,
                "op": s.op,
                "result": s.result,
                "nodes": s.nodes,
                "exhausted": s.exhausted,
                "verified_fraction": s.verified_fraction,
                "ok": s.ok,
            }
            for n, s in enumerate(stages)
        ],
        "status": status,
        "diagnostic": diagnostic,
    }
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{scenario.name}.json").write_text(canonical_json(report) + "\n")
        (out / f"{scenario.name}.txt").write_text(report_render(report, "table") + "\n")
    return RunOutcome(exit_code, report, scenario)


@dataclass
class _StageOutcome:
    stage: StageResult
    artifact: object = None


def _run_stage(
    space, scenario, root, payoff, stage, current, index, budget
) -> _StageOutcome:
    op = stage["op"]
    kind = GameKind(stage.get("kind", scenario.game_kind.value))

    if op == "strategy":
        with _validating(f"rule {stage['rule']!r}"):
            builder = RULES[stage["rule"]](space, stage.get("params", {}))
        owner = Player(stage.get("owner", "II"))
        strat = strategy_from_rule(
            space, kind, root, scenario.horizon, owner, builder, stage["rule"], budget
        )
        target = stage.get("target", "accepts")
        report = verify_strategy(space, strat, payoff, target=target, budget=budget)
        strat.verified = report.passed
        return _StageOutcome(
            StageResult(
                op,
                {"rule": stage["rule"], "entries": len(strat.table), "target": target},
                verified_fraction=fraction_str(report.fraction_target),
                ok=report.passed,
            ),
            strat,
        )

    if op == "solve":
        goal = Player(stage.get("goal", "I"))
        outcome = solve(space, kind, root, payoff, goal, budget)
        return _StageOutcome(
            StageResult(
                op,
                {
                    "goal": goal.value,
                    "winner": outcome.winner.value,
                    "entries": len(outcome.strategy.table),
                },
                nodes=outcome.nodes_expanded,
            ),
            outcome.strategy,
        )

    if op == "reduce":
        name = stage["name"]
        if name == "adversarial_from_kastanas":
            owner = Player(stage.get("owner", current.owner.value))
            transfer = adversarial_from_kastanas(space, current, owner, payoff, budget)
            result = {
                "name": name,
                "q": transfer.q,
                "entries": len(transfer.strategy.table),
                "diagonal_chain": transfer.diagonal_chain,
            }
            result["transcript"] = transfer.transcript()
            return _StageOutcome(StageResult(op, result), transfer.strategy)
        if name == "gowers_from_asymptotic":
            out = gowers_from_asymptotic(space, current, payoff)
            return _StageOutcome(
                StageResult(op, {"name": name, "entries": len(out.table)}), out
            )
        if name == "asymptotic_from_gowers":
            transfer = asymptotic_from_gowers(
                space, current, payoff, provider_for(space), budget
            )
            return _StageOutcome(
                StageResult(
                    op,
                    {"name": name, "q": transfer.q, "entries": len(transfer.strategy.table)},
                ),
                transfer.strategy,
            )
        if name == "homogeneous_from_asymptotic":
            homogeneous = homogeneous_from_asymptotic(space, current, payoff)
            from itertools import combinations

            subseqs = list(combinations(homogeneous, payoff.horizon))
            good = sum(1 for s in subseqs if payoff.accepts(s))
            ok = good == len(subseqs)
            return _StageOutcome(
                StageResult(
                    op,
                    {
                        "name": name,
                        "set": [space.points[i] for i in homogeneous],
                        "subsequences": len(subseqs),
                    },
                    verified_fraction=f"{good}/{len(subseqs)}" if subseqs else "1",
                    ok=ok,
                )
            )
        raise SpecInvalid(f"unknown reduction {name!r}")

    if op == "verify":
        target = stage.get("target", "accepts")
        mode = stage.get("mode", "exhaustive")
        report = verify_strategy(
            space,
            current,
            payoff,
            mode=mode,
            target=target,
            seed=split_seed(scenario.seed, f"verify-{index}"),
            trials=stage.get("trials", 100),
            budget=budget,
        )
        return _StageOutcome(
            StageResult(
                op,
                {"target": target, "mode": mode, "plays": report.plays},
                verified_fraction=fraction_str(report.fraction_target),
                ok=report.passed,
            ),
            current,
        )

    if op == "dichotomy":
        flavor = stage.get("flavor", "strategic")
        report = check_ramsey_dichotomy(space, payoff, root, flavor, budget)
        return _StageOutcome(
            StageResult(
                op,
                {
                    "flavor": flavor,
                    "subspaces": len(report.entries),
                    "realized_at": report.realized_at,
                    "rows": [
                        [e.q, e.first_side, e.second_side] for e in report.entries
                    ],
                },
                ok=True,
            )
        )

    if op == "pigeonhole-check":
        provider = provider_for(space)
        point_set = counterexample_sets(space, stage["which"])
        expect = stage.get("expect")
        try:
            q, side = provider.decide(
                space, (), point_set, root, stage.get("delta")
            )
            result = {"pigeonhole": side, "q": q}
            ok = expect in (None, "available")
        except PigeonholeUnavailable as exc:
            result = {
                "pigeonhole": "unavailable_everywhere",
                "witness": list(exc.witness) if exc.witness else None,
            }
            ok = expect in (None, "unavailable")
        return _StageOutcome(StageResult(op, result, ok=ok))

    if op == "counterexample":
        which = stage["which"]
        target = counterexample_sets(space, which)
        result: dict = {"which": which}
        if isinstance(target, Payoff):
            result["payoff"] = target.name
        else:
            result["size"] = len(target)
            if stage.get("scan"):
                failures = meets_both_scan(
                    space, target, min_dim=stage.get("min_dim", 1)
                )
                result["meets_both_failures"] = failures
                return _StageOutcome(
                    StageResult(op, result, ok=not failures)
                )
        return _StageOutcome(StageResult(op, result))

    raise SpecInvalid(f"unknown pipeline op {op!r}")


# -- rendering -------------------------------------------------------------------------------


def report_render(report: dict, fmt: str = "json") -> str:
    if fmt == "json":
        return canonical_json(report)
    header = f"{'stage':>5}  {'op':<18} {'result':<40} {'nodes':>9} {'exhausted':>9} {'verified':>10}"
    lines = [header, "-" * len(header)]
    for row in report.get("stages", []):
        summary = json.dumps(row["result"], sort_keys=True, default=str)
        if len(summary) > 40:
            summary = summary[:37] + "..."
        lines.append(
            f"{row['stage']:>5}  {row['op']:<18} {summary:<40} "
            f"{row['nodes']:>9} {str(row['exhausted']):>9} "
            f"{str(row['verified_fraction']):>10}"
        )
    lines.append(f"status: {report.get('status')}")
    return "\n".join(lines)


# -- entry point -----------------------------------------------------------------------------


def _default_out() -> str:
    return os.environ.get("GOWERSLAB_OUT", "reports")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gowerslab",
        description="finite-horizon game laboratory for Gowers-style spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario pipeline")
    run_p.add_argument("scenario")
    run_p.add_argument("--out", default=None)
    run_p.add_argument("--budget-nodes", type=int, default=None)
    run_p.add_argument("--format", choices=("json", "table"), default="table")

    ax_p = sub.add_parser("axioms", help="check the space axioms of an instance")
    ax_p.add_argument("instance")
    ax_p.add_argument("--horizon", type=int, default=2)
    ax_p.add_argument("--format", choices=("json", "table"), default="table")

    for name in ("solve", "reduce", "dichotomy"):
        p = sub.add_parser(name, help=f"run only the scenario's {name} stage(s)")
        p.add_argument("scenario")
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("json", "table"), default="table")

    args = parser.parse_args(argv)

    try:
        if args.command == "axioms":
            return _axioms_command(args)
        if args.command == "run":
            outcome = run_scenario(
                args.scenario,
                out_dir=args.out or _default_out(),
                budget_nodes=args.budget_nodes,
            )
        else:
            outcome = _run_single_stage_command(args)
    except (SpecInvalid, json.JSONDecodeError, FileNotFoundError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except GowersLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    print(report_render(outcome.report, args.format))
    return outcome.exit_code


def _axioms_command(args) -> int:
    data = json.loads(Path(args.instance).read_text())
    with _validating("instance"):
        space = build_instance(InstanceSpec.from_json(data))
    report = check_axioms(space, args.horizon)
    payload = {
        "instance": space.name,
        "horizon": args.horizon,
        "axioms": {
            name: {
                "passed": c.passed,
                "checked": c.checked,
                "counterexample": repr(c.counterexample)
                if c.counterexample
                else None,
            }
            for name, c in report.axioms.items()
        },
        "all_pass": report.all_pass,
    }
    if args.format == "json":
        print(canonical_json(payload))
    else:
        for name in sorted(payload["axioms"]):
            entry = payload["axioms"][name]
            print(
                f"{name}: {'pass' if entry['passed'] else 'FAIL'} "
                f"({entry['checked']} checks)"
            )
        print(f"all: {'pass' if report.all_pass else 'FAIL'}")
    return 0 if report.all_pass else 4


def _run_single_stage_command(args) -> RunOutcome:
    data = json.loads(Path(args.scenario).read_text())
    wanted = {"solve": ("solve",), "reduce": ("strategy", "solve", "reduce"), "dichotomy": ("dichotomy",)}[
        args.command
    ]
    with _validating("scenario"):
        data["pipeline"] = [s for s in data.get("pipeline", []) if s.get("op") in wanted]
    return _run_parsed(data, out_dir=args.out or _default_out())


if __name__ == "__main__":
    sys.exit(main())
