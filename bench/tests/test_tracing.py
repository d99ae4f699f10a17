"""The tracer counts and times calls from outside and leaves the program
as it found it."""

import gowerslab
import tracing
from gowerslab import GameKind, Player, games, instances, seeded_payoff, solver
from gowerslab.space import SpaceInstance


def _tiny_pass():
    space = instances.mathias_silver(4, 2, 1)
    payoff = seeded_payoff(2, 5, 0.6)
    root = instances.top_subspace(space)
    result = solver.solve(space, GameKind.GOWERS_G, root, payoff, Player.II)
    target = "accepts" if result.winner is Player.II else "complement"
    return solver.verify_strategy(space, result.strategy, payoff, target=target)


def test_counts_repeat_and_originals_come_back():
    originals = (solver.solve, gowerslab.solve, solver.legal_moves, SpaceInstance.__init__)
    tracer = tracing.Tracer()
    counts = []
    for pass_id in (0, 1):
        tracer.install(pass_id)
        try:
            report = _tiny_pass()
        finally:
            tracer.uninstall()
        counts.append(tracer.take_counts(pass_id))
    assert counts[0] == counts[1]
    assert counts[0]["solver.verify_plays"] == report.plays > 0
    for name in ("solver.solve_nodes", "games.legal_moves_calls", "games.positions",
                 "payoffs.accepts_calls", "space.admits_calls", "space.leq_calls"):
        assert counts[0][name] > 0, name
    assert (solver.solve, gowerslab.solve, solver.legal_moves, SpaceInstance.__init__) == originals
    assert games.legal_moves is solver.legal_moves


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    tracer.install(0)
    try:
        _tiny_pass()
    finally:
        tracer.uninstall()
    spans = tracer.spans
    build = [s for s in spans if s[0] == "instances.build"]
    solve = [s for s in spans if s[0] == "solver.solve"]
    assert len(build) == 1 and len(solve) == 1
    times = tracer.self_times(0)
    total = sum(end - start for name, start, end, parent, pid in spans if parent is None)
    assert abs(sum(times.values()) - total) < 1e-9


def test_metric_names_match_the_benchmark_file():
    import json
    from pathlib import Path

    spec = json.loads((Path(tracing.__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    reported = {name: "calib" for name in tracing.SELF_TIMES}
    reported.update({name: tracing.UNITS.get(name, "count") for name in tracing.COUNTS})
    reported.update({"trace.pass_norm": "calib", "trace.overhead_norm": "calib"})
    assert reported == declared
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "pass_norm", "peak_rss_mb"]
