"""Scenario runner: pipelines, exit codes, deterministic reports."""

import json
from importlib import resources
from pathlib import Path

import pytest

from gowerslab.cli import main, report_render, run_scenario


def scenario_path(name: str) -> Path:
    return Path(str(resources.files("gowerslab") / "scenarios" / name))


BUNDLED = [
    "ms-kastanas-h1.json",
    "f3-pigeonhole-counterexample.json",
    "ms-f-dichotomy.json",
    "rosendal-f2-gowers.json",
    "ms-strong-asymptotic.json",
]


class TestBundledScenarios:
    @pytest.mark.parametrize("name", BUNDLED)
    def test_runs_clean(self, name, tmp_path):
        outcome = run_scenario(scenario_path(name), out_dir=tmp_path)
        assert outcome.exit_code == 0
        assert outcome.report["status"] == "ok"
        assert (tmp_path / outcome.report["scenario"]).with_suffix(".json").exists()

    def test_kastanas_scenario_verifies_the_transfer(self, tmp_path):
        outcome = run_scenario(scenario_path("ms-kastanas-h1.json"), out_dir=tmp_path)
        verify = outcome.report["stages"][-1]
        assert verify["op"] == "verify"
        assert verify["verified_fraction"] == "1"

    def test_rule_and_replay_stages_report_their_nodes(self, tmp_path):
        outcome = run_scenario(scenario_path("ms-kastanas-h1.json"), out_dir=tmp_path)
        strategy, _, verify = outcome.report["stages"]
        assert strategy["op"] == "strategy" and strategy["nodes"] > 0
        assert verify["op"] == "verify" and verify["nodes"] > 0

    def test_scaled_gowers_scenario_decides_and_verifies(self, tmp_path):
        # mathias_silver(7, 2, 1) at horizon 4: counted over states, every
        # one of the 207,360,000 plays of the winner's strategy is in the
        # target.
        code = main(["run", str(scenario_path("ms7-gowers-h4.json")), "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "ms7-gowers-h4.json").read_text())
        solve_stage, verify_stage = report["stages"]
        assert solve_stage["result"]["winner"] == "II"
        assert verify_stage["result"]["plays"] == 207_360_000
        assert verify_stage["verified_fraction"] == "1"

    def test_counterexample_scenario_reports_unavailable(self, tmp_path):
        outcome = run_scenario(
            scenario_path("f3-pigeonhole-counterexample.json"), out_dir=tmp_path
        )
        check = outcome.report["stages"][-1]
        assert check["result"]["pigeonhole"] == "unavailable_everywhere"


class TestExitCodes:
    def test_validation_error_is_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"instance": {"kind": "nope"}, "game": {}}))
        assert main(["run", str(bad), "--out", str(tmp_path)]) == 2

    def test_unknown_stage_rejected(self, tmp_path):
        data = json.loads(scenario_path("ms-f-dichotomy.json").read_text())
        data["pipeline"].append({"op": "teleport"})
        bad = tmp_path / "bad-op.json"
        bad.write_text(json.dumps(data))
        assert main(["run", str(bad), "--out", str(tmp_path)]) == 2

    def test_type_mismatch_rejected(self, tmp_path):
        data = json.loads(scenario_path("ms-f-dichotomy.json").read_text())
        data["pipeline"] = [{"op": "verify"}]
        bad = tmp_path / "bad-chain.json"
        bad.write_text(json.dumps(data))
        assert main(["run", str(bad), "--out", str(tmp_path)]) == 2

    def test_budget_exhaustion_is_three(self, tmp_path):
        data = json.loads(scenario_path("ms-f-dichotomy.json").read_text())
        data["budgets"] = {"nodes": 5}
        tight = tmp_path / "tight.json"
        tight.write_text(json.dumps(data))
        code = main(["run", str(tight), "--out", str(tmp_path)])
        assert code == 3
        report = json.loads((tmp_path / "ms-f-dichotomy.json").read_text())
        assert report["status"] == "budget-exhausted"
        assert report["diagnostic"]["stage"] == 0

    def test_witness_exhaustion_is_three(self, tmp_path):
        scenario = {
            "name": "starved-meet",
            "seed": 1,
            "instance": {
                "kind": "mathias-silver",
                "universe": 8,
                "min_size": 2,
                "slack": 4,
            },
            "game": {"kind": "F", "root": "top", "horizon": 2},
            "payoff": {"name": "all_even"},
            "pipeline": [
                {
                    "op": "strategy",
                    "rule": "pass-set",
                    "owner": "I",
                    "params": {"labels": [0, 2, 4, 6]},
                },
                {"op": "reduce", "name": "gowers_from_asymptotic"},
            ],
        }
        path = tmp_path / "starved.json"
        path.write_text(json.dumps(scenario))
        code = main(["run", str(path), "--out", str(tmp_path)])
        assert code == 3
        report = json.loads((tmp_path / "starved-meet.json").read_text())
        assert "exhaustion" in report["diagnostic"]["error"]

    def test_failed_verification_is_four(self, tmp_path):
        data = json.loads(scenario_path("ms-f-dichotomy.json").read_text())
        # His solve loses toward the even target, so its strategy forces
        # the complement and an accepts-verification must fail.
        data["pipeline"] = [
            {"op": "solve", "goal": "I"},
            {"op": "verify", "target": "accepts"},
        ]
        path = tmp_path / "failing.json"
        path.write_text(json.dumps(data))
        code = main(["run", str(path), "--out", str(tmp_path)])
        assert code == 4

    def test_failed_strategy_stage_is_four(self, tmp_path):
        data = json.loads(scenario_path("ms-kastanas-h1.json").read_text())
        # The rule stays in the odd set, so it cannot force the complement;
        # the pipeline stops before the reduction sees the strategy.
        data["pipeline"][0]["target"] = "complement"
        path = tmp_path / "wrong-target.json"
        path.write_text(json.dumps(data))
        code = main(["run", str(path), "--out", str(tmp_path)])
        assert code == 4
        report = json.loads((tmp_path / "ms-kastanas-h1.json").read_text())
        assert report["status"] == "verification-failed"
        assert len(report["stages"]) == 1
        assert report["stages"][0]["verified_fraction"] == "0"
        assert report["stages"][0]["ok"] is False


def _stage(i, **fields):
    def edit(data):
        data["pipeline"][i].update(fields)

    return edit


def _game(**fields):
    def edit(data):
        data["game"].update(fields)

    return edit


def _payoff_name(data):
    data["payoff"]["name"] = "no-such-payoff"


def _no_labels(data):
    data["pipeline"][0]["params"] = {}


def _payoff_which(data):
    data["payoff"]["params"]["which"] = "Nope"


def _top(**fields):
    def edit(data):
        data.update(fields)

    return edit


def _no_universe(data):
    del data["instance"]["universe"]


def _universe_x(data):
    data["instance"]["universe"] = "x"


def _sampled_trials_x(data):
    data["pipeline"].append({"op": "verify", "mode": "sampled", "trials": "x"})


def _system_table_out_of_range(data):
    data["instance"]["system"] = {"family": [[0]], "table": [[0, 0, 5]]}


# Malformed copies of bundled scenarios: (label, scenario, edit).
MALFORMED = [
    ("unknown-rule", "ms-kastanas-h1.json", _stage(0, rule="no-such-rule")),
    ("unknown-payoff", "ms-f-dichotomy.json", _payoff_name),
    ("goal-III", "ms-f-dichotomy.json", _stage(0, goal="III")),
    ("owner-III", "ms-kastanas-h1.json", _stage(0, owner="III")),
    ("stage-kind-Z", "ms-f-dichotomy.json", _stage(0, kind="Z")),
    ("flavor-weird", "ms-f-dichotomy.json", _stage(1, flavor="weird")),
    ("kastanas-horizon-3", "ms-kastanas-h1.json", _game(horizon=3)),
    ("root-outside-the-palette", "ms-f-dichotomy.json", _game(root=999)),
    ("stage-kind-odd-horizon", "ms-f-dichotomy.json", _stage(0, kind="A")),
    ("adversarial-dichotomy-odd-horizon", "ms-f-dichotomy.json", _stage(1, flavor="adversarial")),
    ("stay-in-set-without-labels", "ms-kastanas-h1.json", _no_labels),
    ("verify-mode-misspelled", "ms-kastanas-h1.json", _stage(2, mode="exhastive")),
    ("verify-target-misspelled", "ms-kastanas-h1.json", _stage(2, target="acepts")),
    ("strategy-target-misspelled", "ms-kastanas-h1.json", _stage(0, target="acepts")),
    ("counterexample-unknown", "f3-pigeonhole-counterexample.json", _stage(0, which="Nope")),
    ("strong-game-without-system", "ms-f-dichotomy.json", _stage(0, kind="SF")),
    ("payoff-counterexample-unknown", "f3-pigeonhole-counterexample.json", _payoff_which),
    ("budgets-list", "ms-f-dichotomy.json", _top(budgets=[])),
    ("instance-list", "ms-f-dichotomy.json", _top(instance=[])),
    ("stage-list", "ms-f-dichotomy.json", _top(pipeline=[[1]])),
    ("instance-without-universe", "ms-f-dichotomy.json", _no_universe),
    ("universe-x", "ms-f-dichotomy.json", _universe_x),
    ("first-in-without-labels", "ms-f-dichotomy.json", _top(payoff={"name": "first_in"})),
    ("sampled-trials-x", "ms-f-dichotomy.json", _sampled_trials_x),
    ("labels-not-a-list", "ms-kastanas-h1.json", _stage(0, params={"labels": 5})),
    ("system-table-out-of-range", "ms-kastanas-h1.json", _system_table_out_of_range),
    (
        "grid-step-zero",
        "ms-f-dichotomy.json",
        _top(instance={"kind": "grid-sphere", "step": "0"}),
    ),
]


class TestMalformedScenarios:
    @pytest.mark.parametrize(
        "name,edit", [case[1:] for case in MALFORMED], ids=[case[0] for case in MALFORMED]
    )
    def test_exits_two_without_traceback(self, name, edit, tmp_path, capsys):
        data = json.loads(scenario_path(name).read_text())
        edit(data)
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(data))
        assert main(["run", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("validation error:") and "Traceback" not in err


class TestDeterminism:
    @pytest.mark.parametrize("name", BUNDLED)
    def test_byte_identical_reruns(self, name, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        run_scenario(scenario_path(name), out_dir=first)
        run_scenario(scenario_path(name), out_dir=second)
        stem = json.loads(scenario_path(name).read_text())["name"]
        assert (first / f"{stem}.json").read_bytes() == (
            second / f"{stem}.json"
        ).read_bytes()


class TestRendering:
    def test_header_only_for_empty_pipeline(self):
        text = report_render({"stages": [], "status": "ok"}, "table")
        lines = text.splitlines()
        assert lines[0].strip().startswith("stage")
        assert lines[-1] == "status: ok"
        assert len(lines) == 3

    def test_one_row_per_stage(self, tmp_path):
        outcome = run_scenario(scenario_path("ms-f-dichotomy.json"), out_dir=tmp_path)
        text = report_render(outcome.report, "table")
        body = [l for l in text.splitlines()[2:] if not l.startswith("status")]
        assert len(body) == len(outcome.report["stages"])

    def test_dichotomy_rows_cover_every_subspace(self, tmp_path):
        outcome = run_scenario(scenario_path("ms-f-dichotomy.json"), out_dir=tmp_path)
        dichotomy = outcome.report["stages"][-1]["result"]
        assert len(dichotomy["rows"]) == dichotomy["subspaces"]


class TestSubcommands:
    def test_axioms_command(self, tmp_path, capsys):
        instance = tmp_path / "ms.json"
        instance.write_text(
            json.dumps({"kind": "mathias-silver", "universe": 5, "min_size": 2})
        )
        assert main(["axioms", str(instance), "--horizon", "2"]) == 0
        out = capsys.readouterr().out
        assert "all: pass" in out

    @pytest.mark.parametrize(
        "instance,code",
        [
            (None, 2),
            ({"kind": "mathias-silver"}, 2),
            ({"kind": "grid-sphere", "step": "0"}, 2),
            ([{"kind": "mathias-silver", "universe": 5}], 2),
            ({"kind": "mathias-silver", "universe": 12}, 3),
        ],
        ids=["missing-file", "no-universe", "step-zero", "top-level-list", "exhausted"],
    )
    def test_axioms_exit_codes(self, instance, code, tmp_path, capsys):
        path = tmp_path / "instance.json"
        if instance is not None:
            path.write_text(json.dumps(instance))
        assert main(["axioms", str(path), "--horizon", "2"]) == code
        err = capsys.readouterr().err
        assert err.startswith("validation error:" if code == 2 else "error:")

    def test_solve_subcommand_filters_pipeline(self, tmp_path, capsys):
        code = main(
            ["solve", str(scenario_path("ms-f-dichotomy.json")), "--out", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "dichotomy" not in out


class TestStrategyFiles:
    def test_round_trip_preserves_table(self, tmp_path):
        import json

        from gowerslab import GameKind, Player, Strategy, build_payoff, solve, verify_strategy
        from gowerslab.instances import mathias_silver, top_subspace

        ms = mathias_silver(5, 2, 1)
        top = top_subspace(ms)
        payoff = build_payoff(ms, "everything", 2)
        strat = solve(ms, GameKind.GOWERS_G, top, payoff, Player.II).strategy
        blob = json.dumps(strat.to_json())
        again = Strategy.from_json(json.loads(blob))
        assert again.table == strat.table
        assert verify_strategy(ms, again, payoff).passed

    def test_history_table_file_keeps_its_format(self):
        import json

        from gowerslab import GameKind, Player, Strategy, strategy_from_rule, verify_strategy
        from gowerslab.games import legal_moves
        from gowerslab.instances import mathias_silver, top_subspace
        from gowerslab.payoffs import build_payoff

        ms = mathias_silver(5, 2, 1)
        top = top_subspace(ms)
        payoff = build_payoff(ms, "everything", 2)
        first = lambda spc, pos: legal_moves(spc, pos)[0]  # noqa: E731
        strat = strategy_from_rule(ms, GameKind.GOWERS_G, top, 2, Player.II, first)
        data = strat.to_json()
        assert "positional" not in data and all("pos" in e for e in data["entries"])
        again = Strategy.from_json(json.loads(json.dumps(data)))
        assert not again.positional and again.table == strat.table
        assert verify_strategy(ms, again, payoff).plays == verify_strategy(ms, strat, payoff).plays

    def test_solved_table_file_is_marked_positional(self):
        from gowerslab import GameKind, Player, build_payoff, solve
        from gowerslab.instances import mathias_silver, top_subspace

        ms = mathias_silver(5, 2, 1)
        payoff = build_payoff(ms, "everything", 2)
        strat = solve(ms, GameKind.GOWERS_G, top_subspace(ms), payoff, Player.II).strategy
        data = strat.to_json()
        assert data["positional"] is True
        assert all("state" in e and "pos" not in e for e in data["entries"])

    def test_save_flag_writes_strategy_file(self, tmp_path):
        import json

        data = json.loads(scenario_path("ms-kastanas-h1.json").read_text())
        data["pipeline"][0]["save"] = True
        path = tmp_path / "saving.json"
        path.write_text(json.dumps(data))
        outcome = run_scenario(path, out_dir=tmp_path)
        assert outcome.exit_code == 0
        name = outcome.report["stages"][0]["result"]["strategy_file"]
        saved = json.loads((tmp_path / name).read_text())
        assert saved["owner"] == "II" and saved["entries"]


class TestTimeBudget:
    def test_time_cap_halts_between_stages(self, tmp_path):
        import json

        data = json.loads(scenario_path("ms-f-dichotomy.json").read_text())
        data["budgets"] = {"nodes": 5000000, "seconds": 0.0000001}
        path = tmp_path / "timed.json"
        path.write_text(json.dumps(data))
        code = main(["run", str(path), "--out", str(tmp_path)])
        assert code == 3
        report = json.loads((tmp_path / "ms-f-dichotomy.json").read_text())
        assert report["diagnostic"]["error"] == "time budget exhausted"


class TestSystemDescriptions:
    def test_named_system_reaches_the_strong_game(self, tmp_path):
        outcome = run_scenario(
            scenario_path("ms-strong-asymptotic.json"), out_dir=tmp_path
        )
        assert outcome.exit_code == 0
        assert outcome.report["game"]["kind"] == "SF"

    def test_field_system_over_f3_d4(self, tmp_path):
        data = json.loads(scenario_path("f3-pigeonhole-counterexample.json").read_text())
        data["instance"]["system"] = "field-subspaces"
        path = tmp_path / "f3-field-system.json"
        path.write_text(json.dumps(data))
        assert main(["run", str(path), "--out", str(tmp_path)]) == 0

    def test_explicit_sum_table(self):
        from gowerslab.instances import InstanceSpec, build_instance

        spec = InstanceSpec.from_json(
            {
                "kind": "mathias-silver",
                "universe": 4,
                "min_size": 2,
                "slack": 1,
                "system": {
                    "family": [[0], [1], [2], [3]],
                    "table": [
                        [i, j, max(i, j)] for i in range(4) for j in range(4)
                    ],
                },
            }
        )
        space = build_instance(spec)
        space.system.validate(space)
        assert len(space.system.family) == 4


class TestOutputDir:
    def test_env_var_default(self, tmp_path, monkeypatch, capsys):
        import os

        monkeypatch.setenv("GOWERSLAB_OUT", str(tmp_path / "envout"))
        code = main(["run", str(scenario_path("ms-f-dichotomy.json"))])
        assert code == 0
        assert (tmp_path / "envout" / "ms-f-dichotomy.json").exists()


class TestTranscripts:
    def test_reduce_stage_reports_a_replayable_transcript(self, tmp_path):
        import json

        from gowerslab import GameKind, Move, Player
        from gowerslab.games import replay
        from gowerslab.instances import build_instance, InstanceSpec

        outcome = run_scenario(scenario_path("ms-kastanas-h1.json"), out_dir=tmp_path)
        stage = outcome.report["stages"][1]
        transcript = stage["result"]["transcript"]
        assert transcript["rounds"]
        # Every recorded fictive probe extends the nested game legally
        # from the strategy's own opening.
        space = build_instance(
            InstanceSpec.from_json(
                json.loads(scenario_path("ms-kastanas-h1.json").read_text())["instance"]
            )
        )
        root = outcome.report["game"]["root"]
        opening = Move(Player.II, subspace=transcript["diagonal_chain"][0])
        for record in transcript["rounds"]:
            player, point, subspace, block = record["fictive_probe"]
            probe = Move(Player(player), point=point, subspace=subspace, block=block)
            replay(space, GameKind.KASTANAS, root, 2, [opening, probe])


class TestGridInstanceFiles:
    def test_grid_spec_round_trip(self):
        from gowerslab.instances import build_instance, InstanceSpec

        spec = InstanceSpec.from_json(
            {"kind": "grid-sphere", "dimension": 2, "step": "1/4", "slack": 1}
        )
        space = build_instance(spec)
        assert space.metric is not None and len(space.points) == 32
