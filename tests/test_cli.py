"""Scenario runner: pipelines, exit codes, deterministic reports."""

import json
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gowerslab.cli import RULES, main, report_render, run_scenario
from gowerslab.games import MAX_HORIZON
from gowerslab.instances import PigeonholeProvider


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

    # The rows of the two bundled dichotomy sweeps, one character per
    # subspace below the root in palette order ("1" where the side
    # holds), and the sweep's nodes.
    DICHOTOMY_ROWS = {
        "ms-f-dichotomy.json": (
            "000000000100100100000000000100001001001111101100010000110",
            "110000100000010011100111110011110000100000010011001111001",
            157,
        ),
        "rosendal-f2-gowers.json": ("1101111110111", "0000000001000", 133),
    }

    @pytest.mark.parametrize("name", sorted(DICHOTOMY_ROWS))
    def test_dichotomy_rows_are_pinned(self, name, tmp_path):
        first, second, nodes = self.DICHOTOMY_ROWS[name]
        stage = run_scenario(scenario_path(name), out_dir=tmp_path).report["stages"][1]
        result = stage["result"]
        assert result["subspaces"] == len(first)
        assert result["rows"] == [
            [q, a == "1", b == "1"] for q, (a, b) in enumerate(zip(first, second))
        ]
        assert result["realized_at"] == [
            q for q, (a, b) in enumerate(zip(first, second)) if "1" in (a, b)
        ]
        assert stage["nodes"] == nodes

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

    def test_horizon_past_the_bound_rejected(self, tmp_path):
        # A longer play would outrun the recursive walks; the parser
        # refuses it before anything is built.
        data = json.loads(scenario_path("ms-f-dichotomy.json").read_text())
        data["game"]["horizon"] = MAX_HORIZON + 1
        bad = tmp_path / "long.json"
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

    def test_dichotomy_exhaustion_names_its_stage(self, tmp_path):
        # Building the instance takes 57 nodes of the budget and the solve
        # stage 12, so the sweep, which needs 157, is the stage that runs
        # out.
        data = json.loads(scenario_path("ms-f-dichotomy.json").read_text())
        data["budgets"] = {"nodes": 100}
        tight = tmp_path / "tight.json"
        tight.write_text(json.dumps(data))
        assert main(["run", str(tight), "--out", str(tmp_path)]) == 3
        report = json.loads((tmp_path / "ms-f-dichotomy.json").read_text())
        assert report["status"] == "budget-exhausted"
        assert report["stages"][0]["nodes"] == 12
        assert (report["diagnostic"]["stage"], report["diagnostic"]["op"]) == (1, "dichotomy")

    def test_illegal_hand_rule_fails_verification_with_a_report(self, tmp_path):
        # The pass-set rule names a subspace outside the root [0, 1]:
        # the stage fails as a declared verification does (exit 4), and
        # the report is written.
        scenario = {
            "name": "illegal-rule",
            "seed": 1,
            "instance": {"kind": "mathias-silver", "universe": 6, "min_size": 2, "slack": 1},
            "game": {"kind": "G", "root": [0, 1], "horizon": 2},
            "payoff": {"name": "everything"},
            "pipeline": [
                {"op": "strategy", "rule": "pass-set", "params": {"labels": [2, 3]}},
                {"op": "verify"},
            ],
        }
        path = tmp_path / "illegal-rule.json"
        path.write_text(json.dumps(scenario))
        assert main(["run", str(path), "--out", str(tmp_path)]) == 4
        report = json.loads((tmp_path / "illegal-rule.json").read_text())
        assert report["status"] == "verification-failed"
        assert (report["diagnostic"]["stage"], report["diagnostic"]["op"]) == (0, "strategy")
        assert "illegal move" in report["diagnostic"]["error"]
        assert len(report["stages"]) == 1 and not report["stages"][0]["ok"]

    def test_incomplete_table_fails_verification_with_a_report(self, tmp_path, monkeypatch):
        # A replay that reaches a state its table has no move at fails
        # the stage as an illegal move does.
        from gowerslab import cli
        from gowerslab.errors import StrategyIncomplete

        def incomplete(*args, **kwargs):
            raise StrategyIncomplete("no move at the state")

        monkeypatch.setattr(cli, "verify_strategy", incomplete)
        data = json.loads(scenario_path("ms-kastanas-h1.json").read_text())
        path = tmp_path / "incomplete.json"
        path.write_text(json.dumps(data))
        assert main(["run", str(path), "--out", str(tmp_path)]) == 4
        report = json.loads((tmp_path / f"{data['name']}.json").read_text())
        assert report["status"] == "verification-failed"
        diagnostic = report["diagnostic"]
        assert (diagnostic["stage"], diagnostic["op"]) == (0, "strategy")
        assert "no move at the state" in diagnostic["error"]

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

    def test_transfer_stage_spends_the_scenario_budget(self, tmp_path):
        # Building the instance spends 57 nodes (one per subset), the
        # strategy stage 100 and the transfer 373, so the transfer runs
        # out inside the scenario's budget of 57 + 150.
        scenario = {
            "name": "tight-transfer",
            "seed": 1,
            "instance": {"kind": "mathias-silver", "universe": 6, "min_size": 2, "slack": 1},
            "game": {"kind": "F", "root": "top", "horizon": 2},
            "payoff": {"name": "everything"},
            "budgets": {"nodes": 207},
            "pipeline": [
                {
                    "op": "strategy",
                    "rule": "pass-set",
                    "owner": "I",
                    "params": {"labels": [0, 1, 2, 3, 4, 5]},
                },
                {"op": "reduce", "name": "gowers_from_asymptotic"},
            ],
        }
        path = tmp_path / "tight-transfer.json"
        path.write_text(json.dumps(scenario))
        code = main(["run", str(path), "--out", str(tmp_path)])
        assert code == 3
        report = json.loads((tmp_path / "tight-transfer.json").read_text())
        assert report["status"] == "budget-exhausted"
        assert report["diagnostic"]["stage"] == 1
        assert report["diagnostic"]["op"] == "reduce"
        assert "node budget of 207 exhausted" in report["diagnostic"]["error"]

    def test_homogeneous_extraction_spends_the_scenario_budget(self, tmp_path):
        # Building the instance spends 4,083 nodes (one per subset), the
        # strategy stage 340 and the extraction 91 strategy replays, so
        # the extraction runs out inside the scenario's budget of
        # 4,083 + 400.
        scenario = {
            "name": "tight-extraction",
            "seed": 1,
            "instance": {"kind": "mathias-silver", "universe": 12, "min_size": 2, "slack": 1},
            "game": {"kind": "F", "root": "top", "horizon": 2},
            "payoff": {"name": "everything"},
            "budgets": {"nodes": 4483},
            "pipeline": [
                {
                    "op": "strategy",
                    "rule": "pass-set",
                    "owner": "I",
                    "params": {"labels": list(range(12))},
                },
                {"op": "reduce", "name": "homogeneous_from_asymptotic"},
            ],
        }
        path = tmp_path / "tight-extraction.json"
        path.write_text(json.dumps(scenario))
        code = main(["reduce", str(path), "--out", str(tmp_path)])
        assert code == 3
        report = json.loads((tmp_path / "tight-extraction.json").read_text())
        assert report["stages"][0]["nodes"] == 340
        assert report["diagnostic"]["stage"] == 1
        assert report["diagnostic"]["op"] == "reduce"
        assert "node budget of 4483 exhausted" in report["diagnostic"]["error"]

    def test_building_the_instance_spends_the_scenario_budget(self, tmp_path):
        # The 16-point instance has 65,519 subsets; the budget runs out
        # at the sixth, before the first stage.
        data = json.loads(scenario_path("ms-f-dichotomy.json").read_text())
        data["instance"]["universe"] = 16
        data["budgets"] = {"nodes": 5}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(data))
        assert main(["run", str(path), "--out", str(tmp_path)]) == 3
        report = json.loads((tmp_path / "ms-f-dichotomy.json").read_text())
        error = "node budget of 5 exhausted in scenario, building mathias-silver(N=16,m=2,t=1)"
        assert report["status"] == "budget-exhausted"
        assert report["diagnostic"] == {"stage": 0, "op": "solve", "error": error}
        assert report["stages"] == [{
            "stage": 0, "op": "solve", "result": {"error": error}, "nodes": 0,
            "exhausted": True, "verified_fraction": None, "ok": False,
        }]
        assert (report["instance"], report["game"]["root"], report["payoff"]) == (None, None, None)

    def test_reduce_refusing_its_strategy_is_four(self, tmp_path):
        # The F game is won by the second player, so the solve hands his
        # opponent's strategy to a transfer that reads his.
        data = json.loads(scenario_path("ms-f-dichotomy.json").read_text())
        data["pipeline"] = [
            {"op": "solve", "goal": "I"},
            {"op": "reduce", "name": "gowers_from_asymptotic"},
            {"op": "verify"},
        ]
        path = tmp_path / "refused.json"
        path.write_text(json.dumps(data))
        assert main(["run", str(path), "--out", str(tmp_path)]) == 4
        report = json.loads((tmp_path / "ms-f-dichotomy.json").read_text())
        error = "gowers_from_asymptotic needs a F-game strategy for I"
        assert report["status"] == "verification-failed"
        assert report["diagnostic"] == {"stage": 1, "op": "reduce", "error": error}
        # The stages after the refusal do not run.
        assert [s["op"] for s in report["stages"]] == ["solve", "reduce"]
        assert report["stages"][1]["result"] == {"error": error}
        assert not report["stages"][1]["ok"]

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


def _payoff_params(**fields):
    def edit(data):
        data["payoff"]["params"].update(fields)

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


def _instance(**fields):
    def edit(data):
        data["instance"].update(fields)

    return edit


def _no_universe(data):
    del data["instance"]["universe"]


def _universe_x(data):
    data["instance"]["universe"] = "x"


def _verify_sampled(data):
    data["pipeline"].append({"op": "verify", "mode": "sampled", "target": "complement"})


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
    ("root-bool", "ms-f-dichotomy.json", _game(root=True)),
    ("root-negative", "ms-f-dichotomy.json", _game(root=-1)),
    ("root-float", "ms-f-dichotomy.json", _game(root=1.0)),
    ("stage-kind-odd-horizon", "ms-f-dichotomy.json", _stage(0, kind="A")),
    ("adversarial-dichotomy-odd-horizon", "ms-f-dichotomy.json", _stage(1, flavor="adversarial")),
    ("stay-in-set-without-labels", "ms-kastanas-h1.json", _no_labels),
    ("verify-mode-misspelled", "ms-kastanas-h1.json", _stage(2, mode="exhastive")),
    ("verify-target-misspelled", "ms-kastanas-h1.json", _stage(2, target="acepts")),
    ("strategy-target-misspelled", "ms-kastanas-h1.json", _stage(0, target="acepts")),
    # A field no op reads used to be ignored: the misspelled target
    # verified toward accepts, and a solve ran with a flavor it never read.
    ("verify-field-taget", "ms-kastanas-h1.json", _stage(2, taget="complement")),
    ("solve-field-flavor", "ms-f-dichotomy.json", _stage(0, flavor="strategic")),
    ("counterexample-unknown", "f3-pigeonhole-counterexample.json", _stage(0, which="Nope")),
    ("strong-game-without-system", "ms-f-dichotomy.json", _stage(0, kind="SF")),
    ("payoff-counterexample-unknown", "f3-pigeonhole-counterexample.json", _payoff_which),
    ("budgets-list", "ms-f-dichotomy.json", _top(budgets=[])),
    ("instance-list", "ms-f-dichotomy.json", _top(instance=[])),
    ("stage-list", "ms-f-dichotomy.json", _top(pipeline=[[1]])),
    ("instance-without-universe", "ms-f-dichotomy.json", _no_universe),
    ("universe-x", "ms-f-dichotomy.json", _universe_x),
    ("first-in-without-labels", "ms-f-dichotomy.json", _top(payoff={"name": "first_in"})),
    # Verification is exhaustive: a sampled check used to report a
    # fraction of 1 from a few random plays.
    ("verify-mode-sampled", "ms-f-dichotomy.json", _verify_sampled),
    ("labels-not-a-list", "ms-kastanas-h1.json", _stage(0, params={"labels": 5})),
    ("system-table-out-of-range", "ms-kastanas-h1.json", _system_table_out_of_range),
    (
        "palette-not-closed-under-meet",
        "ms-kastanas-h1.json",
        _instance(palette=[[0, 1], [1, 2]]),
    ),
    (
        "grid-step-zero",
        "ms-f-dichotomy.json",
        _top(instance={"kind": "grid-sphere", "step": "0"}),
    ),
    # A bool is no rational: it used to build the grid at step 1.
    (
        "grid-step-bool",
        "ms-f-dichotomy.json",
        _top(instance={"kind": "grid-sphere", "step": True}),
    ),
    # Integer fields are checked, not coerced: each of these used to run
    # as the integer it rounds or parses to (or to exit 3 or 4).
    ("horizon-float", "ms-f-dichotomy.json", _game(horizon=2.5)),
    ("horizon-bool", "ms-f-dichotomy.json", _game(horizon=True)),
    ("horizon-string", "ms-f-dichotomy.json", _game(horizon="2")),
    ("seed-float", "ms-f-dichotomy.json", _top(seed=1.9)),
    ("universe-float", "ms-f-dichotomy.json", _instance(universe=6.5)),
    ("slack-float", "ms-f-dichotomy.json", _instance(slack=1.5)),
    ("min-size-string", "ms-f-dichotomy.json", _instance(min_size="2")),
    ("budget-nodes-zero", "ms-f-dichotomy.json", _top(budgets={"nodes": 0})),
    ("budget-nodes-negative", "ms-f-dichotomy.json", _top(budgets={"nodes": -5})),
    ("budget-seconds-negative", "ms-f-dichotomy.json", _top(budgets={"seconds": -1})),
    ("budget-seconds-zero", "ms-f-dichotomy.json", _top(budgets={"seconds": 0})),
    # Each of these used to raise a TypeError or IndexError mid-run.
    ("payoff-index-list", "ms-f-dichotomy.json", _payoff_params(index=[])),
    ("payoff-index-past-the-outcome", "ms-f-dichotomy.json", _payoff_params(index=1)),
    ("min-dim-list", "f3-pigeonhole-counterexample.json", _stage(0, min_dim=[])),
    # A misspelled expectation used to fail the check (exit 4), and a
    # delta that is no rational to run as if absent (exit 0).
    ("pigeonhole-expect-misspelled", "f3-pigeonhole-counterexample.json",
     _stage(1, expect="unavailble")),
    ("pigeonhole-delta-abc", "f3-pigeonhole-counterexample.json", _stage(1, delta="abc")),
    # A bool delta used to run as 1, and a negative one to run (exit 0).
    ("pigeonhole-delta-bool", "f3-pigeonhole-counterexample.json", _stage(1, delta=True)),
    ("pigeonhole-delta-negative", "f3-pigeonhole-counterexample.json", _stage(1, delta="-3")),
    # A positive delta on an instance without a metric used to run as if
    # absent (exit 0): the provider reads a delta only on a metric.
    ("pigeonhole-delta-without-metric", "f3-pigeonhole-counterexample.json",
     _stage(1, delta="1/2")),
    # Payoffs reading coordinates of integer labels used to raise a
    # TypeError at the first outcome.
    (
        "coord-eq-on-integer-labels",
        "ms-f-dichotomy.json",
        _top(payoff={"name": "coord_eq", "params": {"coord": 0, "value": 1}}),
    ),
    (
        "first-nonzero-is-on-integer-labels",
        "ms-f-dichotomy.json",
        _top(payoff={"name": "first_nonzero_is", "params": {"value": 1}}),
    ),
    (
        "coord-eq-past-the-label",
        "rosendal-f2-gowers.json",
        _top(payoff={"name": "coord_eq", "params": {"coord": 3, "value": 1}}),
    ),
    (
        "coord-eq-coord-string",
        "rosendal-f2-gowers.json",
        _top(payoff={"name": "coord_eq", "params": {"coord": "0", "value": 1}}),
    ),
    # Payoffs reading the parity of vector labels used to raise a
    # TypeError at the first outcome (exit 1, a traceback).
    (
        "point-even-on-vector-labels",
        "ms-f-dichotomy.json",
        _top(instance={"kind": "rosendal", "field_order": 2, "dimension": 3}),
    ),
    (
        "all-even-on-grid-labels",
        "ms-f-dichotomy.json",
        _top(instance={"kind": "grid-sphere", "step": "1/2"}, payoff={"name": "all_even"}),
    ),
    # An instance field its kind does not read used to be ignored (exit 0),
    # and "palette_rule" was only checked against a list, never read.
    ("instance-field-misspelled", "ms-f-dichotomy.json", _instance(min_sise=4)),
    ("instance-palette-rule", "ms-f-dichotomy.json", _instance(palette_rule="explicit")),
    ("rosendal-universe", "rosendal-f2-gowers.json", _instance(universe=4)),
    # A null name used to write None.json and exit 0.
    ("name-null", "ms-f-dichotomy.json", _top(name=None)),
    ("name-empty", "ms-f-dichotomy.json", _top(name="")),
    ("name-with-separator", "ms-f-dichotomy.json", _top(name="../escape")),
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

    @pytest.mark.parametrize("nodes", [0, -5])
    def test_budget_flag_is_checked_like_the_file_field(self, nodes, tmp_path, capsys):
        # A nonpositive --budget-nodes used to run the scenario into
        # budget exhaustion (exit 3).
        scenario = scenario_path("ms-f-dichotomy.json")
        flag = ["run", str(scenario), "--out", str(tmp_path), "--budget-nodes", str(nodes)]
        assert main(flag) == 2
        flag_err = capsys.readouterr().err
        data = json.loads(scenario.read_text())
        data["budgets"] = {"nodes": nodes}
        path = tmp_path / "file-budget.json"
        path.write_text(json.dumps(data))
        assert main(["run", str(path), "--out", str(tmp_path)]) == 2
        assert flag_err == capsys.readouterr().err
        assert flag_err.startswith("validation error: budgets: nodes must be")

    @pytest.mark.parametrize("delta,parsed", [(0, Fraction(0)), ("0/3", Fraction(0))])
    def test_pigeonhole_delta_reaches_the_provider_parsed(
        self, delta, parsed, tmp_path, monkeypatch
    ):
        # The raw JSON value used to go to ``decide``.
        seen = []
        decide = PigeonholeProvider.decide

        def spy(provider, space, history, point_set, p, delta=None):
            seen.append(delta)
            return decide(provider, space, history, point_set, p, delta)

        monkeypatch.setattr(PigeonholeProvider, "decide", spy)
        data = json.loads(scenario_path("f3-pigeonhole-counterexample.json").read_text())
        data["pipeline"][1]["delta"] = delta
        path = tmp_path / "delta.json"
        path.write_text(json.dumps(data))
        assert main(["run", str(path), "--out", str(tmp_path)]) == 0
        assert seen == [parsed] and all(type(d) is Fraction for d in seen)


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
        "instance,horizon,code",
        [
            (None, "2", 2),
            ({"kind": "mathias-silver"}, "2", 2),
            ({"kind": "grid-sphere", "step": "0"}, "2", 2),
            ([{"kind": "mathias-silver", "universe": 5}], "2", 2),
            ({"kind": "mathias-silver", "universe": 12}, "2", 3),
            ({"kind": "mathias-silver", "universe": 5}, "0", 2),
            ({"kind": "mathias-silver", "universe": 5}, "-1", 2),
        ],
        ids=[
            "missing-file",
            "no-universe",
            "step-zero",
            "top-level-list",
            "exhausted",
            "horizon-zero",
            "horizon-negative",
        ],
    )
    def test_axioms_exit_codes(self, instance, horizon, code, tmp_path, capsys):
        path = tmp_path / "instance.json"
        if instance is not None:
            path.write_text(json.dumps(instance))
        assert main(["axioms", str(path), "--horizon", horizon]) == code
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

    def test_rule_table_file_holds_states_and_memories(self):
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
        assert "positional" not in data
        assert all(set(e) == {"state", "memory", "move", "next"} for e in data["entries"])
        again = Strategy.from_json(json.loads(json.dumps(data)))
        assert again.table == strat.table
        assert verify_strategy(ms, again, payoff).plays == verify_strategy(ms, strat, payoff).plays

    def test_solved_table_file_is_memoryless(self):
        from gowerslab import GameKind, Player, build_payoff, solve
        from gowerslab.instances import mathias_silver, top_subspace

        ms = mathias_silver(5, 2, 1)
        payoff = build_payoff(ms, "everything", 2)
        strat = solve(ms, GameKind.GOWERS_G, top_subspace(ms), payoff, Player.II).strategy
        data = strat.to_json()
        assert "positional" not in data
        assert all(e["memory"] == e["next"] == 0 for e in data["entries"])

    def test_kastanas_output_survives_a_round_trip(self):
        import json

        from gowerslab import Strategy, verify_strategy
        from gowerslab.games import GameKind, Player
        from gowerslab.instances import mathias_silver, top_subspace
        from gowerslab.payoffs import build_payoff
        from gowerslab.reductions import adversarial_from_kastanas
        from gowerslab.solver import strategy_from_rule, verified

        ms = mathias_silver(10, 2, 1)
        top = top_subspace(ms)
        payoff = build_payoff(ms, "point_odd", 2, {"index": 1})
        rule = RULES["stay-in-set"](ms, {"labels": [1, 3, 5, 7, 9]})
        tau = verified(
            ms, strategy_from_rule(ms, GameKind.KASTANAS, top, 2, Player.II, rule), payoff
        )
        out = adversarial_from_kastanas(ms, tau, Player.II, payoff).strategy
        again = Strategy.from_json(json.loads(json.dumps(out.to_json())))
        assert again == out and len(again.table) == 131
        report = verify_strategy(ms, again, payoff)
        assert report.passed and report.plays == 130

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


def _stay_in_set_cases():
    """label -> (instance, the point ids of the set): odd labels on
    ``mathias_silver(10, 2, 1)``, vectors of a tail subspace and every
    other vector on a Rosendal instance, and odd labels on a view whose
    admission rows come from per-subspace ``admits`` calls."""
    from gowerslab.instances import mathias_silver, rosendal

    ms10 = mathias_silver(10, 2, 1)
    f3 = rosendal(3, 3, 1)
    tail = frozenset(i for i, v in enumerate(f3.points) if v[0] == 0)
    view = ms10.derive(admits=lambda history, p, admits=ms10.admits: admits(history, p))
    assert view._admits_row == view._admitting_by_pair
    odd = frozenset(range(1, 10, 2))
    return {
        "ms10-odd": (ms10, odd),
        "rosendal-F3-tail": (f3, tail),
        "rosendal-F3-every-other": (f3, frozenset(range(0, len(f3.points), 2))),
        "ms10-view-odd": (view, odd),
    }


class TestStayInSet:
    """``stay-in-set`` picks its subspace by ``cli.largest_inside``,
    read once off the one-point admission rows; the scan over every
    subspace below the anchor (``oracle.subspace_inside_by_scan``) that
    the rule made at every state must pick the same one."""

    @pytest.mark.parametrize("label", list(_stay_in_set_cases()))
    def test_each_anchor_gets_the_scanned_subspace(self, label):
        from gowerslab.cli import largest_inside
        from oracle import subspace_inside_by_scan

        space, inside = _stay_in_set_cases()[label]
        chooser = largest_inside(space, inside)
        picks = [chooser(anchor) for anchor in space.subspaces()]
        assert picks == [
            subspace_inside_by_scan(space, inside, anchor) for anchor in space.subspaces()
        ]
        assert any(q is not None for q in picks)

    def test_a_set_with_no_subspace_inside_is_refused(self):
        from gowerslab.errors import SpecInvalid
        from gowerslab.games import GameKind, Player
        from gowerslab.instances import mathias_silver, top_subspace
        from gowerslab.solver import strategy_from_rule

        ms = mathias_silver(10, 2, 1)
        for labels in ([], [4]):
            rule = RULES["stay-in-set"](ms, {"labels": labels})
            with pytest.raises(SpecInvalid, match="no palette subspace inside the set"):
                strategy_from_rule(
                    ms, GameKind.KASTANAS, top_subspace(ms), 2, Player.II, rule
                )

    def test_the_hand_kastanas_tables_are_the_scanned_rules(self, monkeypatch):
        # The ms-kastanas-h1 scenario's rule and the adversarial strategy
        # made from it, built with the chooser and with the scan.
        from gowerslab import cli
        from gowerslab.games import GameKind, Player
        from gowerslab.instances import mathias_silver, top_subspace
        from gowerslab.payoffs import build_payoff
        from gowerslab.reductions import adversarial_from_kastanas
        from gowerslab.solver import strategy_from_rule, verified
        from oracle import subspace_inside_by_scan

        def tables():
            ms = mathias_silver(10, 2, 1)
            payoff = build_payoff(ms, "point_odd", 2, {"index": 1})
            rule = RULES["stay-in-set"](ms, {"labels": [1, 3, 5, 7, 9]})
            tau = strategy_from_rule(
                ms, GameKind.KASTANAS, top_subspace(ms), 2, Player.II, rule
            )
            out = adversarial_from_kastanas(ms, verified(ms, tau, payoff), Player.II, payoff)
            return tau.table, out.strategy.table

        tau, out = tables()
        with monkeypatch.context() as patch:
            patch.setattr(
                cli,
                "largest_inside",
                lambda space, inside: lambda anchor: subspace_inside_by_scan(
                    space, inside, anchor
                ),
            )
            assert tables() == (tau, out)
        assert len(out) == 131


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

    def test_time_cap_halts_inside_a_stage(self, tmp_path):
        # The solve takes far longer than the cap; the budget reads the
        # clock while it runs, so the run stops in the solve, not after it.
        data = json.loads(scenario_path("ms7-gowers-h4.json").read_text())
        data["budgets"] = {"nodes": 2000000, "seconds": 0.02}
        path = tmp_path / "timed.json"
        path.write_text(json.dumps(data))
        assert main(["run", str(path), "--out", str(tmp_path)]) == 3
        report = json.loads((tmp_path / "ms7-gowers-h4.json").read_text())
        assert report["diagnostic"] == {
            "stage": 0, "op": "solve", "error": "time budget exhausted in scenario"
        }
        assert len(report["stages"]) == 1 and report["stages"][0]["exhausted"]

    def test_time_cap_covers_building_the_instance(self, tmp_path):
        # Building the 16-point instance alone outlasts the cap several
        # times over, so the run stops before its first stage.
        data = json.loads(scenario_path("ms-f-dichotomy.json").read_text())
        data["instance"]["universe"] = 16
        data["budgets"] = {"nodes": 2000000, "seconds": 0.01}
        path = tmp_path / "timed.json"
        path.write_text(json.dumps(data))
        assert main(["run", str(path), "--out", str(tmp_path)]) == 3
        report = json.loads((tmp_path / "ms-f-dichotomy.json").read_text())
        assert report["diagnostic"] == {"stage": 0, "op": "solve", "error": "time budget exhausted"}

    def test_absent_time_cap_means_no_limit(self, tmp_path):
        data = json.loads(scenario_path("ms-f-dichotomy.json").read_text())
        data["budgets"] = {"nodes": 2000000}
        path = tmp_path / "untimed.json"
        path.write_text(json.dumps(data))
        assert main(["run", str(path), "--out", str(tmp_path)]) == 0


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


# -- fuzzing the scenario files ------------------------------------------------------------

ALL_SCENARIOS = sorted(
    p.name for p in Path(str(resources.files("gowerslab") / "scenarios")).glob("*.json")
)


def _leaves(data, path=()):
    """Every (container path, key) of the JSON value, containers first."""
    items = data.items() if isinstance(data, dict) else enumerate(data)
    for key, value in items:
        yield path, key
        if isinstance(value, (dict, list)):
            yield from _leaves(value, path + (key,))


def _scalars(data):
    if isinstance(data, dict):
        data = list(data.values())
    if isinstance(data, list):
        for value in data:
            yield from _scalars(value)
    else:
        yield data


# Every scalar of the bundled scenarios (so a kind, rule or name may move
# to another field), plus values of every other JSON type.  Integers
# stay small: a Mathias-Silver palette doubles with each point of the
# universe, and building the instance is charged to the node budget, so
# a large universe would only spend an example's budget on the build.
BUNDLED_SCALARS = sorted(
    {
        repr(v): v
        for name in ALL_SCENARIOS
        for v in _scalars(json.loads(scenario_path(name).read_text()))
        if not (isinstance(v, int) and v > 4)
    }.values(),
    key=repr,
)
JSON_VALUES = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-2, 4),
        st.floats(-2, 4, allow_nan=False),
        st.text(max_size=3),
        st.sampled_from(BUNDLED_SCALARS),
    ),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)


@st.composite
def mutated_scenarios(draw):
    data = json.loads(scenario_path(draw(st.sampled_from(ALL_SCENARIOS))).read_text())
    for _ in range(draw(st.integers(1, 2))):
        path, key = draw(st.sampled_from(list(_leaves(data))))
        parent = data
        for step in path:
            parent = parent[step]
        if isinstance(parent, dict) and draw(st.integers(0, 3)) == 0:
            del parent[key]
        else:
            parent[key] = draw(JSON_VALUES)
    return data


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(data=mutated_scenarios())
def test_mutated_scenarios_exit_with_a_documented_code(data):
    """Changed field types and values of the bundled scenarios, run through
    the CLI, exit 0, 2, 3 or 4 and print no traceback.  The node budget
    is capped so an example stays cheap; running out of it is exit 3."""
    import contextlib
    import io
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutated.json"
        path.write_text(json.dumps(data))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["run", str(path), "--out", tmp, "--budget-nodes", "20000"])
    assert code in (0, 2, 3, 4), err.getvalue()
    assert "Traceback" not in err.getvalue()


def _reference_json(data) -> str:
    """``canonical_json`` as the ``json`` module writes it."""
    from gowerslab.util import _json_default

    return json.dumps(data, sort_keys=True, indent=2, default=_json_default)


class TestCanonicalJson:
    """``util.canonical_json`` writes the ``indent=2`` form itself; its
    text must be ``json.dumps``'s, byte for byte."""

    @pytest.mark.parametrize("name", BUNDLED + ["ms7-gowers-h4.json"])
    def test_each_bundled_report_is_the_json_text(self, name, tmp_path):
        from gowerslab.util import canonical_json

        report = run_scenario(scenario_path(name), out_dir=tmp_path).report
        assert canonical_json(report) == _reference_json(report)

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        data=st.recursive(
            st.none()
            | st.booleans()
            | st.integers()
            | st.floats()
            | st.text()
            | st.fractions()
            | st.frozensets(st.integers())
            | st.frozensets(st.text()),
            lambda inner: st.lists(inner)
            | st.tuples(inner, inner)
            | st.dictionaries(st.text(), inner)
            | st.dictionaries(st.integers(), inner),
            max_leaves=30,
        )
    )
    def test_generated_data_is_the_json_text(self, data):
        from gowerslab.util import canonical_json

        assert canonical_json(data) == _reference_json(data)

    def test_empty_containers_and_non_ascii_text(self):
        from gowerslab.util import canonical_json

        data = {"é": [(), [], {}, frozenset()], "": {"日本": (None, True, False, Fraction(-3, 4))}}
        assert canonical_json(data) == _reference_json(data)
        assert canonical_json(data).isascii()
        # Keys that are not strings are written as json writes them.
        for keys in ({3: 0, -1: 1}, {2.5: 0, -0.0: 1}, {None: 0}, {True: 0, False: 1}):
            assert canonical_json(keys) == _reference_json(keys)
