"""Per-layer spans and counts for the traced run.

The tracer wraps the program's public functions from outside: a
module-level name is replaced in every ``gowerslab`` module that holds
it, a class attribute on its class.  Calls made a handful of times per
operation get a span (name, start, end, parent span, pass id); calls
made millions of times are only counted.  ``install`` and ``uninstall``
bracket one traced pass, so untraced passes run the program untouched.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

from gowerslab import approx, cli, games, instances, payoffs, reductions, solver, space
from gowerslab.errors import Budget
from gowerslab.util import canonical_json

# Span name -> (module, function names).  A span's self time is its
# duration minus the time its child spans cover.
TIMED = {
    "solver.solve": (solver, ("solve",)),
    "solver.verify": (solver, ("verify_strategy",)),
    "solver.rule": (solver, ("strategy_from_rule",)),
    "space.axioms": (space, ("check_axioms",)),
    "instances.build": (
        instances,
        ("build_instance", "mathias_silver", "rosendal", "projective_rosendal", "grid_sphere"),
    ),
    "instances.scan": (instances, ("counterexample_sets", "meets_both_scan")),
    "reductions.transfer": (
        reductions,
        (
            "adversarial_from_kastanas", "tilde_lift", "project_tilde_strategy",
            "decorate_space", "unfold_asymptotic", "gowers_from_asymptotic",
            "asymptotic_from_gowers", "homogeneous_from_asymptotic",
        ),
    ),
    "reductions.dichotomy": (reductions, ("check_ramsey_dichotomy",)),
    "approx.expand": (
        approx,
        ("materialize_payoff_set", "expand_sequence_set", "expanded_target", "build_net"),
    ),
    "approx.system": (approx, ("field_subspace_system", "ms_singleton_system")),
    "approx.lift": (
        approx,
        (
            "discretize", "restrict_payoff", "lift_strategy", "approx_asymptotic_from_gowers",
            "strong_asymptotic_from_asymptotic", "verify_strong_asymptotic",
        ),
    ),
    "cli.scenario": (cli, ("run_scenario",)),
}
TIMED_METHODS = {
    "instances.scan": (instances.PigeonholeProvider, ("decide", "subset_refinement")),
}
# Count name -> (module, function name), counted only.
COUNTED = {
    "games.legal_moves_calls": (games, "legal_moves"),
    "games.move_legal_calls": (games, "move_legal"),
}
COUNTED_METHODS = {
    "games.positions": (games.GamePosition, "child"),
    "space.below_calls": (space.SpaceInstance, "below"),
    "space.admitted_calls": (space.SpaceInstance, "admitted_points"),
    "approx.distance_calls": (space.SpaceInstance, "distance"),
}
# Budget ticks charged inside these spans are reported as counts.
TICKS = {"space.axioms": "space.axioms_ticks", "reductions.transfer": "reductions.transfer_ticks"}

# Per-layer metric -> span whose self time it reports.
SELF_TIMES = {
    "solver.solve_norm": "solver.solve",
    "solver.verify_norm": "solver.verify",
    "solver.rule_norm": "solver.rule",
    "space.axioms_norm": "space.axioms",
    "instances.build_norm": "instances.build",
    "instances.scan_norm": "instances.scan",
    "reductions.transfer_norm": "reductions.transfer",
    "reductions.dichotomy_norm": "reductions.dichotomy",
    "approx.expand_norm": "approx.expand",
    "approx.system_norm": "approx.system",
    "approx.lift_norm": "approx.lift",
    "cli.scenario_norm": "cli.scenario",
}
COUNTS = (
    "solver.solve_nodes",
    "solver.verify_plays",
    "solver.table_entries",
    "games.legal_moves_calls",
    "games.move_legal_calls",
    "games.positions",
    "payoffs.accepts_calls",
    "space.axioms_ticks",
    "space.leq_calls",
    "space.admits_calls",
    "space.below_calls",
    "space.admitted_calls",
    "reductions.transfer_ticks",
    "reductions.dichotomy_solves",
    "approx.distance_calls",
    "cli.report_bytes",
)
UNITS = {"cli.report_bytes": "bytes"}


def _budget_in(args, kwargs):
    for value in (*args, *kwargs.values()):
        if isinstance(value, Budget):
            return value
    return None


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, pass id]
        self.stack: list = []
        self.pass_id = None
        self.cells = defaultdict(lambda: [0])
        self._restore: list = []

    # -- wrappers --------------------------------------------------------------

    def _timed(self, name, fn):
        spans, stack, ticks = self.spans, self.stack, TICKS.get(name)
        after = {
            "solver.solve": self._after_solve,
            "solver.verify": self._after_verify,
            "cli.scenario": self._after_scenario,
        }.get(name)

        def wrapper(*args, **kwargs):
            budget = _budget_in(args, kwargs) if ticks else None
            used = budget.used if budget is not None else 0
            span = [name, time.perf_counter(), None, stack[-1] if stack else None, self.pass_id]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = time.perf_counter()
            if budget is not None:
                self.cells[ticks][0] += budget.used - used
            if after is not None:
                after(result)
            return result

        return wrapper

    def _counted(self, name, fn):
        if getattr(fn, "_bench_counted", False):
            return fn
        cell = self.cells[name]

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        wrapper._bench_counted = True
        return wrapper

    def _after_solve(self, result):
        self.cells["solver.solve_nodes"][0] += result.nodes_expanded
        self.cells["solver.table_entries"][0] += len(result.strategy.table)

    def _after_verify(self, report):
        self.cells["solver.verify_plays"][0] += report.plays

    def _after_scenario(self, outcome):
        self.cells["cli.report_bytes"][0] += len((canonical_json(outcome.report) + "\n").encode())

    # -- patching --------------------------------------------------------------

    def _replace_everywhere(self, original, wrapper):
        for name, module in list(sys.modules.items()):
            if not name.startswith("gowerslab"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, original))

    def _replace_attr(self, owner, attr, wrapper):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self, pass_id) -> None:
        self.pass_id = pass_id
        for name, (module, functions) in TIMED.items():
            for fn in functions:
                original = getattr(module, fn)
                self._replace_everywhere(original, self._timed(name, original))
        for name, (owner, methods) in TIMED_METHODS.items():
            for method in methods:
                self._replace_attr(owner, method, self._timed(name, getattr(owner, method)))
        for name, (module, fn) in COUNTED.items():
            original = getattr(module, fn)
            self._replace_everywhere(original, self._counted(name, original))
        for name, (owner, method) in COUNTED_METHODS.items():
            self._replace_attr(owner, method, self._counted(name, getattr(owner, method)))

        # Relations and admission are per-instance callables, and payoff
        # predicates per-payoff ones: wrap them as objects are made.
        counted = self._counted
        init_space = space.SpaceInstance.__init__
        init_payoff = payoffs.Payoff.__init__

        def space_init(obj, *args, **kwargs):
            init_space(obj, *args, **kwargs)
            obj.leq = counted("space.leq_calls", obj.leq)
            obj.admits = counted("space.admits_calls", obj.admits)

        def payoff_init(obj, *args, **kwargs):
            init_payoff(obj, *args, **kwargs)
            object.__setattr__(obj, "accepts", counted("payoffs.accepts_calls", obj.accepts))

        self._replace_attr(space.SpaceInstance, "__init__", space_init)
        self._replace_attr(payoffs.Payoff, "__init__", payoff_init)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        self.pass_id = None

    # -- reading ---------------------------------------------------------------

    def take_counts(self, pass_id) -> dict:
        """The pass's counts; the counters restart from zero."""
        counts = {name: self.cells[name][0] for name in COUNTS}
        counts["reductions.dichotomy_solves"] = self.dichotomy_solves(pass_id)
        for cell in self.cells.values():
            cell[0] = 0
        return counts

    def self_times(self, pass_id) -> dict:
        """Seconds of self time per span name within one pass."""
        covered = defaultdict(float)
        for name, start, end, parent, pid in self.spans:
            if pid == pass_id and parent is not None:
                covered[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, parent, pid) in enumerate(self.spans):
            if pid == pass_id:
                out[name] += end - start - covered[i]
        return out

    def dichotomy_solves(self, pass_id) -> int:
        return sum(
            1
            for name, _, _, parent, pid in self.spans
            if pid == pass_id and name == "solver.solve" and parent is not None
            and self.spans[parent][0] == "reductions.dichotomy"
        )

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "pass")
        path.write_text(json.dumps({"spans": [dict(zip(keys, s)) for s in self.spans]}) + "\n")
