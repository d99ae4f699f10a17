"""Benchmark entry point.

    python3 bench/run.py --workload deep-solve --seed 1 --seconds 30 --trace 0
    python3 bench/run.py            # every workload, one after another

For one workload it starts the workload's process several times for set
up only and once for the measured run (``worker.py``), each a single
Python process, and times each from its start to its ``READY`` line:
the median is ``setup_s``.  It prints every metric by name with its
unit, then, as the last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the whole result, with each
pass's raw seconds, also goes to ``bench/out/``.  It exits 1 when a
check of the program's outputs failed and 2 when the program is missing
or the workload could not run.
"""

from __future__ import annotations

import argparse
import json
import select
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("deep-solve", "pipelines", "axioms-expansion")
SETUP_PROBES = 6
TIME_LIMIT = 170.0


class RunError(Exception):
    pass


def _start(args: list) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    )


def _time_to_ready(proc: subprocess.Popen, started: float, deadline: float) -> float:
    """Seconds from ``started`` until the process printed READY."""
    ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.perf_counter()))
    line = proc.stdout.readline() if ready else ""
    elapsed = time.perf_counter() - started
    if line.strip() != "READY":
        raise RunError(f"workload process did not get ready (read {line!r})")
    return elapsed


def _rest_of_output(proc: subprocess.Popen, deadline: float) -> str:
    """Everything the process prints until it exits; killed at the deadline."""
    timer = threading.Timer(max(0.0, deadline - time.perf_counter()), proc.kill)
    timer.start()
    try:
        return proc.stdout.read()
    finally:
        timer.cancel()
        proc.wait()


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.perf_counter() + TIME_LIMIT
    common = ["--workload", name, "--seed", str(seed)]
    setups = []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        proc = _start([*common, "--setup-only"])
        try:
            setups.append(_time_to_ready(proc, started, deadline))
            _rest_of_output(proc, deadline)
        finally:
            _stop(proc)
        if proc.returncode != 0:
            raise RunError(f"set-up process exited with {proc.returncode}")
    started = time.perf_counter()
    proc = _start([*common, "--seconds", str(seconds), "--trace", str(trace)])
    try:
        setups.append(_time_to_ready(proc, started, deadline))
        lines = _rest_of_output(proc, deadline).strip().splitlines()
    finally:
        _stop(proc)
    if proc.returncode != 0 or not lines:
        raise RunError(f"workload process exited with {proc.returncode} (limit {TIME_LIMIT:.0f} s)")
    result = json.loads(lines[-1])
    if not trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    result["setup_samples_s"] = setups
    return result


def report(name: str, seed: int, trace: int, result: dict) -> dict:
    """Print the run for people, save it whole, return the part read by machines."""
    print(f"workload {name}, seed {seed}, trace {trace}")
    for p in result["passes"]:
        kind = "traced" if p["traced"] else "plain"
        print(f"  pass {kind:6} raw {p['seconds']:.3f} s  calib {p['calib']:.4f} s  norm {p['norm']:.3f}")
    for metric, entry in sorted(result["metrics"].items()):
        print(f"  {metric} = {entry['value']} {entry['unit']}")
    print(f"  attempted {result['attempted']}, failed {result['failed']}, correct {not result['problems']}")
    for problem in result["problems"]:
        print(f"  CHECK FAILED: {problem}")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{name}-seed{seed}-trace{trace}.result.json"
    path.write_text(json.dumps(result, indent=2) + "\n")
    return {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}


def default_seconds() -> int:
    return json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gowerslab benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gowerslab" / "__init__.py").is_file():
        print("the program's source (src/gowerslab) is missing", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else default_seconds()
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    try:
        for name in names:
            result = run_workload(name, args.seed, seconds, args.trace)
            results[name] = report(name, args.seed, args.trace, result)
    except RunError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(results[names[0]] if args.workload else results), flush=True)
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
