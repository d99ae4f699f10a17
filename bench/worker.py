"""One workload in its own process.

Sets up (imports ``gowerslab``, reads the bundled scenarios, makes the
seeded inputs), prints ``READY``, then runs whole passes over the
workload's operations until the run's seconds are spent, and checks
every pass's outputs.  A pass's time is normalized by the calibration
loop (see ``run_pass``); ``pass_norm`` is the median over the passes.
The last line of standard output is one JSON object; progress goes to
standard error.

With ``--trace 1`` every other pass, starting with the first, runs with
the tracer installed; the untraced passes in between give the traced
run's overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
MIN_PASSES = {False: 3, True: 2}
SEGMENT_SECONDS = 0.75


def run_pass(ops, timed_calibration, segment_ends) -> tuple:
    """Run every operation once.  The operations are grouped into
    segments, and the calibration loop runs before and after each
    segment, so that a change in the host's speed in the middle of a
    pass is seen by the segments it hits.  The first pass cuts a segment
    once it has run for SEGMENT_SECONDS and records the cuts in
    ``segment_ends``; later passes cut at the same operations.  Returns
    (outputs, raw seconds, normalized time per segment)."""
    first = not segment_ends
    outputs = []
    seconds = 0.0
    norms = []
    calib_before = timed_calibration()
    segment_started = time.perf_counter()
    for i, op in enumerate(ops):
        try:
            outputs.append(op.run())
        except Exception as exc:  # one failed operation must not end the run
            traceback.print_exc(file=sys.stderr)
            outputs.append(exc)
        now = time.perf_counter()
        if first and (now - segment_started >= SEGMENT_SECONDS or i == len(ops) - 1):
            segment_ends.append(i)
        if i in segment_ends:
            calib_after = timed_calibration()
            seconds += now - segment_started
            norms.append((now - segment_started) / ((calib_before + calib_after) / 2))
            calib_before = calib_after
            segment_started = time.perf_counter()
    return outputs, seconds, norms


def check_pass(ops, outputs, reference, problems) -> tuple:
    """Check one pass's outputs; returns (failed, summaries)."""
    import workloads

    failed = 0
    summaries = []
    for op, out in zip(ops, outputs):
        if isinstance(out, Exception):
            failed += 1
            summaries.append({"failed": type(out).__name__})
            continue
        problems.extend(op.check(out))
        summaries.append(workloads.summary(out))
    if reference is not None:
        for op, mine, first in zip(ops, summaries, reference):
            if mine != first:
                problems.append(f"{op.label}: outputs differ from the first pass: {mine} != {first}")
    return failed, summaries


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "gowerslab" / "__init__.py").is_file():
        print(f"no program source at {SRC / 'gowerslab'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from calib import timed_calibration

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        ops = workloads.WORKLOADS[args.workload](args.seed, workdir)
        print("READY", flush=True)
        if args.setup_only:
            return 0
        return measure(args, ops, timed_calibration)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, ops, timed_calibration) -> int:
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    passes = []
    problems: list = []
    reference = None
    failed = 0
    segment_ends: list = []
    started = time.perf_counter()
    while True:
        index = len(passes)
        traced = tracer is not None and index % 2 == 0
        pass_started = time.perf_counter()
        if traced:
            tracer.install(index)
        try:
            outputs, seconds, segments = run_pass(ops, timed_calibration, segment_ends)
        finally:
            if traced:
                tracer.uninstall()
        pass_failed, summaries = check_pass(ops, outputs, reference, problems)
        failed += pass_failed
        reference = reference or summaries
        # Every pass starts from the same heap: nothing of the last one
        # stays alive for the collector to walk.
        del outputs
        gc.collect()
        norm = sum(segments)
        calib = seconds / norm
        record = {"seconds": seconds, "calib": calib, "norm": norm, "traced": traced, "segments": segments}
        if traced:
            record["self_norm"] = {
                name: t / calib for name, t in tracer.self_times(index).items()
            }
            record["counts"] = tracer.take_counts(index)
        passes.append(record)
        print(
            f"{args.workload} pass {index}: {seconds:.3f} s, calib {calib:.4f} s, "
            f"pass_norm {norm:.2f}{' (traced)' if traced else ''}",
            file=sys.stderr,
            flush=True,
        )
        elapsed = time.perf_counter() - started
        last = time.perf_counter() - pass_started
        if len(passes) >= MIN_PASSES[tracer is not None] and elapsed + last > args.seconds:
            break

    plain = [p["norm"] for p in passes if not p["traced"]]
    if tracer is None:
        metrics = {
            "pass_norm": {"value": statistics.median(plain), "unit": "calib"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
    else:
        metrics = traced_metrics(tracer, passes, plain, problems)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"{args.workload}-seed{args.seed}.trace.json")
    result = {
        "correct": not problems,
        "attempted": len(ops) * len(passes),
        "failed": failed,
        "metrics": metrics,
        "passes": [{k: v for k, v in p.items() if k in ("seconds", "calib", "norm", "traced", "segments")} for p in passes],
        "problems": problems,
    }
    print(json.dumps(result), flush=True)
    return 0


def traced_metrics(tracer, passes, plain, problems) -> dict:
    import tracing

    traced = [p for p in passes if p["traced"]]
    counts = traced[0]["counts"]
    for p in traced[1:]:
        if p["counts"] != counts:
            problems.append(f"traced passes disagree on counts: {p['counts']} != {counts}")
    metrics = {}
    for metric, span in tracing.SELF_TIMES.items():
        values = [p["self_norm"].get(span, 0.0) for p in traced]
        metrics[metric] = {"value": statistics.median(values), "unit": "calib"}
    for name in tracing.COUNTS:
        metrics[name] = {"value": counts[name], "unit": tracing.UNITS.get(name, "count")}
    traced_norm = statistics.median(p["norm"] for p in traced)
    metrics["trace.pass_norm"] = {"value": traced_norm, "unit": "calib"}
    metrics["trace.overhead_norm"] = {"value": traced_norm - statistics.median(plain), "unit": "calib"}
    return metrics


if __name__ == "__main__":
    sys.exit(main())
