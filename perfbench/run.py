"""The gcls benchmark: replay one seeded workload through the CLI code path.

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 20 --trace 0

Load model: a closed loop, one client in one process and one thread.  Each
request is one ``gcls.cli.main(argv)`` call on one generated file, in
process with stdout captured, so it pays argparse, file read, parse,
compute and format like the ``gcls`` script, while interpreter start and
``import gcls`` are paid once and reported as set-up.  The loop replays
whole passes over the workload's request list until ``--seconds`` have
passed, so every run has the same request mix.  Responses are checked by
the gate after the loop.

A request's latency is the fastest of its repeats in the run: on a shared
host, interference only ever adds time, and it comes in stretches of
seconds that would otherwise decide a whole run's figures.  The latency
percentiles are taken over the requests of one pass (at least 110, so at
least 10 lie beyond p90), and requests_per_s is the number of requests of a
pass answered correctly divided by the sum of their latencies.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` first runs the
untraced benchmark in a fresh process, then replays the workload with every
public ``gcls`` function wrapped and prints the per-layer metrics (totals
per pass) together with the tracing overhead; the spans of the last traced
run of each workload are kept in ``.perfbench_out/``.  The last line of output is one JSON object; the exit
code is 1 when a response was wrong.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from typing import Callable, Dict, List, Optional, Tuple

import workloads
from workloads import ROOT, WORKLOADS, Request

#: Fresh-process set-ups timed before the first pass (one more follows
#: every pass); setup_s is their median.
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 170

#: Per-layer metrics read off the trace summary: name -> unit.
LAYER_STATS = {
    "cli.parse_gcls.calls": "count",
    "cli.parse_gcls.self_ms": "ms",
    "cli.emit_gcls.self_ms": "ms",
    "cli.emit_dimacs.self_ms": "ms",
    "core.MultiClauseSet.builds": "count",
    "core.MultiClauseSet.self_ms": "ms",
    "core.apply.calls": "count",
    "core.restrict.calls": "count",
    "matching.surplus.calls": "count",
    "matching.surplus.self_ms": "ms",
    "matching.IncidenceGraph.builds": "count",
    "matching.max_deficiency.self_ms": "ms",
    "matching.matching_lean_kernel.self_ms": "ms",
    "matching.is_matching_lean.calls": "count",
    "matching.is_matching_lean.self_ms": "ms",
    "matching.matching_satisfying_assignment.calls": "count",
    "matching.matching_satisfying_assignment.self_ms": "ms",
    "matching.quasi_maximal_matching_autarky.calls": "count",
    "reductions.s_reduction_with_log.calls": "count",
    "reductions.s_reduction_with_log.self_ms": "ms",
    "reductions.is_singular.calls": "count",
    "reductions.resolvents.calls": "count",
    "reductions.lift_through_steps.self_ms": "ms",
    "reductions.singular_dp.calls": "count",
    "reductions.singular_dp.self_ms": "ms",
    "satdec.sat_fpt.calls": "count",
    "satdec.sat_fpt.self_ms": "ms",
    "satdec.sat_fpt.leaves": "count",
    "satdec.brute_force_sat.calls": "count",
    "satdec.brute_force_sat.self_ms": "ms",
    "satdec.brute_force_sat.raised": "count",
    "satdec.sat_bounded_deficiency.self_ms": "ms",
    "satdec.find_nontrivial_autarky_bounded.self_ms": "ms",
    "translate.direct_weak.self_ms": "ms",
    "translate.direct_strong.self_ms": "ms",
    "translate.nested.self_ms": "ms",
    "translate.reduced.self_ms": "ms",
    "translate.logarithmic.self_ms": "ms",
    "structure.classify_hitting.self_ms": "ms",
    "structure.conflict_matrix.self_ms": "ms",
    "structure.hermitian_rank.self_ms": "ms",
    "musat.recognize_mu1.self_ms": "ms",
    "musat.classify_mu1.self_ms": "ms",
    "musat.format_tree.self_ms": "ms",
    "encode.vdw_instance.self_ms": "ms",
}


class Replay:
    """Outcome of a closed-loop replay: latencies and distinct responses."""

    def __init__(self) -> None:
        self.latencies: List[float] = []  # in replay order, pass after pass
        self.responses: List[Counter] = []  # per request: (code, out) -> times
        self.passes = 0
        self.wall = 0.0

    def best_ms(self) -> List[float]:
        """Per request, its fastest repeat in milliseconds."""
        n = len(self.responses)
        return [min(self.latencies[i::n]) * 1000.0 for i in range(n)]

    def requests_per_s(self, wrong: List[int]) -> float:
        """Correct requests of one pass per second of their best latencies."""
        best = self.best_ms()
        return (len(best) - len(wrong)) / (sum(best) / 1000.0)


def replay(cli, requests: List[Request], seconds: float, tracer=None,
           between_passes: Callable[[], None] = lambda: None) -> Replay:
    """Whole passes over the requests until ``seconds`` have elapsed."""
    result = Replay()
    result.responses = [Counter() for _ in requests]
    clock = time.perf_counter
    start = clock()
    while True:
        for index, request in enumerate(requests):
            if tracer is not None:
                tracer.request = result.passes * len(requests) + index
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                t0 = clock()
                try:
                    code = cli.main(list(request.argv))
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 2
                except Exception as exc:  # an exception escaping main fails the request
                    code, out = None, io.StringIO(f"{type(exc).__name__}: {exc}")
                t1 = clock()
            result.latencies.append(t1 - t0)
            result.responses[index][(code, out.getvalue())] += 1
        result.passes += 1
        between_passes()
        if clock() - start >= seconds:
            break
    result.wall = clock() - start
    return result


def check(cli, requests: List[Request], run: Replay
          ) -> Tuple[int, List[int], List[str]]:
    """Failed request count, the indices of the requests that failed at
    least once, and one line per distinct wrong response."""
    from gate import Gate

    gate, failed, wrong, reasons = Gate(cli), 0, [], []
    for index, (request, responses) in enumerate(zip(requests, run.responses)):
        for (code, out), times in responses.items():
            reason = ("exception escaped main: " + out if code is None
                      else gate.check(request, code, out))
            if reason is not None:
                failed += times
                wrong.append(index)
                reasons.append(f"{request.label}: {reason}")
    return failed, sorted(set(wrong)), reasons


def time_setup(workload: str, seed: int, workdir: str) -> float:
    """Wall time of a fresh process that imports gcls and writes the files.

    Waits without a timeout: a timed wait polls with sleeps of up to 50 ms,
    which would round the measurement.
    """
    argv = [sys.executable, os.path.join(ROOT, "perfbench", "workloads.py"),
            "--workload", workload, "--seed", str(seed), "--workdir", workdir]
    t0 = time.perf_counter()
    subprocess.run(argv, check=True)
    return time.perf_counter() - t0


def end_to_end(cli, args, workdir: str) -> Tuple[Dict, int, List[str], int]:
    def probe() -> None:
        setups.append(time_setup(args.workload, args.seed, workdir + "-setup"))

    # set-up is timed before the first pass and after every pass, so the
    # probes spread over the run like the requests do
    setups: List[float] = []
    for _ in range(SETUP_PROBES):
        probe()
    requests = workloads.prepare(args.workload, args.seed, workdir)
    run = replay(cli, requests, args.seconds, between_passes=probe)
    failed, wrong, reasons = check(cli, requests, run)
    attempted = len(run.latencies)
    best = run.best_ms()
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "requests_per_s": (run.requests_per_s(wrong), "1/s"),
        "latency_ms_p50": (statistics.median(best), "ms"),
        "latency_ms_p90": (statistics.quantiles(best, n=10)[-1], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    print(f"# {args.workload}: {run.passes} passes of {len(requests)} requests, "
          f"{attempted} samples, {run.wall:.2f} s; failed_ratio "
          f"{failed / attempted:.4f} ({failed}/{attempted})")
    return metrics, attempted, reasons, failed


def untraced_child(args) -> Dict:
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    child = subprocess.run(argv, capture_output=True, text=True,
                           timeout=CHILD_TIMEOUT_S)
    return json.loads(child.stdout.splitlines()[-1])


def per_layer(cli, args, workdir: str) -> Tuple[Dict, int, List[str], int]:
    from spans import Tracer

    untraced = untraced_child(args)
    requests = workloads.prepare(args.workload, args.seed, workdir)
    tracer = Tracer()
    tracer.install()
    try:
        run = replay(cli, requests, args.seconds, tracer)
    finally:
        tracer.uninstall()
    failed, wrong, reasons = check(cli, requests, run)
    if not untraced["correct"]:
        reasons.append("the untraced run reported wrong responses")
    totals = tracer.summary()
    for name in LAYER_STATS:
        if name not in totals:
            print(f"# {name}: no such traced function in gcls, reported as 0")
    metrics = {name: (totals.get(name, 0) / run.passes, unit)
               for name, unit in LAYER_STATS.items()}
    parse_ms = totals.get("cli.parse_gcls.self_ms", 0.0)
    metrics["cli.parse_gcls.clauses_per_ms"] = (
        totals.get("cli.parse_gcls.clauses", 0) / parse_ms if parse_ms else 0.0, "1/ms")
    surplus_calls = totals.get("matching.surplus.calls", 0)
    metrics["matching.graphs_per_surplus"] = (
        totals["matching.surplus.graphs"] / surplus_calls if surplus_calls else 0.0,
        "ratio")
    traced_rps = run.requests_per_s(wrong)
    untraced_rps = untraced["metrics"]["requests_per_s"]["value"]
    metrics["trace.untraced_requests_per_s"] = (untraced_rps, "1/s")
    metrics["trace.traced_requests_per_s"] = (traced_rps, "1/s")
    metrics["trace.overhead_ratio"] = (untraced_rps / traced_rps, "ratio")
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write(os.path.join(out_dir, f"spans-{args.workload}.jsonl"))
    print(f"# {args.workload} traced: {run.passes} passes, "
          f"{len(tracer.span_name)} spans, overhead x{untraced_rps / traced_rps:.2f}")
    return (metrics, len(run.latencies) + untraced["attempted"], reasons,
            failed + untraced["failed"])


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    cli = workloads.import_gcls()
    work_root = os.path.join(ROOT, ".perfbench_work")
    workdir = os.path.join(work_root, f"{args.workload}-{args.seed}-{os.getpid()}")
    measure = per_layer if args.trace else end_to_end
    try:
        metrics, attempted, reasons, failed = measure(cli, args, workdir)
    finally:
        for path in (workdir, workdir + "-setup"):
            shutil.rmtree(path, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:  # not empty: another run is using it
            pass
    for reason in reasons:
        print(f"# FAILED {reason}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    correct = not reasons and failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
