"""Benchmark of certified convex-matching-distance computations with cmdist.

Run from the root of a checkout:

    python3 perfbench/run.py --workload smooth-deg0 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

A run builds the workload's inputs from ``--seed``, then runs whole rounds of
the workload's operations, single-process and single-threaded, until the
rounds have taken ``--seconds`` (at least one round).  Every output is then
checked against independent computations.  The last line of stdout is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer metrics
from a traced run with ``--trace 1``.  The line before it holds the details:
environment, each operation's time in every round, and each failure with
its reason.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import tracing
import workloads

SETUP_SAMPLES = 5   # set-up runs in fresh interpreters; the median is reported


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=7, help="seed of the generated inputs")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="round time after which no new round starts")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run_rounds(ops, seconds: float, tracer=None):
    """Whole rounds of ``ops`` until their summed time reaches ``seconds``.

    Returns each operation's time in every round, and each round's
    (outputs, errors) by operation name.
    """
    op_times, rounds, spent = {name: [] for name, _ in ops}, [], 0.0
    while not rounds or spent < seconds:
        if tracer is not None:
            tracer.phase = f"round-{len(rounds)}"
        out, errors = {}, {}
        for name, op in ops:
            start = time.perf_counter()
            try:
                out[name] = op()
            except Exception as exc:  # counted as a failed operation; the run goes on
                errors[name] = f"{type(exc).__name__}: {exc}"
            op_times[name].append(time.perf_counter() - start)
            spent += op_times[name][-1]
        rounds.append((out, errors))
    return op_times, rounds


def round_seconds(op_times) -> float:
    """Time of one round: the sum over operations of each one's median time.

    The host's speed drops for seconds at a time when its other tenants are
    busy; the median drops such a stretch when it hits one operation in one
    round.
    """
    return sum(statistics.median(ts) for ts in op_times.values())


def judge(workload, n_ops: int, rounds) -> dict:
    """Check every round's outputs; count attempted and failed operations."""
    report = {"attempted": 0, "failed": 0, "failures": [], "problems": [], "evaluations": 0}
    for i, (out, errors) in enumerate(rounds):
        report["attempted"] += n_ops
        if errors:
            report["failed"] += len(errors)
            report["failures"] += [{"round": i, "op": k, "reason": v} for k, v in errors.items()]
            report["problems"].append(f"round {i}: not checked, an operation raised")
            continue
        for op, outcome in workload.check(out).items():
            report["evaluations"] += outcome.evaluations
            report["problems"] += [f"round {i}: {p}" for p in outcome.problems]
            if outcome.failure:
                report["failed"] += 1
                report["failures"].append({"round": i, "op": op, "reason": outcome.failure})
    return report


def setup_seconds(args) -> list[float]:
    """Set-up time (import cmdist, build inputs) in fresh interpreters."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return samples


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "numba": importlib.util.find_spec("numba") is not None,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
    }


def run_workload(args) -> tuple[dict, dict]:
    """One run; returns (result line, details)."""
    detail = {"workload": args.workload, "environment": environment(args.seed)}
    if args.trace:
        tracer = tracing.Tracer(f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
        tracer.install()
        workload = workloads.build(args.workload, args.seed)
        tracer.uninstall()
        ops = workload.ops()
        base_times, base_rounds = run_rounds(ops, args.seconds)
        tracer.install()
        try:
            op_times, rounds = run_rounds(ops, args.seconds, tracer)
        finally:
            tracer.uninstall()
        traced_round_s, untraced_round_s = round_seconds(op_times), round_seconds(base_times)
        metrics = tracing.layer_metrics(tracer.spans, len(rounds), traced_round_s,
                                        untraced_round_s)
        mean_round_s = sum(map(sum, op_times.values())) / len(rounds)
        detail.update(untraced_round_s=untraced_round_s, traced_round_s=traced_round_s,
                      layer_share=tracing.layer_shares(metrics, mean_round_s))
        os.makedirs(workloads.OUT_DIR, exist_ok=True)
        path = os.path.join(workloads.OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
        tracer.write(path)
        detail["spans"] = os.path.relpath(path, workloads.ROOT)
        rounds = base_rounds + rounds
    else:
        samples = setup_seconds(args)
        workload = workloads.build(args.workload, args.seed)
        ops = workload.ops()
        op_times, rounds = run_rounds(ops, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # before the checks
        detail["setup_samples_s"] = samples
    detail["op_s"] = op_times

    report = judge(workload, len(ops), rounds)
    evaluations = report["evaluations"] / len(rounds)
    detail.update(failures=report["failures"], problems=report["problems"][:20],
                  evaluations_per_round=evaluations)
    if not args.trace:
        solve_s = round_seconds(op_times)
        metrics = {
            "setup_s": (statistics.median(samples), "s"),
            "solve_s": (solve_s, "s"),
            "evals_per_s": (evaluations / solve_s, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    result = {
        "correct": not report["problems"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, detail


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        if done.returncode != 0:
            print(f"perfbench: workload {name} exited with status {done.returncode}", file=sys.stderr)
            return 1
        lines = done.stdout.strip().splitlines()
        print(lines[-2])
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, body in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = body
    for metric, body in combined["metrics"].items():
        print(f"{metric:<48} {body['value']:>14.6g} {body['unit']}", file=sys.stderr)
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not workloads.use_source_tree():
        print(f"perfbench: no cmdist package under {workloads.ROOT}/src; "
              "run from the root of a checkout of the repository", file=sys.stderr)
        return 2
    if args.setup_only:
        start = time.perf_counter()
        workloads.build(args.workload, args.seed)
        print(repr(time.perf_counter() - start))
        return 0
    if args.workload == "all":
        return run_all(args)
    result, detail = run_workload(args)
    for metric, body in result["metrics"].items():
        print(f"{metric:<36} {body['value']:>14.6g} {body['unit']}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
