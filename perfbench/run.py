"""Run one benchmark workload, or all of them, and print the metrics.

    python3 perfbench/run.py --workload complete-z --seed 17 --seconds 25 --trace 0
    python3 perfbench/run.py --all --seed 17

A workload run builds its inputs from the seed and then runs rounds: one
round runs every op of the batch once, in order.  It starts another round
while the op time left in `--seconds` is at least the last round's wall time
(always at least one round).  Each op's time is its best (lowest) time over
the rounds: on a shared host, other tenants slow single ops down by up to 2x
for fractions of a second, and the best of many short repeats is the figure
that stays put.  `wall_s` is the sum of the best op times, `op_p50_s` their
median.  Every answer is checked outside the timed region.  `setup_s` is the
median wall time of fresh processes that only import `wph` and build the
inputs; one runs after each of the first rounds, so they sample the host at
several moments rather than in one burst.

The run prints one human-readable line per metric followed by a final JSON
line.  With `--trace 0` the JSON holds the end-to-end metrics; with
`--trace 1` the run adds one round with the layer wrappers installed and the
JSON holds the per-layer metrics instead.

`--all` runs each workload in its own fresh process and prints a summary.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

WORKLOAD_NAMES = ("complete-z", "grid-z", "certify-q", "hyper-cli")
SETUP_PROCESSES = 9
# Rounds take turns on the CPUs the run may use, each round pinned to one.  On
# a shared VM one vCPU is often slowed by its host neighbours while the other
# runs at full speed; the scheduler does not see this and may keep the run on
# the slow one.  Each op's best time then comes from the faster vCPU.
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
CHILD_TIMEOUT_S = 170


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--all", action="store_true", help="run every workload, each in a fresh process")
    p.add_argument("--seed", type=int, default=17)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.all == (args.workload is not None):
        p.error("give exactly one of --workload and --all")
    return args


def _run_round(batch, tracer=None) -> tuple:
    """Time every op once; returns (round wall, per-op times, answers or exceptions)."""
    times, answers = [], []
    start = perf_counter()
    for op in batch.ops:
        if tracer is not None:
            tracer.begin_op()
        t = perf_counter()
        try:
            answer = op.run()
        except Exception as exc:  # a failed op is counted, not fatal
            answer = exc
        times.append(perf_counter() - t)
        answers.append(answer)
    return perf_counter() - start, times, answers


def _problem(batch, i, answer):
    """What is wrong with op i's answer, or None."""
    if isinstance(answer, Exception):
        return f"{batch.ops[i].label}: raised {type(answer).__name__}: {answer}"
    problem = batch.check(i, answer)
    return None if problem is None else f"{batch.ops[i].label}: {problem}"


def _check(batch, rounds) -> list:
    """One problem per failed op of every round.

    Each op's first answer is checked against the reference or the oracle; a
    later answer equal to it shares its verdict, and any other answer fails.
    """
    first = rounds[0]
    verdicts = [_problem(batch, i, a) for i, a in enumerate(first)]
    problems = []
    for answers in rounds:
        for i, a in enumerate(answers):
            if a is first[i] or (not isinstance(a, Exception) and a == first[i]):
                problem = verdicts[i]
            else:
                problem = _problem(batch, i, a) or f"{batch.ops[i].label}: answer differs from the first round's"
            if problem is not None:
                problems.append(problem)
    return problems


def _pin(cpus) -> None:
    if len(CPUS) > 1:
        os.sched_setaffinity(0, cpus)


def _setup_time(args) -> float:
    """Wall time of one fresh process that only sets the workload up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
    t = perf_counter()
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
    elapsed = perf_counter() - t
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed: {proc.stderr.decode(errors='replace')}")
    return elapsed


def _print_metric(name, value, unit, samples) -> None:
    print(f"{name:30s} {value:14.6f} {unit:6s} (n={samples})")


def run_workload(args) -> int:
    try:
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    batch = workloads.WORKLOADS[args.workload](args.seed)
    try:
        if args.setup_only:
            return 0
        round_walls, best, round_answers, setup = [], [float("inf")] * len(batch.ops), [], []
        op_seconds = 0.0
        while True:
            _pin({CPUS[len(round_walls) % len(CPUS)]} if CPUS else set())
            wall, times, answers = _run_round(batch)
            _pin(set(CPUS))
            round_walls.append(wall)
            best = [min(b, t) for b, t in zip(best, times)]
            round_answers.append(answers)
            op_seconds += wall
            if len(setup) < SETUP_PROCESSES:
                setup.append(_setup_time(args))
            if op_seconds + wall > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        while len(setup) < SETUP_PROCESSES:
            setup.append(_setup_time(args))
        problems = _check(batch, round_answers)
        attempted = sum(len(answers) for answers in round_answers)

        traced = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced_wall, _, traced_answers = _run_round(batch, tracer)
            finally:
                tracer.uninstall()
            problems += _check(batch, [traced_answers])
            attempted += len(traced_answers)
            traced = tracer.metrics(traced_wall, min(round_walls))
    finally:
        batch.close()

    failed = len(problems)
    end_to_end = {
        "wall_s": (sum(best), "s", len(round_walls)),
        "op_p50_s": (statistics.median(best), "s", len(best)),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
        "setup_s": (statistics.median(setup), "s", len(setup)),
    }
    print(f"# workload={args.workload} seed={args.seed} rounds={len(round_walls)} "
          f"ops_per_batch={len(batch.ops)} trace={args.trace}")
    for note in batch.notes:
        print(f"# note: {note}")
    for problem in problems:
        print(f"# FAILED {problem}")
    for name, (value, unit, n) in end_to_end.items():
        _print_metric(name, value, unit, n)
    _print_metric("error_rate", failed / attempted, "ratio", attempted)
    if traced is not None:
        for name, m in traced.items():
            _print_metric(name, m["value"], m["unit"], 1)
        metrics = traced
    else:
        metrics = {name: {"value": v, "unit": u} for name, (v, u, _) in end_to_end.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Run every workload in a fresh process; print its lines and a summary."""
    summary, status = [], 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            summary.append(f"{name:12s} exit code {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        if not result["correct"]:
            status = 1
        cells = "  ".join(f"{k}={m['value']:.4g}{m['unit']}" for k, m in result["metrics"].items())
        summary.append(f"{name:12s} failed={result['failed']}/{result['attempted']}  {cells}")
    print("# summary")
    for line in summary:
        print(line)
    return status


def main(argv=None) -> int:
    args = _parse_args(argv)
    return run_all(args) if args.all else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
