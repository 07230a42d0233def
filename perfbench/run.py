"""The repository's benchmark: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload read-mostly --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload pressure-waves --steadiness 5

``--trace 0`` runs the workload on real ``kv_server`` (and SMD)
processes and prints the end-to-end metrics; ``--trace 1`` runs it
again for the untraced per-layer figures, then replays the same
operation stream in-process with timers around each layer and prints
the per-layer ledger. ``--steadiness N`` runs N seeds in child
processes and prints each metric's median, quartiles and spread.

The last stdout line is one JSON object with exactly the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it holds the host fingerprint, failures by class and any
problem the checks found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def host_fingerprint() -> dict:
    """CPU count and model, Python version, a fixed loop's speed."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.partition(":")[2].strip()
                    break
    except OSError:
        pass
    samples = []
    for __ in range(5):
        t0 = time.perf_counter_ns()
        total = 0
        for i in range(200_000):
            total += i & 7
        samples.append((time.perf_counter_ns() - t0) / 200_000)
    return {
        "cpus": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "calibration_ns_per_iter": round(statistics.median(samples), 3),
    }


def emit(tally, metrics: dict, host: dict, unscaled: dict) -> None:
    detail = {
        "host": host,
        "failures": tally.failures,
        "problems": tally.problems,
        "unscaled": {name: value for name, (value, __) in unscaled.items()},
    }
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not tally.problems and len(metrics) > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))


def run_once(args) -> int:
    from workloads import WORKLOADS, end_to_end, generate, run_process

    # every process of the run shares one CPU (children inherit the
    # mask): the closed loop's client/server hand-off then costs the
    # same in every run, instead of depending on where the scheduler
    # happened to place the two processes
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    host = host_fingerprint()
    workload = WORKLOADS[args.workload]
    inputs = generate(workload, args.seed, args.seconds)
    if args.trace:
        import ledger

        tally, metrics = ledger.per_layer(inputs, ROOT)
        unscaled: dict = {}
    else:
        tally, extra = run_process(inputs, ROOT)
        metrics = unscaled = {}
        if extra:
            metrics = end_to_end(tally, extra)
            unscaled = end_to_end(tally, extra, scaled=False)
    emit(tally, metrics, host, unscaled)
    return 0


def steadiness(args) -> int:
    """Run ``--steadiness`` seeds; print each metric's spread."""
    per_metric: dict[str, list[float]] = {}
    shares = set()
    for seed in range(1, args.steadiness + 1):
        child = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        try:
            stdout, __ = child.communicate(timeout=900)
        finally:
            # interrupted: let the run remove its own processes
            if child.poll() is None:
                child.terminate()
                child.wait()
        if child.returncode != 0:
            return 1
        lines = stdout.strip().splitlines()
        result = json.loads(lines[-1])
        unscaled = json.loads(lines[-2])["unscaled"]
        shares.add((result["failed"], result["attempted"]))
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              flush=True)
        for name, metric in result["metrics"].items():
            per_metric.setdefault(name, []).append(metric["value"])
        for name, value in unscaled.items():
            per_metric.setdefault(f"{name} unscaled", []).append(value)
    ratios = sorted({failed / attempted for failed, attempted in shares})
    print(f"failed/attempted shares seen: {ratios}")
    print(f"{'metric':37} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'(max-min)/med':>14}")
    for name, values in per_metric.items():
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else 0.0
        full = (max(values) - min(values)) / med if med else 0.0
        print(f"{name:37} {med:12.5g} {q1:12.5g} {q3:12.5g} "
              f"{spread:8.3f} {full:14.3f}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("read-mostly", "update-durable",
                                 "pressure-waves"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, default=0,
                        help="run this many seeds and report the spread")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # SIGTERM unwinds like an exception, so every spawned process and
    # scratch directory is still removed
    signal.signal(signal.SIGTERM, lambda *__: sys.exit(143))
    if args.steadiness:
        return steadiness(args)
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
