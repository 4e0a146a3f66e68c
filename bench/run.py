"""Command line of the benchmark.

``python -m bench --workload W --seed N --seconds S --trace 0|1`` is one
run: one workload, untraced end-to-end metrics or traced per-layer ones,
ending in the one-line JSON object the driver reads.  Without ``--trace``
the command runs both modes of every (or the named) workload, each in a
fresh interpreter so one run's peak memory cannot reach the next, and
writes the combined result file ``bench.compare`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import List, Optional

from bench import hygiene, serving, training
from bench.harness import (
    FULL,
    SMOKE,
    SMOKE_SECONDS,
    RunResult,
    print_metrics,
)

WORKLOADS = tuple(training.TRAINING) + (serving.NAME,)
DEFAULT_SECONDS = 18
DEFAULT_OUT_DIR = os.path.join(hygiene.REPO_ROOT, ".bench_out")


def run_one(workload: str, seed: int, seconds: float, trace: int,
            smoke: bool, out_dir: str) -> RunResult:
    scale = SMOKE if smoke else FULL
    if smoke:
        seconds = SMOKE_SECONDS
    if workload == serving.NAME:
        if trace:
            return serving.run_traced(seed, seconds, scale, out_dir)
        return serving.run_end_to_end(seed, seconds, scale)
    spec = training.TRAINING[workload]
    if trace:
        return training.run_traced(spec, seed, scale, out_dir)
    return training.run_end_to_end(spec, seed, seconds, scale)


def _detail_path(out_dir: str, workload: str, trace: int, seed: int) -> str:
    return os.path.join(out_dir, f"{workload}.trace{trace}.seed{seed}.json")


def leaf(args) -> int:
    result = run_one(args.workload, args.seed, args.seconds, args.trace,
                     args.smoke, args.out_dir)
    print_metrics(result.workload, result.metrics)
    for failure in result.failures:
        print(f"FAILED: {failure}", flush=True)
    os.makedirs(args.out_dir, exist_ok=True)
    with open(_detail_path(args.out_dir, args.workload, args.trace,
                           args.seed), "w") as f:
        json.dump(result.detail(), f, indent=1)
    print(result.contract_line(), flush=True)
    return 0 if result.failed == 0 else 1


def all_runs(args) -> int:
    fingerprint = hygiene.fingerprint(args.seed)
    print("host: " + json.dumps(fingerprint), flush=True)
    names = [args.workload] if args.workload else list(WORKLOADS)
    report = {"fingerprint": fingerprint, "seed": args.seed,
              "seconds": args.seconds, "smoke": args.smoke, "workloads": {}}
    status = 0
    for name in names:
        entry = report["workloads"][name] = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            command = [sys.executable, "-m", "bench", "--workload", name,
                       "--seed", str(args.seed), "--seconds",
                       str(args.seconds), "--trace", str(trace),
                       "--out-dir", args.out_dir]
            if args.smoke:
                command.append("--smoke")
            code = subprocess.run(command, cwd=hygiene.REPO_ROOT,
                                  timeout=600).returncode
            status = status or code
            try:
                with open(_detail_path(args.out_dir, name, trace,
                                       args.seed)) as f:
                    entry[key] = json.load(f)
            except (OSError, ValueError):
                status = 1
    path = os.path.join(args.out_dir, f"result.seed{args.seed}.json")
    with open(path, "w") as f:
        json.dump(report, f, indent=1)
    attempted = sum(mode["attempted"] for entry in report["workloads"].values()
                    for mode in entry.values())
    failed = sum(mode["failed"] for entry in report["workloads"].values()
                 for mode in entry.values())
    print(f"operations attempted {attempted}, failed {failed}; wrote {path}",
          flush=True)
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="length of one end-to-end measuring window")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="one run only: 0 end-to-end, 1 per-layer")
    parser.add_argument("--smoke", action="store_true",
                        help="a few steps per workload; proves the plumbing")
    parser.add_argument("--out-dir", default=DEFAULT_OUT_DIR,
                        help="where result and trace files go")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.trace is None:
        return all_runs(args)
    if args.workload is None:
        parser.error("--trace needs --workload")
    return leaf(args)
