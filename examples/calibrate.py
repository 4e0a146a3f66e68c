"""Calibration report: simulated vs paper throughput for key experiments.

Runs the performance simulator for every (model, architecture) pair the
paper reports at 48 GPUs and prints simulated next to published numbers.
Used to tune the CostModel constants; the frozen defaults in
``repro.cluster.costmodel`` were chosen with this script.

Usage::

    python examples/calibrate.py
"""

from __future__ import annotations

from repro.cluster.costmodel import DEFAULT_COST_MODEL
from repro.cluster.plan import ARCHITECTURES, profile_plan
from repro.cluster.simulator import simulate_iteration, throughput
from repro.cluster.spec import PAPER_CLUSTER
from repro.nn.profiles import PAPER_PROFILES

# (model, architecture, paper throughput at 48 GPUs, units)
TARGETS = [
    ("resnet50", "ps", 5_800, "images/s"),
    ("resnet50", "ar", 7_600, "images/s"),
    ("resnet50", "hybrid", 7_600, "images/s"),
    ("inception_v3", "ps", 3_800, "images/s"),
    ("inception_v3", "ar", 5_900, "images/s"),
    ("inception_v3", "hybrid", 5_900, "images/s"),
    ("lm", "ar", 45_500, "words/s"),
    ("lm", "ps", 98_900, "words/s"),
    ("lm", "opt_ps", 250_000, "words/s"),
    ("lm", "hybrid", 274_000, "words/s"),
    ("nmt", "ar", 68_300, "words/s"),
    ("nmt", "ps", 102_000, "words/s"),
    ("nmt", "opt_ps", 116_000, "words/s"),
    ("nmt", "hybrid", 204_000, "words/s"),
]

# Partition counts the paper uses at 48 GPUs (Table 2 optima).
PARTITIONS = {"lm": 128, "nmt": 64}


def main(cost=DEFAULT_COST_MODEL, verbose: bool = True) -> float:
    profiles = PAPER_PROFILES()
    total_log_err = 0.0
    rows = []
    for model, kind, paper_value, units in TARGETS:
        profile = profiles[model]
        partitions = PARTITIONS.get(model, 1)
        plan = profile_plan(profile, kind, partitions)
        simulated = throughput(profile, plan, PAPER_CLUSTER, cost)
        ratio = simulated / paper_value
        import math

        total_log_err += abs(math.log(ratio))
        rows.append((model, kind, paper_value, simulated, ratio))
    if verbose:
        print(f"{'model':<14}{'arch':<10}{'paper':>12}{'simulated':>12}"
              f"{'ratio':>8}")
        for model, kind, paper_value, simulated, ratio in rows:
            label = ARCHITECTURES[kind].label
            print(f"{model:<14}{label:<10}{paper_value:>12,.0f}"
                  f"{simulated:>12,.0f}{ratio:>8.2f}")
        print(f"\nsum |log ratio| = {total_log_err:.3f}")
    return total_log_err


def show_breakdown(model: str, kind: str, partitions=None):
    profile = PAPER_PROFILES()[model]
    p = partitions if partitions is not None else PARTITIONS.get(model, 1)
    plan = profile_plan(profile, kind, p)
    b = simulate_iteration(profile, plan, PAPER_CLUSTER)
    print(f"--- {model} / {ARCHITECTURES[kind].label} (P={p}) "
          f"iter={b.iteration_time:.4f}s")
    for field in ("compute_time", "allreduce_time", "gatherv_time",
                  "gatherv_apply_time", "ps_network_time", "ps_rpc_time",
                  "server_cpu_time", "local_agg_time", "stitch_time",
                  "sync_overhead_time"):
        print(f"  {field:<22}{getattr(b, field):.4f}")


if __name__ == "__main__":
    main()
    for model in ("lm", "nmt"):
        for kind in ("ar", "ps", "opt_ps", "hybrid"):
            show_breakdown(model, kind)
