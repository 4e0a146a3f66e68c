"""Sparsity-degree sweep on the performance plane (paper section 6.6).

Sweeps the constructed LM's instance length (which controls alpha) and
prints Parallax vs TF-PS throughput at paper scale (48 GPUs), plus a
per-component breakdown of where each architecture spends an iteration.

Usage::

    python examples/sparsity_sweep.py
"""

from repro.cluster.plan import ARCHITECTURES, profile_plan
from repro.cluster.simulator import simulate_iteration
from repro.cluster.spec import PAPER_CLUSTER
from repro.nn.profiles import TABLE6_ALPHA, constructed_lm_profile

PARTITIONS = 64


def throughput_of(profile, plan):
    breakdown = simulate_iteration(profile, plan, PAPER_CLUSTER)
    units = profile.units_per_iteration(PAPER_CLUSTER.total_gpus)
    return units / breakdown.iteration_time, breakdown


def main():
    print(f"{'length':>7} {'alpha':>6} {'parallax':>12} {'tf_ps':>12} "
          f"{'speedup':>8}")
    for length in sorted(TABLE6_ALPHA, reverse=True):
        profile = constructed_lm_profile(length)
        parallax_tp, px = throughput_of(
            profile, profile_plan(profile, "hybrid", PARTITIONS))
        tf_ps_tp, ps = throughput_of(
            profile, profile_plan(profile, "ps", PARTITIONS))
        print(f"{length:>7} {TABLE6_ALPHA[length]:>6.2f} "
              f"{parallax_tp:>11,.0f} {tf_ps_tp:>11,.0f} "
              f"{parallax_tp / tf_ps_tp:>7.2f}x")

    print("\niteration breakdown at length=8 (seconds):")
    profile = constructed_lm_profile(8)
    for arch in ("hybrid", "ps"):
        plan = profile_plan(profile, arch, PARTITIONS)
        b = simulate_iteration(profile, plan, PAPER_CLUSTER)
        print(f"  {ARCHITECTURES[arch].label}: compute={b.compute_time:.3f} "
              f"collective={b.collective_time:.3f} ps_net={b.ps_time:.3f} "
              f"server_cpu={b.server_cpu_time:.3f} "
              f"stitch={b.stitch_time:.3f} sync={b.sync_overhead_time:.3f} "
              f"-> iter={b.iteration_time:.3f}")


if __name__ == "__main__":
    main()
