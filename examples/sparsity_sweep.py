"""Sparsity-degree sweep on the performance plane (paper section 6.6).

Prints Table 6 -- Parallax vs TF-PS throughput at paper scale (48 GPUs)
as the constructed LM's instance length (which controls alpha) varies,
the rows ``python -m repro.cli table6`` prints -- plus a per-component
breakdown of where each architecture spends an iteration.

Usage::

    python examples/sparsity_sweep.py
"""

from repro.cli import TABLE6_PARTITIONS, table6
from repro.cluster.plan import ARCHITECTURES, profile_plan
from repro.cluster.simulator import simulate_iteration
from repro.cluster.spec import PAPER_CLUSTER
from repro.nn.profiles import constructed_lm_profile


def main():
    table6(PAPER_CLUSTER)

    print("\niteration breakdown at length=8 (seconds):")
    profile = constructed_lm_profile(8)
    for arch in ("hybrid", "ps"):
        plan = profile_plan(profile, arch, TABLE6_PARTITIONS)
        b = simulate_iteration(profile, plan, PAPER_CLUSTER)
        print(f"  {ARCHITECTURES[arch].label}: compute={b.compute_time:.3f} "
              f"collective={b.collective_time:.3f} ps_net={b.ps_time:.3f} "
              f"server_cpu={b.server_cpu_time:.3f} "
              f"stitch={b.stitch_time:.3f} sync={b.sync_overhead_time:.3f} "
              f"-> iter={b.iteration_time:.3f}")


if __name__ == "__main__":
    main()
