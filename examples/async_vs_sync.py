"""Asynchronous vs synchronous PS training (paper section 2.1).

The paper assumes synchronous training for its experiments but notes that
"Parallax supports both synchronous and asynchronous training."  This
example trains the LM both ways on the functional engine and shows the
async trajectory diverging (staleness: each worker applies its gradients
without waiting), while both modes converge.

Usage::

    python examples/async_vs_sync.py
"""

from dataclasses import replace

from repro.cluster.spec import ClusterSpec
from repro.core.runner import DistributedRunner
from repro.core.transform.plan import graph_plan
from repro.graph import gradients
from repro.nn.models import build_lm
from repro.nn.optimizers import GradientDescentOptimizer

CLUSTER = ClusterSpec(num_machines=2, gpus_per_machine=2)
ITERATIONS = 40


def build():
    model = build_lm(batch_size=8, vocab_size=60, seq_len=3, emb_dim=10,
                     hidden=12, num_partitions=2, seed=0)
    with model.graph.as_default():
        grads_and_vars = gradients(model.loss)
        GradientDescentOptimizer(0.8).update(grads_and_vars)
    return model


def main():
    trajectories = {}
    for mode, asynchronous in (("sync", False), ("async", True)):
        model = build()
        # OptPS; an asynchronous worker applies its own gradients, so
        # there is no per-machine aggregate to build.
        plan = replace(graph_plan(model.graph, "opt_ps"),
                       local_aggregation=not asynchronous,
                       asynchronous=asynchronous)
        runner = DistributedRunner(model, CLUSTER, plan, seed=9)
        losses = [runner.step(i).mean_loss for i in range(ITERATIONS)]
        trajectories[mode] = losses
        print(f"{mode:6s} loss {losses[0]:.4f} -> {losses[-1]:.4f}")

    sync, async_ = trajectories["sync"], trajectories["async"]
    assert sync[-1] < sync[0] and async_[-1] < async_[0], "both converge"
    divergence = max(abs(a - s) for a, s in zip(async_[1:], sync[1:]))
    assert divergence > 1e-6, "async must take a different trajectory"
    print(f"\nboth modes converge; max per-iteration divergence "
          f"{divergence:.5f} (staleness effect)")

    # Async replica losses within one iteration reflect evolving state.
    model = build()
    runner = DistributedRunner(
        model, CLUSTER,
        replace(graph_plan(model.graph, "ps"), asynchronous=True), seed=9)
    result = runner.step(0)
    print(f"async replica losses (computed against evolving variables): "
          f"{['%.4f' % loss for loss in result.replica_losses]}")


if __name__ == "__main__":
    main()
