"""Dense-model training: ResNet under Parallax vs the baselines.

The control experiment: with no sparse variables, Parallax's hybrid rule
reduces to pure AllReduce, so it must match Horovod exactly -- in losses,
in replica synchronization, and in per-iteration transfer bytes -- while
TF-PS moves a different byte profile through the parameter servers.

Usage::

    python examples/image_classification.py
"""

import numpy as np

from repro.cluster.spec import ClusterSpec
from repro.core.runner import DistributedRunner
from repro.core.transform.plan import graph_plan
from repro.graph import gradients
from repro.nn.models import build_resnet
from repro.nn.optimizers import MomentumOptimizer

CLUSTER = ClusterSpec(num_machines=2, gpus_per_machine=2)
ITERATIONS = 50


def build():
    model = build_resnet(batch_size=8, num_features=24, num_classes=5,
                         width=24, num_blocks=2, seed=0)
    with model.graph.as_default():
        grads_and_vars = gradients(model.loss)
        MomentumOptimizer(0.05, 0.9).update(grads_and_vars)
    return model


def top1_error(runner, model, iteration):
    feeds = runner.feeds_for(iteration)
    logits = runner.session.run(f"rep0/{model.logits.name}", feeds)
    _, labels = runner.shards[0].batch(model.batch_size, iteration)
    return float((np.argmax(logits, axis=-1) != labels).mean())


def main():
    results = {}
    for key in ("hybrid", "ar", "ps"):
        model = build()
        plan = graph_plan(model.graph, key)
        arch = plan.name
        runner = DistributedRunner(model, CLUSTER, plan, seed=3)
        losses = []
        for i in range(ITERATIONS):
            if i == ITERATIONS - 1:
                runner.transcript.clear()
            losses.append(runner.step(i).mean_loss)
        error = top1_error(runner, model, ITERATIONS)
        results[arch] = {
            "losses": losses,
            "bytes": runner.transcript.total_network_bytes(),
            "error": error,
            "ps_vars": len(runner.transformed.ps_placement),
        }
        print(f"{arch:10s} loss {losses[0]:.3f} -> {losses[-1]:.3f}  "
              f"top-1 error {error:.2f}  bytes/iter {results[arch]['bytes']:,}"
              f"  PS vars: {results[arch]['ps_vars']}")

    # Parallax on a dense model IS pure AllReduce.
    assert results["parallax"]["ps_vars"] == 0
    assert results["parallax"]["bytes"] == results["horovod"]["bytes"]
    assert np.allclose(results["parallax"]["losses"],
                       results["horovod"]["losses"], rtol=1e-5)
    print("\nparallax == horovod on the dense model (plan, bytes, losses)")

    assert results["parallax"]["losses"][-1] < \
        results["parallax"]["losses"][0] * 0.5
    print("model learned: loss halved")


if __name__ == "__main__":
    main()
