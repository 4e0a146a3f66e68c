"""Quickstart: distribute a single-GPU model with three lines of Parallax.

Mirrors the paper's Figure 3: build an ordinary single-GPU graph, mark
the input data with ``parallax.shard``, wrap the embedding in
``parallax.partitioner()``, and hand everything to
``parallax.get_runner``.  Parallax classifies variable sparsity from
gradient types, picks the hybrid architecture, searches the partition
count, transforms the graph, and returns the runner.

Usage::

    python examples/quickstart.py
"""

import numpy as np

import repro as parallax
from repro.graph import gradients, ops
from repro.graph.graph import Graph
from repro.nn import layers
from repro.nn.datasets import SyntheticTextDataset
from repro.nn.models.common import BuiltModel, sequence_loss
from repro.nn.optimizers import GradientDescentOptimizer

BATCH = 8
SEQ_LEN = 4
VOCAB = 200
EMB_DIM = 16
HIDDEN = 24


def build_model() -> BuiltModel:
    """An ordinary single-GPU LSTM language model (paper Figure 3)."""
    dataset = parallax.shard(                                  # line 6
        SyntheticTextDataset(size=2048, vocab_size=VOCAB, seq_len=SEQ_LEN,
                             seed=0)
    )
    graph = Graph()
    with graph.as_default():
        tokens = ops.placeholder((BATCH, SEQ_LEN), dtype="int64",
                                 name="tokens")
        targets = ops.placeholder((BATCH, SEQ_LEN), dtype="int64",
                                  name="targets")

        with parallax.partitioner():                           # line 9
            embedded, _ = layers.embedding(tokens, VOCAB, EMB_DIM,
                                           name="embedding")

        hidden_states = layers.lstm(embedded, HIDDEN, name="lstm")
        softmax_w = layers.get_variable(
            "softmax/kernel", (HIDDEN, VOCAB),
            initializer=layers.glorot_initializer(),
        )
        loss, _ = sequence_loss(hidden_states, targets, [softmax_w])

        grads_and_vars = gradients(loss)
        optimizer = GradientDescentOptimizer(0.5)
        optimizer.update(grads_and_vars)

    return BuiltModel(
        graph=graph, loss=loss,
        placeholders={"tokens": tokens, "targets": targets},
        dataset=dataset, batch_size=BATCH, name="quickstart_lm",
    )


def main():
    resource_info = {"machines": 2, "gpus_per_machine": 2}
    runner = parallax.get_runner(                              # line 19
        build_model, resource_info,
        parallax.ParallaxConfig(max_partitions=16),
    )

    print(f"replicas: {runner.num_replicas}")
    print(f"plan: {runner.transformed.plan.name}")
    print(f"PS variables: {sorted(runner.transformed.ps_placement)}")
    print(f"AR variables: {sorted(runner.transformed.replica_variables)}")
    if runner.partition_search is not None:
        search = runner.partition_search
        print(f"partition search: sampled {search.samples} "
              f"-> P={search.best_partitions}")

    for i in range(40):                                        # line 24-25
        result = runner.step(i)
        if i % 10 == 0 or i == 39:
            print(f"iter {i:3d}  loss {result.mean_loss:.4f}  "
                  f"perplexity {np.exp(result.mean_loss):8.2f}")

    bytes_moved = runner.transcript.total_network_bytes()
    print(f"\ncross-machine bytes over the run: {bytes_moved:,}")


if __name__ == "__main__":
    main()
