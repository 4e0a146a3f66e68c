"""Runnable LM: an LSTM language model with a sparse word embedding.

A scaled-down Jozefowicz et al. big-LSTM (arXiv:1602.02410): embedding
lookup (sparse; the variable the paper's techniques exist for), a single
LSTM, a projection, and a full softmax over the vocabulary.  At test
scale the softmax weights are dense; the embedding gradient is
IndexedSlices, which is what classifies the model as sparse.

The graph is time-batched the way that model is: the LSTM's input
projection is one matmul over every timestep, the recurrence is one
``lstm_seq`` op (``layers.lstm``), and the projection, the logits matmul
and the softmax cross-entropy each run once over all ``batch*seq_len``
rows (``common.sequence_loss``).  No op is issued per timestep, so the
step's schedule length does not depend on ``seq_len``.
"""

from __future__ import annotations

from typing import Optional

from repro.graph import ops
from repro.graph.graph import Graph
from repro.nn import layers
from repro.nn.datasets import SyntheticTextDataset
from repro.nn.models.common import BuiltModel, sequence_loss


def build_lm(
    batch_size: int = 8,
    vocab_size: int = 120,
    seq_len: int = 4,
    emb_dim: int = 16,
    hidden: int = 24,
    num_partitions: int = 1,
    dataset: Optional[SyntheticTextDataset] = None,
    seed: int = 0,
) -> BuiltModel:
    """Build the LM graph; returns the single-GPU artifact."""
    if dataset is None:
        dataset = SyntheticTextDataset(
            size=512, vocab_size=vocab_size, seq_len=seq_len, seed=seed
        )
    graph = Graph()
    with graph.as_default():
        tokens = ops.placeholder((batch_size, seq_len), dtype="int64",
                                 name="tokens")
        targets = ops.placeholder((batch_size, seq_len), dtype="int64",
                                  name="targets")
        embedded, _ = layers.embedding(
            tokens, vocab_size, emb_dim, name="embedding",
            num_partitions=num_partitions,
        )
        states = layers.lstm(embedded, hidden, name="lstm")
        proj_w = layers.get_variable(
            "projection/kernel", (hidden, emb_dim),
            initializer=layers.glorot_initializer(),
        )
        softmax_w = layers.get_variable(
            "softmax/kernel", (emb_dim, vocab_size),
            initializer=layers.glorot_initializer(),
        )
        loss, logits = sequence_loss(states, targets, [proj_w, softmax_w])

    return BuiltModel(
        graph=graph,
        loss=loss,
        placeholders={"tokens": tokens, "targets": targets},
        dataset=dataset,
        batch_size=batch_size,
        logits=logits,
        label_key="targets",
        name="lm",
    )
