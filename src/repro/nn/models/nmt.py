"""Runnable NMT: encoder/decoder LSTMs with two sparse embeddings.

A scaled-down GNMT: source embedding -> encoder LSTM; the encoder's final
hidden state conditions a decoder LSTM over target embeddings; a shared
softmax produces per-step translation logits.  Both embeddings produce
IndexedSlices gradients; the LSTM kernels and softmax are dense -- the
balanced dense/sparse mix the paper highlights for NMT (44% sparse).
"""

from __future__ import annotations

from typing import Optional

from repro.graph import ops
from repro.graph.graph import Graph
from repro.nn import layers
from repro.nn.datasets import TranslationDataset
from repro.nn.models.common import BuiltModel, sequence_loss


def build_nmt(
    batch_size: int = 8,
    src_vocab: int = 100,
    tgt_vocab: int = 100,
    src_len: int = 4,
    tgt_len: int = 4,
    emb_dim: int = 16,
    hidden: int = 16,
    num_partitions: int = 1,
    dataset: Optional[TranslationDataset] = None,
    seed: int = 0,
) -> BuiltModel:
    """Build the NMT graph; returns the single-GPU artifact."""
    if emb_dim != hidden:
        raise ValueError(
            "this NMT variant conditions the decoder by adding the encoder "
            "state to target embeddings; emb_dim must equal hidden"
        )
    if dataset is None:
        dataset = TranslationDataset(
            size=512, src_vocab=src_vocab, tgt_vocab=tgt_vocab,
            src_len=src_len, tgt_len=tgt_len, seed=seed,
        )
    graph = Graph()
    with graph.as_default():
        src = ops.placeholder((batch_size, src_len), dtype="int64", name="src")
        tgt = ops.placeholder((batch_size, tgt_len), dtype="int64", name="tgt")

        src_emb, _ = layers.embedding(
            src, src_vocab, emb_dim, name="encoder/embedding",
            num_partitions=num_partitions,
        )
        # The final encoder state conditions every decoder step.
        context = ops.slice_axis(
            layers.lstm(src_emb, hidden, name="encoder/lstm"),
            (src_len - 1) * hidden, src_len * hidden, axis=1,
            name="encoder/last_state")

        tgt_emb, _ = layers.embedding(
            tgt, tgt_vocab, emb_dim, name="decoder/embedding",
            num_partitions=num_partitions,
        )
        context_seq = ops.concat(
            [ops.reshape(context, (batch_size, 1, hidden),
                         name="context/step")] * tgt_len,
            axis=1, name="context/seq")
        dec_states = layers.lstm(
            ops.add(tgt_emb, context_seq, name="dec_in"), hidden,
            name="decoder/lstm")

        softmax_w = layers.get_variable(
            "softmax/kernel", (hidden, tgt_vocab),
            initializer=layers.glorot_initializer(),
        )
        loss, logits = sequence_loss(dec_states, tgt, [softmax_w])

    return BuiltModel(
        graph=graph,
        loss=loss,
        placeholders={"src": src, "tgt": tgt},
        dataset=dataset,
        batch_size=batch_size,
        logits=logits,
        label_key="tgt",
        name="nmt",
    )
