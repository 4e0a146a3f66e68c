"""Shared plumbing for the runnable model zoo."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.graph import ops
from repro.graph.graph import Graph, Tensor
from repro.graph.variables import Variable
from repro.nn.datasets import Dataset


@dataclass
class BuiltModel:
    """A single-GPU model graph plus everything needed to feed it.

    Attributes:
        graph: the single-GPU computation graph.
        loss: scalar loss tensor.
        placeholders: name -> placeholder tensor (fed from dataset batches).
        dataset: the dataset this model trains on.
        batch_size: per-replica batch size.
        logits: optional prediction tensor for accuracy-style metrics.
        label_key: which placeholder holds the labels ``logits`` predicts.
    """

    graph: Graph
    loss: Tensor
    placeholders: Dict[str, Tensor]
    dataset: Dataset
    batch_size: int
    logits: Optional[Tensor] = None
    label_key: Optional[str] = None
    name: str = "model"

    def feed(self, batch: Tuple[np.ndarray, ...]) -> Dict[Tensor, np.ndarray]:
        """Map a dataset batch (positional arrays) onto the placeholders."""
        keys = list(self.placeholders)
        if len(batch) != len(keys):
            raise ValueError(
                f"batch has {len(batch)} arrays but model {self.name!r} "
                f"expects {len(keys)} placeholders ({keys})"
            )
        return {self.placeholders[k]: arr for k, arr in zip(keys, batch)}


def sequence_loss(states: Tensor, targets: Tensor,
                  kernels: Sequence[Variable]) -> Tuple[Tensor, Tensor]:
    """The batched output layer of a sequence model: ``(loss, logits)``.

    *states* is ``layers.lstm``'s ``(batch, seq*hidden)`` state sequence.
    Reshaped to ``batch*seq`` rows, row ``b*seq + t`` is step ``t``'s
    state of example ``b`` and lines up with ``reshape(targets,
    (batch*seq,))``; the output head (a chain of matmuls by *kernels*)
    and one ``softmax_xent`` run over all of them.  The mean over those
    rows equals the mean of per-step means.

    ``logits`` is the head applied to a slice of the last step only, for
    serving: it shares the weights, a training plan prunes it, and a
    forward-only plan never computes the ``seq`` times larger training
    logits.
    """
    batch, seq_len = targets.spec.shape
    hidden = states.spec.shape[1] // seq_len

    def head(x: Tensor, scope: str) -> Tensor:
        for i, kernel in enumerate(kernels):
            x = ops.matmul(x, kernel.tensor, name=f"{scope}/matmul{i}")
        return x

    rows = ops.reshape(states, (batch * seq_len, hidden), name="h_rows")
    labels = ops.reshape(targets, (batch * seq_len,), name="label_rows")
    loss = ops.softmax_xent(head(rows, "output"), labels, name="loss")
    last = ops.slice_axis(states, (seq_len - 1) * hidden, seq_len * hidden,
                          axis=1, name="h_last")
    return loss, head(last, "logits")
