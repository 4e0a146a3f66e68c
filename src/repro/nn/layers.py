"""Layer builders over the graph IR.

Layers are plain functions that create variables and wire ops; there is no
layer object state beyond the variables registered in the graph, which
keeps the single-GPU graph fully introspectable -- the property Parallax's
transformation depends on.

Why convolution is a proxy.  The dense image models (ResNet-50,
Inception-v3) matter to the paper only through their *variable
inventory* and FLOP cost; the distributed machinery never looks inside a
conv kernel.  :func:`conv_block` therefore implements convolution as a
patch-matmul over a channel-flattened input: it has real weights, real
gradients, and the right asymptotic cost, while keeping the runnable
models fast enough for tests.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.graph import ops
from repro.graph.graph import Tensor
from repro.graph.variables import (
    PartitionedVariable,
    Variable,
    get_variable,
    glorot_initializer,
    normal_initializer,
    zeros_initializer,
)


def dense(x: Tensor, units: int, name: str, activation: Optional[str] = None,
          use_bias: bool = True) -> Tensor:
    """Fully connected layer ``activation(x @ W + b)``."""
    in_dim = x.spec.shape[-1]
    w = get_variable(f"{name}/kernel", (in_dim, units),
                     initializer=glorot_initializer())
    out = ops.matmul(x, w.tensor, name=f"{name}/matmul")
    if use_bias:
        b = get_variable(f"{name}/bias", (units,),
                         initializer=zeros_initializer)
        out = ops.add_bias(out, b.tensor, name=f"{name}/bias_add")
    return _activate(out, activation, name)


def conv_block(x: Tensor, features_out: int, name: str,
               activation: Optional[str] = "relu") -> Tensor:
    """Convolution proxy: a dense projection standing in for a conv layer.

    The module docstring says why this is a faithful substitution at the
    level the paper's experiments observe.
    """
    in_dim = x.spec.shape[-1]
    w = get_variable(f"{name}/conv_kernel", (in_dim, features_out),
                     initializer=glorot_initializer())
    out = ops.matmul(x, w.tensor, name=f"{name}/conv")
    return _activate(out, activation, name)


def residual_block(x: Tensor, features: int, name: str) -> Tensor:
    """Two conv proxies plus a skip connection (the ResNet building block)."""
    h = conv_block(x, features, f"{name}/conv1", activation="relu")
    h = conv_block(h, x.spec.shape[-1], f"{name}/conv2", activation=None)
    out = ops.add(x, h, name=f"{name}/skip_add")
    return ops.relu(out, name=f"{name}/out_relu")


def embedding(ids: Tensor, vocab_size: int, dim: int, name: str,
              num_partitions: Optional[int] = None,
              ) -> Tuple[Tensor, Union[Variable, PartitionedVariable]]:
    """Embedding lookup; partitioned when ``num_partitions > 1``.

    Returns ``(embedded, variable)``.  The lookup goes through ``gather``
    (unpartitioned) or ``part_gather`` (partitioned), so the embedding's
    gradient is IndexedSlices-typed -- this is what makes a model "sparse"
    in the paper's sense.

    When ``num_partitions`` is None and the call happens inside a
    ``parallax.partitioner()`` scope, the scope's active partition count
    applies (the value Parallax's search is currently sampling).
    """
    if num_partitions is None:
        from repro.core.partition_context import active_partitions

        num_partitions = active_partitions() or 1
    num_partitions = min(num_partitions, vocab_size)
    init = normal_initializer(stddev=0.05)
    if num_partitions > 1:
        pvar = PartitionedVariable(name, (vocab_size, dim), num_partitions,
                                   initializer=init)
        return pvar.lookup(ids, name=f"{name}/lookup"), pvar
    var = get_variable(name, (vocab_size, dim), initializer=init)
    return ops.gather(var.tensor, ids, name=f"{name}/lookup"), var


def lstm(x_seq: Tensor, hidden: int, name: str) -> Tensor:
    """LSTM over a ``(batch, seq, dim)`` input sequence.

    Returns the ``(batch, seq*hidden)`` state sequence: columns
    ``[t*hidden, (t+1)*hidden)`` are the hidden state after step ``t``.

    The input projection is hoisted out of the recurrence (Appleyard et
    al., arXiv:1604.01946): one ``lstm/kernel`` variable is sliced into
    its input rows ``W_x`` and recurrent rows ``W_h``, and every
    timestep's ``x_t @ W_x + b`` comes from one ``(batch*seq, dim)``
    matmul.  The recurrence itself is one ``lstm_seq`` op whose VJP runs
    backpropagation through time (``repro.tensor.math`` says why both
    keep the bits of the cell built from primitive ops).  The two kernel
    slices tile the kernel, so its gradient is one ``concat``
    (``repro.graph.gradients``) and the variable set is the same as a
    per-step ``[x, h] @ W``.
    """
    batch, steps, in_dim = x_seq.spec.shape
    if not steps:
        raise ValueError("lstm needs at least one timestep")
    w = get_variable(f"{name}/kernel", (in_dim + hidden, 4 * hidden),
                     initializer=glorot_initializer())
    b = get_variable(f"{name}/bias", (4 * hidden,),
                     initializer=zeros_initializer)
    w_x = ops.slice_axis(w.tensor, 0, in_dim, axis=0, name=f"{name}/w_x")
    w_h = ops.slice_axis(w.tensor, in_dim, in_dim + hidden, axis=0,
                         name=f"{name}/w_h")
    # Batch-major rows: row b*seq + t is x_seq[b, t].
    zx = ops.add_bias(
        ops.matmul(ops.reshape(x_seq, (batch * steps, in_dim),
                               name=f"{name}/x_rows"),
                   w_x, name=f"{name}/x_matmul"),
        b.tensor, name=f"{name}/x_bias",
    )
    h0, c0 = (ops.constant(np.zeros((batch, hidden), dtype="float32"),
                           name=f"{name}/{state}") for state in ("h0", "c0"))
    workspace = ops.lstm_seq(
        ops.reshape(zx, (batch, steps, 4 * hidden), name=f"{name}/zx"),
        w_h, h0, c0, name=f"{name}/seq")
    return ops.slice_axis(workspace, 0, steps * hidden, axis=1,
                          name=f"{name}/states")


def _activate(x: Tensor, activation: Optional[str], name: str) -> Tensor:
    if activation is None:
        return x
    if activation == "relu":
        return ops.relu(x, name=f"{name}/relu")
    if activation == "tanh":
        return ops.tanh(x, name=f"{name}/tanh")
    if activation == "sigmoid":
        return ops.sigmoid(x, name=f"{name}/sigmoid")
    raise ValueError(f"unknown activation {activation!r}")
