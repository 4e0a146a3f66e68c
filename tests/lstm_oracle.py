"""Reference LSTM layer: the recurrence unrolled into primitive ops, as
`repro.nn.layers.lstm` built it before the recurrence became one op.

An oracle, not product code.  The input projection is hoisted exactly as
in the layer (one ``lstm/kernel`` sliced into ``W_x`` and ``W_h``, one
matmul over every step), then each timestep issues its own ``h @ W_h``
matmul, ``add``, four gate slices, three sigmoids, two tanhs and the
cell's muls and add; autodiff differentiates every one of them.  It
creates the same variables under the same names and shapes as the
layer, so a ``Session`` with the same seed initialises both identically.
The fused ``lstm_seq`` op and its VJP must reproduce its states and
gradients bit for bit.
"""

from typing import List

import numpy as np

from repro.graph import ops
from repro.graph.graph import Tensor
from repro.nn import layers


def split_steps(x: Tensor, seq_len: int, name: str) -> List[Tensor]:
    """Split a (batch, seq, dim) tensor into per-timestep (batch, dim)."""
    batch, _, dim = x.spec.shape
    return [ops.reshape(ops.slice_axis(x, t, t + 1, axis=1, name=f"{name}/t{t}"),
                        (batch, dim), name=f"{name}/t{t}/squeeze")
            for t in range(seq_len)]


def unrolled_lstm(x_seq: Tensor, hidden: int, name: str) -> List[Tensor]:
    """The hidden state after every step, one primitive-op cell per step."""
    batch, steps, in_dim = x_seq.spec.shape
    w = layers.get_variable(f"{name}/kernel", (in_dim + hidden, 4 * hidden),
                            initializer=layers.glorot_initializer())
    b = layers.get_variable(f"{name}/bias", (4 * hidden,),
                            initializer=layers.zeros_initializer)
    w_x = ops.slice_axis(w.tensor, 0, in_dim, axis=0, name=f"{name}/w_x")
    w_h = ops.slice_axis(w.tensor, in_dim, in_dim + hidden, axis=0,
                         name=f"{name}/w_h")
    zx = ops.add_bias(
        ops.matmul(ops.reshape(x_seq, (batch * steps, in_dim),
                               name=f"{name}/x_rows"),
                   w_x, name=f"{name}/x_matmul"),
        b.tensor, name=f"{name}/x_bias")
    zx_steps = split_steps(
        ops.reshape(zx, (batch, steps, 4 * hidden), name=f"{name}/zx"),
        steps, f"{name}/zx")
    h = ops.constant(np.zeros((batch, hidden), np.float32), name=f"{name}/h0")
    c = ops.constant(np.zeros((batch, hidden), np.float32), name=f"{name}/c0")
    outputs = []
    for t, zx_t in enumerate(zx_steps):
        p = f"{name}/step{t}"
        z = ops.add(zx_t, ops.matmul(h, w_h, name=f"{p}/matmul"),
                    name=f"{p}/z")
        gates = [ops.slice_axis(z, j * hidden, (j + 1) * hidden,
                                name=f"{p}/z{'ifgo'[j]}") for j in range(4)]
        i, f, o = (ops.sigmoid(gates[j], name=f"{p}/{'ifgo'[j]}")
                   for j in (0, 1, 3))
        g = ops.tanh(gates[2], name=f"{p}/g")
        c = ops.add(ops.mul(f, c, name=f"{p}/fc"),
                    ops.mul(i, g, name=f"{p}/ig"), name=f"{p}/c")
        h = ops.mul(o, ops.tanh(c, name=f"{p}/tanh_c"), name=f"{p}/h")
        outputs.append(h)
    return outputs


def unrolled_states(x_seq: Tensor, hidden: int, name: str) -> Tensor:
    """:func:`unrolled_lstm` in the layer's return type: the
    ``(batch, seq*hidden)`` state sequence, one ``concat`` of the steps."""
    return ops.concat(unrolled_lstm(x_seq, hidden, name), axis=1,
                      name=f"{name}/states")
