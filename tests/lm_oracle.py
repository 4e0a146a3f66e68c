"""Reference LM graph: the per-timestep graph `build_lm` made before the
LM was time-batched.

An oracle, not product code.  Each timestep concatenates ``[x_t, h]`` and
multiplies it by the whole ``lstm/kernel``, adds the bias, and runs its own
projection, logits matmul and ``softmax_xent``; the loss is the mean of the
T step means.  It creates the same variables under the same names and
shapes as ``repro.nn.models.build_lm``, so a ``Session`` with the same seed
initialises both identically and their losses and gradients can be
compared term by term.
"""

import numpy as np

from repro.graph import Graph, ops
from repro.nn import layers
from repro.nn.models.common import BuiltModel


def _steps(x, seq_len, name):
    batch, _, dim = x.spec.shape
    return [ops.reshape(ops.slice_axis(x, t, t + 1, axis=1, name=f"{name}/t{t}"),
                        (batch, dim), name=f"{name}/t{t}/squeeze")
            for t in range(seq_len)]


def _lstm(x_steps, hidden, name):
    batch, in_dim = x_steps[0].spec.shape
    w = layers.get_variable(f"{name}/kernel", (in_dim + hidden, 4 * hidden),
                            initializer=layers.glorot_initializer())
    b = layers.get_variable(f"{name}/bias", (4 * hidden,),
                            initializer=layers.zeros_initializer)
    h = ops.constant(np.zeros((batch, hidden), np.float32), name=f"{name}/h0")
    c = ops.constant(np.zeros((batch, hidden), np.float32), name=f"{name}/c0")
    outputs = []
    for t, x in enumerate(x_steps):
        p = f"{name}/step{t}"
        z = ops.add_bias(ops.matmul(ops.concat([x, h], axis=-1, name=f"{p}/xh"),
                                    w.tensor, name=f"{p}/matmul"),
                         b.tensor, name=f"{p}/bias")
        gates = [ops.slice_axis(z, j * hidden, (j + 1) * hidden,
                                name=f"{p}/z{j}") for j in range(4)]
        i, f, o = (ops.sigmoid(gates[j], name=f"{p}/s{j}") for j in (0, 1, 3))
        g = ops.tanh(gates[2], name=f"{p}/g")
        c = ops.add(ops.mul(f, c, name=f"{p}/fc"), ops.mul(i, g, name=f"{p}/ig"),
                    name=f"{p}/c")
        h = ops.mul(o, ops.tanh(c, name=f"{p}/tanh_c"), name=f"{p}/h")
        outputs.append(h)
    return outputs


def build_lm_per_timestep(batch_size, vocab_size, seq_len, emb_dim, hidden,
                          num_partitions, dataset=None):
    """The parent's ``build_lm`` graph, same variables, same arguments."""
    graph = Graph()
    with graph.as_default():
        tokens = ops.placeholder((batch_size, seq_len), dtype="int64",
                                 name="tokens")
        targets = ops.placeholder((batch_size, seq_len), dtype="int64",
                                  name="targets")
        embedded, _ = layers.embedding(tokens, vocab_size, emb_dim,
                                       name="embedding",
                                       num_partitions=num_partitions)
        h_steps = _lstm(_steps(embedded, seq_len, "emb_steps"), hidden, "lstm")
        proj_w = layers.get_variable("projection/kernel", (hidden, emb_dim),
                                     initializer=layers.glorot_initializer())
        softmax_w = layers.get_variable("softmax/kernel", (emb_dim, vocab_size),
                                        initializer=layers.glorot_initializer())
        total = None
        for t, h in enumerate(h_steps):
            logits = ops.matmul(ops.matmul(h, proj_w.tensor, name=f"proj/t{t}"),
                                softmax_w.tensor, name=f"logits/t{t}")
            step_targets = ops.reshape(
                ops.slice_axis(targets, t, t + 1, axis=1, name=f"targets/t{t}"),
                (batch_size,), name=f"targets/t{t}/squeeze")
            xent = ops.softmax_xent(logits, step_targets, name=f"xent/t{t}")
            total = xent if total is None else ops.add(total, xent,
                                                       name=f"loss/sum{t}")
        loss = ops.scale(total, 1.0 / seq_len, name="loss/mean")
    return BuiltModel(graph=graph, loss=loss,
                      placeholders={"tokens": tokens, "targets": targets},
                      dataset=dataset, batch_size=batch_size,
                      logits=logits, label_key="targets", name="lm_oracle")
