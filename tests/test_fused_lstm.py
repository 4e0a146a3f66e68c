"""The fused LSTM recurrence against the unrolled graph it replaced.

``layers.lstm`` runs the recurrence as one ``lstm_seq`` op whose VJP is
backpropagation through time.  Its oracle is ``tests/lstm_oracle.py``,
the same layer with one primitive-op cell per timestep: states, loss,
serving logits and every variable's gradient must match it bit for bit,
zero signs included, through the loop and through generated code.
"""

import numpy as np
import pytest

from repro.core.runner import DistributedSession
from repro.core.transform.plan import hybrid_graph_plan
from repro.core.transform.transform import transform_graph
from repro.cluster.spec import ClusterSpec
from repro.graph import Graph, Session, gradients, ops
from repro.graph.variables import Variable
from repro.nn import layers
from repro.nn.models import build_lm, build_nmt
from repro.nn.optimizers import GradientDescentOptimizer
from repro.tensor.sparse import IndexedSlices
from lstm_oracle import unrolled_states


def bits(a):
    a = np.ascontiguousarray(a)
    return a.view({4: np.uint32, 8: np.uint64}[a.dtype.itemsize])


def dense(value):
    return value.to_dense() if isinstance(value, IndexedSlices) else value


def run_model(model, seed=3, runs=3):
    """``[{name: value}]`` per run: loss, state rows, serving logits and
    every variable's gradient (the loop first, then generated code)."""
    with model.graph.as_default():
        gvs = gradients(model.loss)
    assert {var.name for _, var in gvs} == set(model.graph.variables)
    fetches = {"loss": model.loss, "logits": model.logits,
               "h_rows": model.graph.get_op("h_rows").output}
    fetches.update({f"grad:{var.name}": g for g, var in gvs})
    feed = model.feed(model.dataset.batch(model.batch_size, 0))
    sess = Session(model.graph, seed=seed)
    names = list(fetches)
    out = []
    for _ in range(runs):
        values = sess.run([fetches[n] for n in names], feed)
        out.append({n: dense(v) for n, v in zip(names, values)})
    return out


def assert_same_bits(fused, oracle):
    assert set(fused) == set(oracle)
    for name, expected in oracle.items():
        got = np.asarray(fused[name])
        expected = np.asarray(expected)
        assert got.shape == expected.shape and got.dtype == expected.dtype, name
        np.testing.assert_array_equal(bits(got), bits(expected), err_msg=name)


LM = dict(vocab_size=50, seq_len=5, emb_dim=12, hidden=16, num_partitions=2)


@pytest.mark.parametrize("batch", [1, 8, 32])
def test_lm_matches_the_unrolled_lstm_bit_for_bit(batch, monkeypatch):
    fused = run_model(build_lm(batch_size=batch, seed=1, **LM))
    monkeypatch.setattr(layers, "lstm", unrolled_states)
    oracle = run_model(build_lm(batch_size=batch, seed=1, **LM))
    for got, want in zip(fused, oracle):
        assert_same_bits(got, want)


def test_nmt_matches_the_unrolled_lstm_bit_for_bit(monkeypatch):
    sizes = dict(batch_size=8, src_vocab=40, tgt_vocab=30, src_len=4,
                 tgt_len=3, emb_dim=10, hidden=10, num_partitions=2, seed=2)
    fused = run_model(build_nmt(**sizes))
    monkeypatch.setattr(layers, "lstm", unrolled_states)
    oracle = run_model(build_nmt(**sizes))
    for got, want in zip(fused, oracle):
        assert_same_bits(got, want)
    assert {"grad:encoder/lstm/kernel", "grad:decoder/lstm/kernel"} <= \
        set(fused[0])


def test_zero_signs_survive_a_zero_kernel():
    """An all-zero kernel makes every state ``+0`` and fills the
    pre-activation gradients with signed zeros; their signs must match
    the unrolled graph's."""
    batch, steps, dim, hidden = 3, 4, 2, 3

    def build(lstm, dzx_name):
        g = Graph()
        with g.as_default():
            x = Variable("x", (batch, steps, dim))
            states = lstm(x.tensor, hidden, "rnn")
            loss = ops.mean(ops.mul(states, ops.constant(
                np.linspace(-1, 1, steps * hidden * batch, dtype=np.float32)
                .reshape(batch, steps * hidden), name="weights")))
            grads = [grad for grad, _ in gradients(loss)]
        sess = Session(g, seed=0)
        sess.write_variable("rnn/kernel", np.zeros(
            (dim + hidden, 4 * hidden), np.float32))
        dzx = g.get_op(dzx_name).output
        return sess.run([states, dzx] + grads)

    fused = build(layers.lstm, "grad/rnn/seq/in0")
    oracle = build(unrolled_states, "grad_concat/rnn/zx")
    assert len(fused) == len(oracle) == 5
    dzx = fused[1]
    assert dzx.shape == (batch, steps, 4 * hidden)
    assert np.any((dzx == 0) & np.signbit(dzx))
    assert np.any((dzx == 0) & ~np.signbit(dzx))
    for got, want in zip(fused, oracle):
        np.testing.assert_array_equal(bits(got), bits(want))


def lm_schedules(seq_len):
    model = build_lm(seed=0, batch_size=8, vocab_size=200, seq_len=seq_len,
                     emb_dim=16, hidden=24, num_partitions=4)
    with model.graph.as_default():
        GradientDescentOptimizer(0.5).update(gradients(model.loss))
    transformed = transform_graph(
        model.graph, model.loss, ClusterSpec(2, 1),
        hybrid_graph_plan(model.graph))
    plan = DistributedSession(transformed, seed=0).compile(
        list(transformed.replica_losses) + [transformed.train_op])
    serve = Session(model.graph, seed=0).compile([model.logits])
    return plan.schedule, serve.schedule


def test_lm_schedule_length_does_not_depend_on_seq_len():
    """No op is issued per timestep: a per-step op coming back would make
    the longer sequence's schedules longer."""
    step4, serve4 = lm_schedules(4)
    step8, serve8 = lm_schedules(8)
    assert len(step4) == len(step8)
    assert len(serve4) == len(serve8)
    assert [e[0].op_type for e in step4] == [e[0].op_type for e in step8]
    types = [entry[0].op_type for entry in step8]
    assert types.count("lstm_seq") == 2  # one per replica
