"""The time-batched LM graph against the per-timestep one it replaced.

Two oracles: ``tests/lm_oracle.py`` (the per-timestep LM graph) for the
graph rewrite, which only reorders floating-point sums, and
``tests/kernel_oracle.py`` (the recomputing ``softmax_xent`` VJP) for the
shared softmax, which must not move a bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import Graph, Session, gradients, ops
from repro.graph.variables import Variable
from repro.nn.models import build_lm
from repro.tensor import math as k
from repro.tensor.sparse import IndexedSlices
from kernel_oracle import oracle_softmax_xent_grad
from lm_oracle import build_lm_per_timestep


def bits(a):
    a = np.ascontiguousarray(a)
    return a.view({4: np.uint32, 8: np.uint64}[a.dtype.itemsize])


def dense(value):
    return value.to_dense() if isinstance(value, IndexedSlices) else value


def loss_and_gradients(model, seed):
    with model.graph.as_default():
        gvs = gradients(model.loss)
    feed = model.feed(model.dataset.batch(model.batch_size, 0))
    sess = Session(model.graph, seed=seed)
    values = sess.run([model.loss] + [g for g, _ in gvs], feed)
    return values[0], {var.name: dense(v)
                       for (_, var), v in zip(gvs, values[1:])}


# ----------------------------------------------------------------------
# The graph rewrite: same function, sums in another order
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seq_len", [1, 3])
@pytest.mark.parametrize("batch", [1, 4])
@pytest.mark.parametrize("partitions", [1, 3])
def test_lm_matches_the_per_timestep_oracle(seq_len, batch, partitions):
    sizes = dict(batch_size=batch, vocab_size=30, seq_len=seq_len,
                 emb_dim=6, hidden=7, num_partitions=partitions)
    model = build_lm(seed=2, **sizes)
    oracle = build_lm_per_timestep(dataset=model.dataset, **sizes)
    loss, grads = loss_and_gradients(model, seed=5)
    want_loss, want = loss_and_gradients(oracle, seed=5)
    assert set(model.graph.variables) == set(oracle.graph.variables)
    assert set(grads) == set(want) == set(model.graph.variables)
    np.testing.assert_allclose(loss, want_loss, rtol=1e-5)
    for name, expected in want.items():
        scale = float(np.abs(expected).max())
        np.testing.assert_allclose(grads[name], expected, rtol=1e-5,
                                   atol=1e-6 * scale, err_msg=name)


def test_lm_runs_each_output_op_once_per_step():
    model = build_lm(batch_size=4, seq_len=5, num_partitions=2)
    with model.graph.as_default():
        gradients(model.loss)
    plan = Session(model.graph).compile([model.loss])
    types = [entry[0].op_type for entry in plan.schedule]
    assert types.count("softmax") == types.count("softmax_xent") == 1
    # Input projection, projection and logits once; h @ W_h runs inside
    # the one recurrence op.
    assert types.count("matmul") == 3
    assert types.count("lstm_seq") == 1
    # Serving's logits are the last step's only.
    assert model.logits.spec.shape == (4, 120)
    assert model.logits.name not in plan.slot_of_name


# ----------------------------------------------------------------------
# The shared softmax: not one bit moves
# ----------------------------------------------------------------------
@settings(max_examples=80, deadline=None)
@given(rows=st.integers(1, 6), cols=st.integers(1, 9),
       dtype=st.sampled_from([np.float32, np.float64]),
       g=st.floats(-4.0, 4.0, width=32), seed=st.integers(0, 99))
def test_shared_softmax_vjp_is_the_recomputing_one_bit_for_bit(
        rows, cols, dtype, g, seed):
    rng = np.random.default_rng(seed)
    logits = (rng.standard_normal((rows, cols)) * 5).astype(dtype)
    labels = rng.integers(0, cols, rows)
    probs = k.softmax(logits)
    before = probs.copy()
    (got, none_labels, none_probs) = ops.VJP["softmax_xent"](
        None, [logits, labels, probs], None, np.float32(g))
    expected = oracle_softmax_xent_grad(logits, labels, np.float32(g))
    assert got.dtype == expected.dtype and none_labels is none_probs is None
    np.testing.assert_array_equal(bits(got), bits(expected))
    np.testing.assert_array_equal(bits(probs), bits(before))  # only read


def xent_graph():
    rng = np.random.default_rng(0)
    g = Graph()
    with g.as_default():
        x = ops.placeholder((5, 4), name="x")
        labels = ops.placeholder((5,), dtype="int64", name="labels")
        w = Variable("w", (4, 6))
        logits = ops.matmul(x, w.tensor, name="logits")
        loss = ops.softmax_xent(logits, labels, name="xent")
        (grad_w, _), = gradients(loss)
    feed = {"x": rng.standard_normal((5, 4)).astype(np.float32),
            "labels": np.array([0, 5, 2, 2, 1])}
    return g, logits, loss, grad_w, feed


def test_generated_replay_gradient_is_the_oracle_bit_for_bit():
    g, logits, loss, grad_w, feed = xent_graph()
    sess = Session(g, seed=1)
    dlogits = g.get_op("grad/xent/in0").output
    for _ in range(3):  # the loop, then generated code
        got_logits, got, got_w = sess.run([logits, dlogits, grad_w], feed)
        expected = oracle_softmax_xent_grad(got_logits, feed["labels"], 1.0)
        np.testing.assert_array_equal(bits(got), bits(expected))
        np.testing.assert_array_equal(got_w, feed["x"].T @ expected)


def test_feeding_logits_recomputes_the_softmax_from_the_feed():
    g, logits, loss, grad_w, feed = xent_graph()
    sess = Session(g, seed=1)
    dlogits = g.get_op("grad/xent/in0").output
    computed = sess.run(logits, feed)
    for scale in (0.5, 3.0):  # a fed value skips the logits kernel
        fed = (computed * scale).astype(np.float32)
        got_loss, got, got_w = sess.run([loss, dlogits, grad_w],
                                        {**feed, logits: fed})
        expected = oracle_softmax_xent_grad(fed, feed["labels"], 1.0)
        np.testing.assert_array_equal(bits(got), bits(expected))
        np.testing.assert_array_equal(got_w, feed["x"].T @ expected)
        assert got_loss == np.float32(
            k.xent_of_probs(k.softmax(fed), feed["labels"]))
