"""ISSUE 21's three bit-preserving rewrites against the parent's kernels
(`tests/kernel_oracle.py`): the one-pass sigmoid, the in-place `grad_add`
fold, and one `concat` in place of zero-padded slice gradients."""

import importlib
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.spec import ClusterSpec
from repro.core.runner import DistributedSession
from repro.core.transform.plan import hybrid_graph_plan
from repro.core.transform.transform import transform_graph
from repro.graph import Graph, Session, gradients, ops
from repro.graph.executor import DIRECT, bind_kernel
from repro.graph.variables import Variable
from repro.nn import layers
from repro.nn.models import build_lm
from repro.nn.optimizers import GradientDescentOptimizer
from repro.tensor import math as k
from repro.tensor.sparse import IndexedSlices
from kernel_oracle import (oracle_grad_add, oracle_sigmoid,
                           oracle_slice_vjp, oracle_where_sigmoid)
from lstm_oracle import split_steps


def bits(a):
    a = np.ascontiguousarray(a)
    return a.view({4: np.uint32, 8: np.uint64}[a.dtype.itemsize])


def assert_same_bits(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    np.testing.assert_array_equal(bits(actual), bits(expected))


# ----------------------------------------------------------------------
# (a) one-pass sigmoid
# ----------------------------------------------------------------------
_SPECIAL = [0.0, -0.0, np.inf, -np.inf, 1e-45, -1e-45, 5e-324, -5e-324,
            100.5, -100.5, 750.0, -750.0, 1e30, -1e30]


@st.composite
def sigmoid_inputs(draw):
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    width = 32 if dtype is np.float32 else 64
    values = draw(st.lists(
        st.one_of(st.floats(width=width, allow_nan=False),
                  st.sampled_from(_SPECIAL)),
        min_size=0, max_size=48))
    with np.errstate(over="ignore"):
        x = np.array(values, dtype=dtype)
    sign = draw(st.sampled_from(["mixed", "positive", "negative"]))
    if sign != "mixed":
        x = np.abs(x) if sign == "positive" else -np.abs(x)
    layout = draw(st.sampled_from(["contiguous", "strided", "transposed"]))
    if layout == "strided":
        x = np.repeat(x, 2)[::2]
    elif layout == "transposed":
        x = np.stack([x, -x, x]).T
    return x


@settings(max_examples=200, deadline=None)
@given(x=sigmoid_inputs())
def test_sigmoid_matches_two_branch_oracle_bit_for_bit(x):
    before = x.copy()
    expected = oracle_sigmoid(x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = k.sigmoid(x)
        buf = np.full_like(expected, 7.0)
        assert k.sigmoid_out(x, buf) is buf
    assert_same_bits(got, expected)
    assert_same_bits(buf, expected)
    assert_same_bits(x, before)  # the input is only read


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_nan_in_nan_out(dtype):
    x = np.array([np.nan, 1.5, -np.nan, -2.0, np.nan], dtype=dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = k.sigmoid(x)
    assert np.isnan(y[[0, 2, 4]]).all()
    assert_same_bits(y[[1, 3]], oracle_sigmoid(x[[1, 3]]))


def test_sigmoid_takes_rank_zero_and_empty():
    assert_same_bits(k.sigmoid(np.array(-3.0, dtype=np.float32)),
                     oracle_sigmoid(np.array(-3.0, dtype=np.float32)))
    assert k.sigmoid(np.empty((0, 4), dtype=np.float32)).shape == (0, 4)


# The numerator as ``maximum(z, x >= 0)`` instead of ``where``: every
# float32 bit pattern class, and the values where exp under- or
# overflows, the subnormals and the signed zeros and infinities.
_SPECIAL32 = np.array(
    [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e-45, -1e-45, 1e-38,
     -1e-38, 88.7, -88.7, 103.9, -103.9, 1e30, -1e30], np.float32)


@pytest.mark.parametrize("seed", range(4))
def test_sigmoid_numerator_is_the_where_form_on_every_bit_pattern(seed):
    patterns = np.random.default_rng(seed).integers(
        0, 2 ** 32, 250_000, dtype=np.uint64).astype(np.uint32)
    nan_payloads = np.array([0x7FC01234, 0xFFC01234, 0x7F800001],
                            np.uint32).view(np.float32)
    x = np.concatenate([patterns.view(np.float32), _SPECIAL32,
                        nan_payloads])
    with np.errstate(all="ignore"):
        got = k.sigmoid(x)
        where_form = oracle_where_sigmoid(x)
        branches = oracle_sigmoid(x[~np.isnan(x)])
    assert_same_bits(got, where_form)  # NaN payloads included
    assert_same_bits(got[~np.isnan(x)], branches)
    assert np.isnan(got[np.isnan(x)]).all()


# ----------------------------------------------------------------------
# (b) grad_add: one body, in-place fold into a fresh copy
# ----------------------------------------------------------------------
_GRAD_ADD = types.SimpleNamespace(name="grad_add/x", op_type="grad_add")


def grad_add_paths(values):
    """grad_add's one body on *values*, as the loop calls it (through
    ``bind_kernel``) and as generated code calls it (positionally)."""
    kernel, specialized = bind_kernel(_GRAD_ADD)
    assert not specialized
    loop = kernel(_GRAD_ADD, list(values), None)
    generated = DIRECT["grad_add"](_GRAD_ADD)(*values)
    return loop, generated


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), rows=st.integers(0, 5), seed=st.integers(0, 99))
def test_grad_add_is_the_oracle_fold_and_writes_no_input(n, rows, seed):
    rng = np.random.default_rng(seed)
    values = [(rng.standard_normal((rows, 3)) * 10.0 ** rng.integers(-3, 4))
              .astype(np.float32) for _ in range(n)]
    before = [v.copy() for v in values]
    expected = oracle_grad_add(values)
    for got in grad_add_paths(values):
        assert_same_bits(got, expected)
        assert not any(np.shares_memory(got, v) for v in values)
    for v, b in zip(values, before):
        assert_same_bits(v, b)


def test_grad_add_mixed_dtype_shape_and_scalars_take_the_allocating_path():
    a = np.arange(12, dtype=np.float32).reshape(3, 4)
    cases = [
        [a, a.astype(np.float64) / 3, a],            # dtype widens mid-fold
        [a[0], a, a[1]],                             # shape broadcasts up
        [a, a[0]],                                   # same dtype, row added
        [np.float32(1.5), np.float32(2.25)],         # the loss-seed scalars
        [a, [[1.0] * 4] * 3],                        # not an ndarray
    ]
    for values in cases:
        expected = oracle_grad_add(values)
        for got in grad_add_paths(values):
            assert type(got) is type(expected)
            assert_same_bits(np.asarray(got), np.asarray(expected))
    assert_same_bits(a, np.arange(12, dtype=np.float32).reshape(3, 4))


def test_grad_add_sparse_concatenates_and_mixed_raises():
    s1 = IndexedSlices(np.ones((2, 3), np.float32), np.array([0, 4]), (6, 3))
    s2 = IndexedSlices(np.full((1, 3), 2, np.float32), np.array([4]), (6, 3))
    for got in grad_add_paths([s1, s2]):
        assert isinstance(got, IndexedSlices)
        np.testing.assert_array_equal(got.indices, [0, 4, 4])
        np.testing.assert_array_equal(got.to_dense(),
                                      s1.to_dense() + s2.to_dense())
    dense = np.zeros((6, 3), np.float32)
    for values in ([dense, s1], [s1, dense]):
        with pytest.raises(TypeError, match="mixes dense and sparse"):
            DIRECT["grad_add"](_GRAD_ADD)(*values)


def test_grad_add_twins_share_one_body(monkeypatch):
    calls = []
    # `repro.graph.gradients` the attribute is the function, not the module.
    monkeypatch.setattr(importlib.import_module("repro.graph.gradients"),
                        "_sum_gradients",
                        lambda name, values: calls.append((name, len(values))))
    grad_add_paths([np.zeros(2), np.ones(2)])
    assert calls == [("grad_add/x", 2), ("grad_add/x", 2)]


# ----------------------------------------------------------------------
# (c) tiling slices -> one concat
# ----------------------------------------------------------------------
def slice_graph(shape, cuts, extra_consumer=False, seed=0):
    """A (graph, gradient tensor of ``v``) pair where variable ``v`` is
    consumed only by ``slice`` ops, one per ``(lo, hi, axis)`` in *cuts*.

    Each slice is multiplied by its own constant (with zeros in it) and
    the loss is *minus* the mean, so the slice gradients differ from each
    other and contain ``-0.0``.
    """
    rng = np.random.default_rng(seed)
    g = Graph()
    with g.as_default():
        v = Variable("v", shape)
        terms = []
        for i, (lo, hi, axis) in enumerate(cuts):
            piece = ops.slice_axis(v.tensor, lo, hi, axis=axis, name=f"cut{i}")
            weight = rng.integers(-3, 4, piece.spec.shape).astype(np.float32)
            terms.append(ops.mean(ops.mul(piece, ops.constant(weight))))
        if extra_consumer:
            terms.append(ops.mean(ops.tanh(v.tensor)))
        total = terms[0]
        for t in terms[1:]:
            total = ops.add(total, t)
        (grad, _), = gradients(ops.scale(total, -1.0))
    return g, grad


def slice_vjps(graph):
    return [op for op in graph.operations if op.op_type == "vjp"
            and graph.get_op(op.attrs["forward_op"]).op_type == "slice"]


def upstream_of(graph, cut_name):
    """The gradient tensor of slice *cut_name*'s output: the ``vjp`` of
    its one consumer (the ``mul``) w.r.t. input 0."""
    (mul,) = [op for op in graph.operations if op.op_type == "mul"
              and op.inputs[0].op.name == cut_name]
    return graph.get_op(f"grad/{mul.name}/in0").output


def oracle_gradient(graph, sess, cuts, order):
    """Zero-padded slice gradients folded in *order* (the parent's
    ``_slice_vjp`` + ``grad_add``)."""
    v = sess.read_variable("v")
    padded = []
    for i in order:
        lo, hi, axis = cuts[i]
        g = sess.run(upstream_of(graph, f"cut{i}"))
        padded.append(oracle_slice_vjp(v, lo, hi, axis, g))
    return oracle_grad_add(padded)


@st.composite
def tilings(draw):
    """Contiguous ranges covering one axis of a rank-2 shape, shuffled."""
    shape = (draw(st.integers(1, 5)), draw(st.integers(1, 6)))
    axis = draw(st.integers(0, 1))
    size = shape[axis]
    edges = sorted(draw(st.sets(st.integers(1, size - 1),
                                max_size=size - 1))) if size > 1 else []
    bounds = [0] + edges + [size]
    cuts = [(lo, hi, axis) for lo, hi in zip(bounds, bounds[1:])]
    return shape, draw(st.permutations(cuts))


@settings(max_examples=40, deadline=None)
@given(case=tilings(), seed=st.integers(0, 9))
def test_tiling_slices_become_one_concat_equal_to_the_padded_sum(case, seed):
    shape, cuts = case
    graph, grad = slice_graph(shape, cuts, seed=seed)
    assert grad.op.op_type == "concat"
    assert grad.op.attrs["axis"] == cuts[0][2]
    assert len(grad.op.inputs) == len(cuts)
    assert slice_vjps(graph) == []  # nothing dead left behind
    assert not any(op.op_type == "grad_add" and op.name == "grad_add/v/read"
                   for op in graph.operations)
    sess = Session(graph, seed=seed)
    got = sess.run(grad)
    # Contributions reach ``v`` in reverse forward order: last cut first.
    expected = oracle_gradient(graph, sess, cuts,
                               list(reversed(range(len(cuts)))))
    np.testing.assert_array_equal(got, expected)
    # The one place bits may differ: a slice gradient's -0.0 survives the
    # concat, while the padded sum computes 0.0 + -0.0 = +0.0.
    differs = bits(got) != bits(expected)
    assert (got[differs] == 0).all() and np.signbit(got[differs]).all()
    assert not np.signbit(expected[differs]).any()


def test_concat_keeps_the_negative_zero_the_padded_sum_turns_positive():
    cuts = [(0, 2, 1), (2, 6, 1)]
    graph, grad = slice_graph((4, 6), cuts, seed=3)
    sess = Session(graph, seed=0)
    got = sess.run(grad)
    expected = oracle_gradient(graph, sess, cuts, [1, 0])
    zeros = got == 0
    assert zeros.any() and np.signbit(got[zeros]).all()
    assert not np.signbit(expected[zeros]).any()
    assert_same_bits(got[~zeros], expected[~zeros])


NOT_TILINGS = {
    "gap": ((4, 6), [(0, 2, 1), (3, 6, 1)], False),
    "overlap": ((4, 6), [(0, 4, 1), (3, 6, 1)], False),
    "duplicate": ((4, 6), [(0, 3, 1), (0, 3, 1), (3, 6, 1)], False),
    "partial_cover_tail": ((4, 6), [(0, 2, 1), (2, 5, 1)], False),
    "partial_cover_head": ((4, 6), [(1, 3, 1), (3, 6, 1)], False),
    "two_axes": ((4, 6), [(0, 2, 0), (2, 4, 0), (0, 6, 1)], False),
    "two_axes_each_complete": ((4, 4), [(0, 4, 0), (0, 4, 1)], False),
    "extra_non_slice_consumer": ((4, 6), [(0, 3, 1), (3, 6, 1)], True),
}


@pytest.mark.parametrize("case", sorted(NOT_TILINGS))
def test_anything_but_an_exact_tiling_keeps_the_padded_vjps(case):
    shape, cuts, extra = NOT_TILINGS[case]
    graph, grad = slice_graph(shape, cuts, extra_consumer=extra)
    assert not any(op.name.startswith("grad_concat/")
                   for op in graph.operations)
    assert grad.op.op_type == "grad_add"
    contributions = [t.op for t in grad.op.inputs]
    assert all(op.op_type == "vjp" for op in contributions)
    assert len(contributions) == len(cuts) + (1 if extra else 0)
    assert sorted(op.name for op in slice_vjps(graph)) == \
        sorted(f"grad/cut{i}/in0" for i in range(len(cuts)))
    assert set(slice_vjps(graph)) <= set(contributions)
    if not extra:
        # Same nodes in the same fold order as the parent (last consumer
        # first), so the same bits, zero signs included.
        order = [int(op.attrs["forward_op"][3:]) for op in contributions]
        assert order == list(reversed(range(len(cuts))))
        sess = Session(graph, seed=0)
        assert_same_bits(sess.run(grad),
                         oracle_gradient(graph, sess, cuts, order))


def test_rewrite_fires_on_the_lstm_gate_split_and_on_split_steps():
    steps, batch, dim, hidden = 3, 2, 4, 5
    g = Graph()
    with g.as_default():
        x = Variable("x", (batch, steps, dim))
        gvs = gradients(ops.mean(layers.lstm(x.tensor, hidden, "rnn")))
    by_var = {var.name: grad for grad, var in gvs}
    # The kernel's input rows and recurrent rows tile it: one concat
    # along the row axis, W_x's gradient first.
    kernel = by_var["rnn/kernel"].op
    assert kernel.name == "grad_concat/rnn/kernel"
    assert kernel.op_type == "concat" and kernel.attrs["axis"] == 0
    assert [i.op.name for i in kernel.inputs] == \
        ["grad/rnn/x_matmul/in1", "grad/rnn/seq/in1"]

    # The gate and time splits the recurrence used to make in the graph,
    # as sibling slices: a (batch, seq, 4*hidden) value split into steps,
    # each step into its four gates.
    g = Graph()
    with g.as_default():
        zx = Variable("zx", (batch, steps, 4 * hidden))
        total = None
        for t, z in enumerate(split_steps(zx.tensor, steps, "zx")):
            gates = [ops.slice_axis(z, j * hidden, (j + 1) * hidden,
                                    name=f"step{t}/z{gate}")
                     for j, gate in enumerate("ifgo")]
            acts = [(ops.tanh if gate == "g" else ops.sigmoid)(
                z_j, name=f"step{t}/{gate}")
                for z_j, gate in zip(gates, "ifgo")]
            step = ops.add(ops.mul(acts[0], acts[1]),
                           ops.mul(acts[2], acts[3]))
            total = step if total is None else ops.add(total, step)
        (grad, _), = gradients(ops.mean(total))
    # split_steps: the (batch, seq, 4*hidden) gradient is one concat
    # along the time axis.
    assert grad.op.op_type == "concat" and grad.op.attrs["axis"] == 1
    assert len(grad.op.inputs) == steps
    # Gate split: each timestep gets its four gate gradients as one
    # concat along the feature axis, in i,f,g,o order.
    for t in range(steps):
        upstream = g.get_op(f"grad_concat/zx/t{t}/squeeze")
        assert upstream.op_type == "concat" and upstream.attrs["axis"] == 1
        assert [i.op.attrs["forward_op"] for i in upstream.inputs] == \
            [f"step{t}/{gate}" for gate in "ifgo"]
    assert slice_vjps(g) == []
    assert sum(op.name.startswith("grad_concat/")
               for op in g.operations) == steps + 1


def test_bench_lm_step_schedule_is_1165_entries_with_no_slice_vjp():
    # bench/training.py's LM_SIZES, plan and optimizer at ClusterSpec(2, 1).
    model = build_lm(seed=0, batch_size=32, vocab_size=1500, seq_len=10,
                     emb_dim=96, hidden=192, num_partitions=4)
    with model.graph.as_default():
        GradientDescentOptimizer(0.5).update(gradients(model.loss))
    transformed = transform_graph(
        model.graph, model.loss, ClusterSpec(2, 1),
        hybrid_graph_plan(model.graph))
    plan = DistributedSession(transformed, seed=0).compile(
        list(transformed.replica_losses) + [transformed.train_op])
    # The test id keeps the per-timestep graph's count; see README.
    assert len(plan.schedule) == 145
    graph = transformed.graph
    # No per-timestep or per-gate slice gradient is left: a replica's one
    # slice VJP pads its state columns to the recurrence's workspace.
    assert [entry[0].name for entry in plan.schedule
            if entry[0].op_type == "vjp"
            and graph.get_op(entry[0].attrs["forward_op"]).op_type
            == "slice"] == [f"grad/rep{r}/lstm/states/in0" for r in (0, 1)]
    types = [entry[0].op_type for entry in plan.schedule]
    assert types.count("lstm_seq") == 2
    # One softmax per replica, shared by its loss and its gradient.
    assert types.count("softmax") == types.count("softmax_xent") == 2
