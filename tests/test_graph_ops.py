"""Op builders: shape inference, forward execution, validation errors."""

import numpy as np
import pytest

from repro.graph import Graph, Session, ops
from repro.graph.variables import Variable
from repro.tensor.dense import TensorSpec


@pytest.fixture()
def graph():
    g = Graph()
    with g.as_default():
        yield g


def run(graph, tensor, feed=None):
    return Session(graph, seed=0).run(tensor, feed or {})


class TestLeaves:
    def test_placeholder_must_be_fed(self, graph):
        x = ops.placeholder((2,))
        with pytest.raises(RuntimeError, match="not fed"):
            run(graph, x)

    def test_placeholder_feed_by_tensor_or_name(self, graph):
        x = ops.placeholder((2,), name="x")
        val = np.array([1.0, 2.0], dtype=np.float32)
        sess = Session(graph)
        np.testing.assert_array_equal(sess.run(x, {x: val}), val)
        np.testing.assert_array_equal(sess.run(x, {"x": val}), val)

    def test_constant_value(self, graph):
        c = ops.constant([[1.0, 2.0]])
        np.testing.assert_array_equal(run(graph, c), [[1.0, 2.0]])
        assert c.shape == (1, 2)

    def test_identity_passthrough(self, graph):
        c = ops.constant([3.0])
        np.testing.assert_array_equal(run(graph, ops.identity(c)), [3.0])


class TestShapeInference:
    def test_matmul_shape(self, graph):
        a = ops.placeholder((3, 4))
        b = ops.placeholder((4, 5))
        assert ops.matmul(a, b).shape == (3, 5)

    def test_matmul_mismatch_rejected(self, graph):
        a = ops.placeholder((3, 4))
        b = ops.placeholder((5, 6))
        with pytest.raises(ValueError, match="matmul"):
            ops.matmul(a, b)

    def test_add_requires_same_shape(self, graph):
        a = ops.placeholder((2, 2))
        b = ops.placeholder((2, 3))
        with pytest.raises(ValueError):
            ops.add(a, b)

    def test_bias_shape_checked(self, graph):
        x = ops.placeholder((2, 4))
        b = ops.placeholder((3,))
        with pytest.raises(ValueError):
            ops.add_bias(x, b)

    def test_concat_shape(self, graph):
        a = ops.placeholder((2, 3))
        b = ops.placeholder((2, 5))
        assert ops.concat([a, b], axis=1).shape == (2, 8)
        assert ops.concat([a, b], axis=-1).shape == (2, 8)

    def test_concat_rank_mismatch_rejected(self, graph):
        a = ops.placeholder((2, 3))
        b = ops.placeholder((2, 3, 1))
        with pytest.raises(ValueError):
            ops.concat([a, b], axis=0)

    def test_concat_off_axis_mismatch_rejected(self, graph):
        a = ops.placeholder((2, 3))
        b = ops.placeholder((4, 5))
        with pytest.raises(ValueError):
            ops.concat([a, b], axis=1)

    def test_reshape_with_minus_one(self, graph):
        x = ops.placeholder((2, 6))
        assert ops.reshape(x, (3, -1)).shape == (3, 4)

    def test_reshape_bad_size_rejected(self, graph):
        x = ops.placeholder((2, 6))
        with pytest.raises(ValueError):
            ops.reshape(x, (5, 5))

    def test_reshape_two_minus_ones_rejected(self, graph):
        x = ops.placeholder((2, 6))
        with pytest.raises(ValueError):
            ops.reshape(x, (-1, -1))

    def test_slice_axis_shape(self, graph):
        x = ops.placeholder((2, 10))
        assert ops.slice_axis(x, 2, 7, axis=1).shape == (2, 5)

    def test_slice_axis_bounds_checked(self, graph):
        x = ops.placeholder((2, 10))
        with pytest.raises(ValueError):
            ops.slice_axis(x, 5, 12, axis=1)

    def test_gather_shape(self, graph):
        params = ops.placeholder((100, 8))
        ids = ops.placeholder((4, 6), dtype="int64")
        assert ops.gather(params, ids).shape == (4, 6, 8)

    def test_softmax_xent_requires_rank2(self, graph):
        logits = ops.placeholder((2, 3, 4))
        labels = ops.placeholder((2,), dtype="int64")
        with pytest.raises(ValueError):
            ops.softmax_xent(logits, labels)

    def test_mean_is_scalar(self, graph):
        x = ops.placeholder((3, 3))
        assert ops.mean(x).shape == ()


class TestForwardValues:
    def test_elementwise(self, graph):
        a = ops.constant([1.0, -2.0])
        b = ops.constant([3.0, 4.0])
        np.testing.assert_array_equal(run(graph, ops.add(a, b)), [4.0, 2.0])
        np.testing.assert_array_equal(run(graph, ops.mul(a, b)), [3.0, -8.0])
        np.testing.assert_array_equal(run(graph, ops.scale(a, 2.0)),
                                      [2.0, -4.0])
        np.testing.assert_array_equal(run(graph, ops.relu(a)), [1.0, 0.0])

    def test_concat_and_slice_roundtrip(self, graph):
        a = ops.constant(np.arange(6, dtype=np.float32).reshape(2, 3))
        b = ops.constant(np.arange(4, dtype=np.float32).reshape(2, 2))
        cat = ops.concat([a, b], axis=1)
        back = ops.slice_axis(cat, 0, 3, axis=1)
        np.testing.assert_array_equal(run(graph, back),
                                      np.arange(6).reshape(2, 3))

    def test_gather_forward(self, graph):
        params = ops.constant(np.arange(8, dtype=np.float32).reshape(4, 2))
        ids = ops.constant(np.array([3, 0], dtype=np.int64))
        out = run(graph, ops.gather(params, ids))
        np.testing.assert_array_equal(out, [[6, 7], [0, 1]])

    def test_mean(self, graph):
        x = ops.constant([[1.0, 2.0], [3.0, 4.0]])
        assert run(graph, ops.mean(x)) == pytest.approx(2.5)

    def test_group_runs_effects(self, graph):
        v = Variable("v", (2,), initializer=np.array([1.0, 1.0],
                                                     dtype=np.float32))
        dec = graph.add_op("assign_sub", [ops.constant([1.0, 0.0])],
                           v.spec, attrs={"variable": "v"})
        train = ops.group([dec])
        sess = Session(graph)
        sess.run(train)
        np.testing.assert_array_equal(sess.read_variable("v"), [0.0, 1.0])

    def test_scatter_sub_requires_slices(self, graph):
        v = Variable("v", (3, 2))
        bad = graph.add_op("scatter_sub", [ops.constant([[1.0, 1.0]])],
                           v.spec, attrs={"variable": "v"})
        with pytest.raises(TypeError):
            Session(graph).run(bad)


class TestRegistry:
    def test_duplicate_forward_rejected(self):
        from repro.graph.ops import register_forward

        with pytest.raises(ValueError):
            register_forward("matmul")(lambda op, i, r: None)

    def test_every_op_type_has_one_body(self):
        import repro.graph.executor as executor_mod
        from repro.graph.executor import DIRECT, register_direct
        from repro.graph.ops import FORWARD, register_forward

        assert set(FORWARD) & set(DIRECT) == set()
        assert not hasattr(executor_mod, "SPECIALIZE")
        assert not hasattr(executor_mod, "register_specialization")
        # Each registry refuses an op type the other one holds.
        with pytest.raises(ValueError, match="'matmul'"):
            register_forward("matmul")(lambda op, i, r: None)
        with pytest.raises(ValueError, match="'read_var'"):
            register_direct("read_var")(lambda op: None)
        assert "matmul" not in FORWARD and "read_var" not in DIRECT

    def test_unknown_kernel_reported(self, graph):
        op = graph.add_op("no_such_kernel", [], TensorSpec(()))
        with pytest.raises(NotImplementedError, match="no_such_kernel"):
            Session(graph).run(op)
