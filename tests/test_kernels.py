"""Numeric kernels: forward values and gradient checks vs finite diffs."""

import numpy as np
import pytest
from kernel_oracle import lstm_cell

from repro.graph import Graph, Session, gradients, ops
from repro.nn import layers
from repro.tensor import math as k
from repro.tensor.sparse import IndexedSlices

RNG = np.random.default_rng(42)


def finite_diff(f, x, eps=1e-4):
    """Central-difference gradient of scalar f at x."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f(x)
        flat[i] = orig - eps
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * eps)
    return grad


class FakeOp:
    def __init__(self, attrs):
        self.attrs = attrs


def xent(logits, labels):
    return k.xent_of_probs(k.softmax(logits), labels)


class TestLinear:
    def test_matmul_forward(self):
        a = np.array([[1.0, 2.0]], dtype=np.float32)
        b = np.array([[3.0], [4.0]], dtype=np.float32)
        np.testing.assert_array_equal(k.matmul(a, b), [[11.0]])

    def test_matmul_grad_matches_finite_diff(self):
        a = RNG.standard_normal((3, 4)).astype(np.float64)
        b = RNG.standard_normal((4, 2)).astype(np.float64)
        g = RNG.standard_normal((3, 2)).astype(np.float64)
        da, db = k.matmul_grad(a, b, g)
        num_da = finite_diff(lambda x: float((k.matmul(x, b) * g).sum()), a.copy())
        num_db = finite_diff(lambda x: float((k.matmul(a, x) * g).sum()), b.copy())
        np.testing.assert_allclose(da, num_da, atol=1e-5)
        np.testing.assert_allclose(db, num_db, atol=1e-5)

    def test_add_bias_grad(self):
        g = RNG.standard_normal((5, 3)).astype(np.float32)
        dx, db = k.add_bias_grad(g)
        np.testing.assert_array_equal(dx, g)
        np.testing.assert_allclose(db, g.sum(axis=0), rtol=1e-6)


class TestActivations:
    def test_relu(self):
        np.testing.assert_array_equal(
            k.relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0]
        )

    def test_relu_grad_masks_negative(self):
        x = np.array([-1.0, 2.0])
        g = np.array([5.0, 5.0])
        np.testing.assert_array_equal(k.relu_grad(x, g), [0.0, 5.0])

    def test_sigmoid_range_and_stability(self):
        x = np.array([-1000.0, 0.0, 1000.0])
        y = k.sigmoid(x)
        assert np.all(np.isfinite(y))
        np.testing.assert_allclose(y, [0.0, 0.5, 1.0], atol=1e-6)

    def test_tanh_grad_matches_finite_diff(self):
        x = RNG.standard_normal(5)
        g = RNG.standard_normal(5)
        y = k.tanh(x)
        num = finite_diff(lambda v: float((k.tanh(v) * g).sum()), x.copy())
        np.testing.assert_allclose(k.tanh_grad(y, g), num, atol=1e-5)

    def test_sigmoid_grad_matches_finite_diff(self):
        x = RNG.standard_normal(5)
        g = RNG.standard_normal(5)
        y = k.sigmoid(x)
        num = finite_diff(lambda v: float((k.sigmoid(v) * g).sum()), x.copy())
        np.testing.assert_allclose(k.sigmoid_grad(y, g), num, atol=1e-5)


class TestGather:
    def test_gather_rows(self):
        params = np.arange(12, dtype=np.float32).reshape(4, 3)
        out = k.gather(params, np.array([2, 0]))
        np.testing.assert_array_equal(out, params[[2, 0]])

    def test_gather_grad_is_indexed_slices(self):
        g = np.ones((2, 3), dtype=np.float32)
        grad = k.gather_grad((4, 3), np.array([2, 0]), g)
        assert isinstance(grad, IndexedSlices)
        assert grad.dense_shape == (4, 3)
        assert list(grad.indices) == [2, 0]

    def test_gather_grad_duplicates_preserved(self):
        g = np.ones((3, 2), dtype=np.float32)
        grad = k.gather_grad((5, 2), np.array([1, 1, 1]), g)
        assert grad.num_rows == 3
        np.testing.assert_array_equal(grad.to_dense()[1], [3.0, 3.0])

    def test_gather_grad_multidim_ids_flattened(self):
        g = np.ones((2, 2, 3), dtype=np.float32)
        grad = k.gather_grad((5, 3), np.array([[0, 1], [2, 3]]), g)
        assert grad.num_rows == 4

    def test_scatter_sub(self):
        target = np.ones((4, 2), dtype=np.float32)
        sl = IndexedSlices(np.ones((1, 2), np.float32), [0], (4, 2))
        k.scatter_sub(target, sl)
        np.testing.assert_array_equal(target[0], [0.0, 0.0])


class TestLosses:
    def test_softmax_rows_sum_to_one(self):
        probs = k.softmax(RNG.standard_normal((6, 9)))
        np.testing.assert_allclose(probs.sum(axis=-1), np.ones(6), rtol=1e-6)

    def test_softmax_shift_invariant(self):
        x = RNG.standard_normal((2, 4))
        np.testing.assert_allclose(k.softmax(x), k.softmax(x + 100.0),
                                   rtol=1e-5)

    def test_xent_of_perfect_prediction_near_zero(self):
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        assert xent(logits, np.array([0, 1])) < 1e-6

    def test_xent_uniform_is_log_n(self):
        logits = np.zeros((1, 8))
        assert xent(logits, np.array([3])) == pytest.approx(
            np.log(8), rel=1e-5
        )

    def test_xent_grad_matches_finite_diff(self):
        logits = RNG.standard_normal((4, 5))
        labels = np.array([0, 1, 2, 3])
        grad = k.xent_grad_of_probs(k.softmax(logits), labels, 1.0)
        num = finite_diff(lambda x: xent(x, labels), logits.copy())
        np.testing.assert_allclose(grad, num, atol=1e-5)

    def test_mse_grad_matches_finite_diff(self):
        pred = RNG.standard_normal((3, 3))
        target = RNG.standard_normal((3, 3))
        num = finite_diff(lambda x: k.mse(x, target), pred.copy())
        np.testing.assert_allclose(k.mse_grad(pred, target), num, atol=1e-5)


def one_step_lstm(batch, in_dim, hidden, gh):
    """``mean(h_1 * gh)`` over one step of the LSTM layer, with the
    gradient of its kernel."""
    g = Graph()
    with g.as_default():
        x = ops.placeholder((batch, 1, in_dim), name="x")
        # One step: the (batch, seq*hidden) state sequence is h_1.
        h1 = layers.lstm(x, hidden, name="lstm")
        loss = ops.mean(ops.mul(h1, ops.constant(gh, name="gh")))
        grads = {var.name: grad for grad, var in gradients(loss)}
    return g, h1, loss, grads["lstm/kernel"]


class TestLSTM:
    """The LSTM layer against the fused reference cell
    (``tests/kernel_oracle.py``)."""

    def test_shapes(self):
        batch, in_dim, hidden = 3, 4, 5
        g, h1, _, dw = one_step_lstm(batch, in_dim, hidden,
                                     np.ones((batch, hidden), np.float32))
        assert h1.spec.shape == (batch, hidden)
        assert g.variables["lstm/kernel"].shape == (in_dim + hidden,
                                                    4 * hidden)
        assert dw.spec.shape == (in_dim + hidden, 4 * hidden)

    def test_grad_matches_finite_diff(self):
        batch, in_dim, hidden = 2, 3, 2
        x = RNG.standard_normal((batch, in_dim))
        zeros = np.zeros((batch, hidden))
        w = RNG.standard_normal((in_dim + hidden, 4 * hidden)) * 0.5
        b = RNG.standard_normal(4 * hidden) * 0.1
        gh = RNG.standard_normal((batch, hidden)).astype(np.float32)
        g, _, _, dw = one_step_lstm(batch, in_dim, hidden, gh)
        sess = Session(g)
        sess.write_variable("lstm/kernel", w.astype(np.float32))
        sess.write_variable("lstm/bias", b.astype(np.float32))
        got = sess.run(dw, {"x": x[:, None, :].astype(np.float32)})

        def scalar(wx):
            h1, _ = lstm_cell(x, zeros, zeros, wx, b)
            return float((h1 * gh).mean())

        num = finite_diff(scalar, w.astype(np.float32).astype(np.float64))
        np.testing.assert_allclose(got, num, atol=1e-4)


class TestMisc:
    def test_mean_all_grad(self):
        grad = k.mean_all_grad((2, 5), 1.0)
        np.testing.assert_allclose(grad, np.full((2, 5), 0.1), rtol=1e-6)

    def test_l2_norm_mixed(self):
        """Gradient clipping measures the L2 norm of an IndexedSlices'
        values and of a dense array alike."""
        from repro.nn.optimizers import _maybe_clip

        op = FakeOp({"clip_norm": 1.0})
        sl = IndexedSlices(np.array([[3.0]], dtype=np.float32), [0], (5, 1))
        arr = np.array([4.0, 0.0], dtype=np.float32)
        np.testing.assert_allclose(_maybe_clip(op, sl).values, [[1.0]])
        np.testing.assert_allclose(_maybe_clip(op, arr), [1.0, 0.0])

    def test_conv_proxy_matches_matmul(self):
        """The conv proxy layer is exactly a matmul by its kernel."""
        g = Graph()
        with g.as_default():
            x = ops.placeholder((2, 3), name="x")
            out = layers.conv_block(x, 4, name="conv", activation=None)
        sess = Session(g)
        xv = RNG.standard_normal((2, 3)).astype(np.float32)
        np.testing.assert_array_equal(
            sess.run(out, {"x": xv}), xv @ sess.read_variable(
                "conv/conv_kernel"))
