"""Numeric kernels used by the graph executor.

Each kernel is a pure function over numpy arrays.  Backward kernels are
kept next to their forward counterparts; the autodiff layer in
``repro.graph.gradients`` wires them together.  The ``gather`` backward is
the one place a *sparse* gradient (IndexedSlices) is born -- exactly as in
TensorFlow, where that type propagates to the variable and marks it sparse.

Why the one-pass sigmoid is exact.  The numerically stable sigmoid is
``1 / (1 + exp(-x))`` for ``x >= 0`` and ``exp(x) / (1 + exp(x))``
below zero.  Both branches exponentiate the same number, ``-|x|`` (a
sign flip is exact), and divide by the same ``1 + exp(-|x|)``; they
differ only in the numerator, ``1`` or ``exp(-|x|)``.  So
``z = exp(-|x|); maximum(z, x >= 0) / (1 + z)`` runs, per element, the
very ufuncs the branch it belongs to would run -- the same bits with no
boolean gather/scatter -- and ``z <= 1`` means nothing can overflow.
The numerator needs no select: ``z <= 1``, so the maximum with the mask
is ``1`` for ``x >= 0`` and ``z`` below, and a NaN ``x`` makes ``z`` a
NaN that ``maximum`` propagates.

Why the softmax is computed once.  The graph's ``softmax_xent`` reads the
probabilities of a separate forward ``softmax`` op: its loss is
:func:`xent_of_probs` and its gradient :func:`xent_grad_of_probs`, both
of that one array.  Recomputing ``softmax(logits)`` in the backward pass
would rerun the same function on the same input, so sharing it changes no
bit: the gradient is the copy, the in-place ``-= 1``, ``/= n`` and
``*= g`` that the recomputing form applied to its fresh softmax.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.tensor.sparse import IndexedSlices


# ----------------------------------------------------------------------
# Elementwise / linear algebra
# ----------------------------------------------------------------------
def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b


def matmul_grad(a: np.ndarray, b: np.ndarray, g: np.ndarray):
    return g @ b.T, a.T @ g


def add_bias(x: np.ndarray, b: np.ndarray) -> np.ndarray:
    return x + b


def add_bias_grad(g: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    return g, g.reshape(-1, g.shape[-1]).sum(axis=0)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_grad(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    return g * (x > 0)


def tanh(x: np.ndarray) -> np.ndarray:
    return np.tanh(x)


def tanh_grad(y: np.ndarray, g: np.ndarray) -> np.ndarray:
    # In-place chain of g * (1.0 - y * y); float multiplication commutes
    # exactly, so results are bitwise identical to the naive expression.
    t = y * y
    np.subtract(1.0, t, out=t)
    t *= g
    return t


def sigmoid(x: np.ndarray) -> np.ndarray:
    return sigmoid_out(x, np.empty_like(x))


def sigmoid_grad(y: np.ndarray, g: np.ndarray) -> np.ndarray:
    # (g * y) * (1.0 - y), left-to-right like the naive expression.
    t = g * y
    t *= 1.0 - y
    return t


# ----------------------------------------------------------------------
# Out-parameter twins for the buffer arena
# ----------------------------------------------------------------------
# Each *_out kernel performs exactly the ufunc sequence of its allocating
# twin above, writing the result into a caller-provided buffer whose
# dtype matches the operands (so no cast is introduced anywhere) --
# results are bitwise identical by construction.  Callers (the generated
# plans) guard shape/dtype/type compatibility and fall back to the
# allocating twin on mismatch.
def sigmoid_out(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    # z = exp(-|x|); the module docstring says why this is bit-exact.
    z = np.abs(x, out=np.empty_like(out))
    np.negative(z, out=z)
    np.exp(z, out=z)
    num = np.maximum(z, x >= 0)
    z += 1.0
    return np.divide(num, z, out=out)


def tanh_grad_out(y: np.ndarray, g: np.ndarray,
                  out: np.ndarray) -> np.ndarray:
    np.multiply(y, y, out=out)
    np.subtract(1.0, out, out=out)
    np.multiply(out, g, out=out)
    return out


def sigmoid_grad_out(y: np.ndarray, g: np.ndarray,
                     out: np.ndarray) -> np.ndarray:
    np.multiply(g, y, out=out)
    np.multiply(out, 1.0 - y, out=out)
    return out


def relu_grad_out(x: np.ndarray, g: np.ndarray,
                  out: np.ndarray) -> np.ndarray:
    np.multiply(g, x > 0, out=out)
    return out


# ----------------------------------------------------------------------
# The LSTM recurrence as one kernel
# ----------------------------------------------------------------------
# Appleyard et al. (arXiv:1604.01946) and cuDNN run the whole recurrence
# as one unit.  Both kernels below run, per element, the ufunc sequence
# of the primitive-op cell -- ``z = zx_t + h @ W_h``; sigmoid i/f/o and
# tanh g; ``c = f*c + i*g``; ``h = o*tanh(c)`` -- and of autodiff through
# it, and every sum has the unrolled graph's order or two terms (exact
# either way), so states and gradients keep their bits.  Scratch arrays
# are allocated once per call, not once per step.
def lstm_views(ws: np.ndarray, steps: int, hidden: int):
    """``(h, gates, c, tanh_c)`` views of an LSTM workspace, each
    ``(batch, steps, width)``.

    A ``(batch, 7*steps*hidden)`` workspace holds, per row, every step's
    ``h`` (so its first ``steps*hidden`` columns are the state sequence),
    then its ``i, f, g, o`` gate activations, ``c`` and ``tanh(c)``.
    """
    batch, th = ws.shape[0], steps * hidden
    return (ws[:, :th].reshape(batch, steps, hidden),
            ws[:, th:5 * th].reshape(batch, steps, 4 * hidden),
            ws[:, 5 * th:6 * th].reshape(batch, steps, hidden),
            ws[:, 6 * th:].reshape(batch, steps, hidden))


def lstm_seq(zx: np.ndarray, w_h: np.ndarray, h0: np.ndarray,
             c0: np.ndarray) -> np.ndarray:
    """Every step of an LSTM over precomputed input projections.

    *zx* is ``(batch, steps, 4*hidden)``: ``x_t @ W_x + b`` for every
    step, gate order i, f, g, o.  Returns the workspace of
    :func:`lstm_views`.
    """
    batch, steps, width = zx.shape
    hidden = width // 4
    ws = np.empty((batch, 7 * steps * hidden), zx.dtype)
    hs, gates, cs, tcs = lstm_views(ws, steps, hidden)
    z = np.empty((batch, width), zx.dtype)
    ig = np.empty((batch, hidden), zx.dtype)
    h_next = np.empty((batch, hidden), zx.dtype)  # contiguous for BLAS
    h, c = h0, c0
    for t in range(steps):
        np.matmul(h, w_h, out=z)
        z += zx[:, t]
        gate = gates[:, t]
        sigmoid_out(z, gate)  # i, f and o; g is overwritten next
        np.tanh(z[:, 2 * hidden:3 * hidden],
                out=gate[:, 2 * hidden:3 * hidden])
        i, f, g, o = (gate[:, j * hidden:(j + 1) * hidden] for j in range(4))
        c = np.multiply(f, c, out=cs[:, t])
        c += np.multiply(i, g, out=ig)
        tc = np.tanh(c, out=tcs[:, t])
        h = np.multiply(o, tc, out=h_next)
        hs[:, t] = h
    return ws


def lstm_seq_grad(zx: np.ndarray, w_h: np.ndarray, h0: np.ndarray,
                  c0: np.ndarray, ws: np.ndarray,
                  dws: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Backpropagation through time for :func:`lstm_seq`: ``(dzx, dW_h)``.

    Reads the forward's gates, ``c`` and ``tanh(c)`` from *ws* and only
    the state-sequence columns of *dws* (the rest of the workspace is
    the op's own). ``dW_h`` is the left fold over ``t = T-1 .. 0`` that
    autodiff's ``grad_add`` makes of the unrolled per-step products.
    """
    batch, steps, width = zx.shape
    hidden = width // 4
    hs, gates, cs, tcs = lstm_views(ws, steps, hidden)
    dhs = lstm_views(dws, steps, hidden)[0]
    dzx = np.empty((batch, steps, width), zx.dtype)
    dw = np.empty(w_h.shape, zx.dtype)
    dw_t = np.empty_like(dw)
    dgate = np.empty((batch, width), zx.dtype)
    dh_sum, dh_rec, dtc, dc, dc_next = (np.empty((batch, hidden), zx.dtype)
                                        for _ in range(5))
    last = steps - 1
    for t in range(last, -1, -1):
        h_prev, c_prev = (hs[:, t - 1], cs[:, t - 1]) if t else (h0, c0)
        gate, tc = gates[:, t], tcs[:, t]
        i, f, g, o = (gate[:, j * hidden:(j + 1) * hidden] for j in range(4))
        dh = dhs[:, t]
        if t != last:
            dh = np.add(dh, dh_rec, out=dh_sum)
        np.multiply(dh, tc, out=dgate[:, 3 * hidden:])  # do
        np.multiply(dh, o, out=dtc)
        tanh_grad_out(tc, dtc, dc)
        if t != last:
            dc += dc_next
        np.multiply(dc, g, out=dgate[:, :hidden])  # di
        np.multiply(dc, c_prev, out=dgate[:, hidden:2 * hidden])  # df
        np.multiply(dc, i, out=dgate[:, 2 * hidden:3 * hidden])  # dg
        if t:
            np.multiply(dc, f, out=dc_next)
        dz = dzx[:, t]
        sigmoid_grad_out(gate, dgate, dz)  # i, f and o; g is overwritten
        tanh_grad_out(g, dgate[:, 2 * hidden:3 * hidden],
                      dz[:, 2 * hidden:3 * hidden])
        if t == last:
            np.matmul(h_prev.T, dz, out=dw)
        else:
            np.matmul(h_prev.T, dz, out=dw_t)
            dw += dw_t
        if t:
            np.matmul(dz, w_h.T, out=dh_rec)
    return dzx, dw


# ----------------------------------------------------------------------
# Embedding access (the sparse path)
# ----------------------------------------------------------------------
def gather(params: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Row lookup.  The forward op behind every embedding layer."""
    return params[np.asarray(indices, dtype=np.int64)]


def gather_grad(params_shape: Tuple[int, ...], indices: np.ndarray,
                g: np.ndarray) -> IndexedSlices:
    """Gradient of ``gather`` w.r.t. ``params``: an IndexedSlices.

    Only the looked-up rows receive gradient -- this sparse type flowing to
    a variable is what classifies the variable as *sparse* (paper sec. 5).
    """
    idx = np.asarray(indices, dtype=np.int64).reshape(-1)
    vals = np.asarray(g).reshape((idx.size,) + tuple(params_shape[1:]))
    # Full constructor on purpose: the forward gather accepts negative ids
    # via numpy wraparound, so this is where a bad id must fail loudly.
    return IndexedSlices(vals, idx, tuple(params_shape))


def scatter_sub(target: np.ndarray, slices: IndexedSlices) -> np.ndarray:
    np.subtract.at(target, slices.indices, slices.values)
    return target


# ----------------------------------------------------------------------
# Losses
# ----------------------------------------------------------------------
def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    np.exp(shifted, out=shifted)
    return shifted / shifted.sum(axis=-1, keepdims=True)


def xent_of_probs(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean cross-entropy over the batch from ``softmax(logits)``."""
    n = probs.shape[0]
    picked = probs[np.arange(n), np.asarray(labels, dtype=np.int64)]
    return float(-np.log(np.clip(picked, 1e-12, None)).mean())


def xent_grad_of_probs(probs: np.ndarray, labels: np.ndarray,
                       g: float) -> np.ndarray:
    """``(probs - onehot(labels)) / n * g``: the gradient of
    :func:`xent_of_probs` w.r.t. the logits, formed in place on one copy
    of *probs*, which is only read (see the module docstring)."""
    grad = np.array(probs)
    n = grad.shape[0]
    grad[np.arange(n), np.asarray(labels, dtype=np.int64)] -= 1.0
    grad /= n
    grad *= float(g)
    return grad


def mse(pred: np.ndarray, target: np.ndarray) -> float:
    diff = pred - target
    return float((diff * diff).mean())


def mse_grad(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    return 2.0 * (pred - target) / pred.size


# ----------------------------------------------------------------------
# Reductions
# ----------------------------------------------------------------------
def mean_all(x: np.ndarray) -> float:
    return float(np.mean(x))


def mean_all_grad(shape: Tuple[int, ...], g: float) -> np.ndarray:
    n = int(np.prod(shape)) if shape else 1
    return np.full(shape, g / n, dtype=np.float32)
