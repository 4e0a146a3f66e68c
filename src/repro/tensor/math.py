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
``z = exp(-|x|); where(x >= 0, 1, z) / (1 + z)`` runs, per element, the
very ufuncs the branch it belongs to would run -- the same bits with no
boolean gather/scatter -- and ``z <= 1`` means nothing can overflow.

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
    num = np.where(x >= 0, 1.0, z)
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
