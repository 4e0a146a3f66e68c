"""Reference kernels: the bodies `src/` had before the LM's non-BLAS half
was put on a diet, and before its softmax was shared.

An oracle, not product code: the two-branch mask/gather/scatter sigmoid
and the one-pass form that selected its numerator with `np.where`, the
`grad_add` fold that allocates a new total per term, the slice VJP that
zero-pads every slice gradient to the full tensor, and the
`softmax_xent` VJP that recomputes the softmax.  The one-pass `sigmoid`,
the in-place fold, the `concat` of tiling slice gradients and the
shared-softmax VJP must reproduce their bits (the `concat` up to the sign
of zero).

`lstm_cell` is the single-step LSTM cell `repro.nn.layers.lstm` is
checked against.
"""

import numpy as np

from repro.tensor.math import sigmoid


def oracle_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    neg = ~pos
    xp = x[pos]
    np.negative(xp, out=xp)
    np.exp(xp, out=xp)
    xp += 1.0
    np.divide(1.0, xp, out=xp)
    out[pos] = xp
    ex = np.exp(x[neg])
    denom = ex + 1.0
    np.divide(ex, denom, out=denom)
    out[neg] = denom
    return out


def oracle_where_sigmoid(x):
    """``z = exp(-|x|); where(x >= 0, 1, z) / (1 + z)``."""
    z = np.exp(np.negative(np.abs(x)))
    num = np.where(x >= 0, 1.0, z)
    z += 1.0
    return np.divide(num, z)


def oracle_grad_add(values):
    """Dense left fold, a fresh array per term."""
    total = np.array(values[0])
    for value in values[1:]:
        total = total + value
    return total


def oracle_softmax_xent_grad(logits, labels, g):
    """The VJP before the softmax was shared: it recomputes
    ``softmax(logits)`` and scales a second fresh array by ``g``."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    np.exp(shifted, out=shifted)
    probs = shifted / shifted.sum(axis=-1, keepdims=True)
    n = logits.shape[0]
    probs[np.arange(n), np.asarray(labels, dtype=np.int64)] -= 1.0
    return probs / n * float(g)


def oracle_slice_vjp(x, lo, hi, axis, grad):
    """The gradient of ``x[lo:hi]`` along *axis*, zero-padded to ``x``."""
    full = np.zeros_like(np.asarray(x))
    index = [slice(None)] * full.ndim
    index[axis] = slice(lo, hi)
    full[tuple(index)] = grad
    return full


def lstm_cell(x, h, c, w, b):
    """Single LSTM step: ``w`` is ``(input+hidden, 4*hidden)`` with gate
    order i, f, g, o.  Returns ``(h_new, c_new)``."""
    hidden = h.shape[-1]
    z = np.concatenate([x, h], axis=-1) @ w + b
    i = sigmoid(z[..., 0 * hidden:1 * hidden])
    f = sigmoid(z[..., 1 * hidden:2 * hidden])
    g = np.tanh(z[..., 2 * hidden:3 * hidden])
    o = sigmoid(z[..., 3 * hidden:4 * hidden])
    c_new = f * c + i * g
    return o * np.tanh(c_new), c_new
