"""Reference kernels: the bodies `src/` had before the LM's non-BLAS half
was put on a diet, and before its softmax was shared.

An oracle, not product code: the two-branch mask/gather/scatter sigmoid,
the `grad_add` fold that allocates a new total per term, the slice VJP
that zero-pads every slice gradient to the full tensor, and the
`softmax_xent` VJP that recomputes the softmax.  The one-pass `sigmoid`,
the in-place fold, the `concat` of tiling slice gradients and the
shared-softmax VJP must reproduce their bits (the `concat` up to the sign
of zero).
"""

import numpy as np


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
