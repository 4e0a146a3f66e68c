"""Op builders and kernel registries.

Each op type has:

* a **builder** (public function below) that adds the op to the default
  graph with shape inference;
* exactly one **body**.  A pure op registers ``@register_direct``: a
  builder returning a positional function over the input values, which
  the loop, generated code and the reference interpreter all call (see
  :data:`repro.graph.executor.DIRECT`).  An op that touches the runtime
  (variables, the run cache) registers a **forward kernel**
  ``kernel(op, inputs, runtime)`` in :data:`FORWARD` instead.  Neither
  registry accepts an op type the other holds;
* a **VJP rule** registered in :data:`VJP`, called by autodiff with the
  upstream gradient; it returns one gradient (or ``None``) per input.

Generated plans may add arena forms on top: ``DIRECT_OUT`` out-parameter
kernels, which fall back to the op's body, and ``VJP_OUT`` per-input
expansions of shared VJP rules.  Other packages (the distributed
transforms, the optimizers) register additional op types the same way,
keeping the executor open for extension without modification.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

import operator

from repro.graph.executor import DIRECT, register_direct, register_direct_out
from repro.graph.graph import Graph, Tensor, get_default_graph
from repro.tensor import math as k
from repro.tensor.dense import TensorSpec, as_array
from repro.tensor.sparse import IndexedSlices

FORWARD: Dict[str, Callable] = {}
VJP: Dict[str, Callable] = {}


def register_forward(op_type: str):
    def deco(fn):
        if op_type in FORWARD or op_type in DIRECT:
            raise ValueError(f"a kernel for {op_type!r} is already registered")
        FORWARD[op_type] = fn
        return fn

    return deco


def register_vjp(op_type: str):
    def deco(fn):
        if op_type in VJP:
            raise ValueError(f"VJP for {op_type!r} already registered")
        VJP[op_type] = fn
        return fn

    return deco


def _graph(graph: Optional[Graph]) -> Graph:
    return graph if graph is not None else get_default_graph()


# ======================================================================
# Leaf ops
# ======================================================================
def placeholder(shape, dtype="float32", name="placeholder", graph=None) -> Tensor:
    g = _graph(graph)
    op = g.add_op("placeholder", [], TensorSpec(tuple(shape), dtype), name=name)
    return op.output


@register_forward("placeholder")
def _placeholder_fwd(op, inputs, runtime):
    raise RuntimeError(
        f"placeholder {op.name!r} was not fed; pass it in feed_dict"
    )


def constant(value, name="constant", graph=None) -> Tensor:
    g = _graph(graph)
    arr = as_array(value)
    op = g.add_op(
        "constant", [], TensorSpec.of(arr), name=name, attrs={"value": arr}
    )
    return op.output


@register_direct("constant")
def _constant_direct(op):
    value = op.attrs["value"]

    def constant_direct():
        return value

    return constant_direct


@register_forward("read_var")
def _read_var_fwd(op, inputs, runtime):
    return runtime.read_variable(op.attrs["variable"])


# read_var's "gradient" is simply the upstream gradient; autodiff stops
# there and records it as the variable's gradient.
@register_vjp("read_var")
def _read_var_vjp(op, inputs, output, grad):
    return []


def identity(x: Tensor, name="identity", graph=None) -> Tensor:
    g = _graph(graph)
    return g.add_op("identity", [x], x.spec, name=name).output


@register_direct("identity")
def _identity_direct(op):
    def identity_direct(x):
        return x

    return identity_direct


@register_vjp("identity")
def _identity_vjp(op, inputs, output, grad):
    return [grad]


# ======================================================================
# Linear algebra / elementwise
# ======================================================================
def matmul(a: Tensor, b: Tensor, name="matmul", graph=None) -> Tensor:
    g = _graph(graph)
    if a.spec.shape[-1] != b.spec.shape[0]:
        raise ValueError(
            f"matmul shape mismatch: {a.spec.shape} @ {b.spec.shape}"
        )
    spec = TensorSpec(a.spec.shape[:-1] + (b.spec.shape[-1],), a.dtype)
    return g.add_op("matmul", [a, b], spec, name=name).output


@register_direct("matmul")
def _matmul_direct(op):
    return k.matmul


@register_vjp("matmul")
def _matmul_vjp(op, inputs, output, grad):
    da, db = k.matmul_grad(inputs[0], inputs[1], grad)
    return [da, db]


def add(a: Tensor, b: Tensor, name="add", graph=None) -> Tensor:
    g = _graph(graph)
    if a.spec.shape != b.spec.shape:
        raise ValueError(f"add shape mismatch: {a.spec.shape} vs {b.spec.shape}")
    return g.add_op("add", [a, b], a.spec, name=name).output


@register_direct("add")
def _add_direct(op):
    return operator.add


@register_vjp("add")
def _add_vjp(op, inputs, output, grad):
    return [grad, grad]


def mul(a: Tensor, b: Tensor, name="mul", graph=None) -> Tensor:
    g = _graph(graph)
    if a.spec.shape != b.spec.shape:
        raise ValueError(f"mul shape mismatch: {a.spec.shape} vs {b.spec.shape}")
    return g.add_op("mul", [a, b], a.spec, name=name).output


@register_direct("mul")
def _mul_direct(op):
    return operator.mul


@register_vjp("mul")
def _mul_vjp(op, inputs, output, grad):
    return [grad * inputs[1], grad * inputs[0]]


def scale(x: Tensor, factor: float, name="scale", graph=None) -> Tensor:
    g = _graph(graph)
    return g.add_op(
        "scale", [x], x.spec, name=name, attrs={"factor": float(factor)}
    ).output


@register_direct("scale")
def _scale_direct(op):
    factor = op.attrs["factor"]

    def scale_direct(value):
        if isinstance(value, IndexedSlices):
            return value.scale(factor)
        return value * factor

    return scale_direct


@register_vjp("scale")
def _scale_vjp(op, inputs, output, grad):
    return [grad * op.attrs["factor"]]


def add_bias(x: Tensor, b: Tensor, name="add_bias", graph=None) -> Tensor:
    g = _graph(graph)
    if b.spec.shape != (x.spec.shape[-1],):
        raise ValueError(
            f"bias shape {b.spec.shape} incompatible with input {x.spec.shape}"
        )
    return g.add_op("add_bias", [x, b], x.spec, name=name).output


@register_direct("add_bias")
def _add_bias_direct(op):
    return k.add_bias


@register_vjp("add_bias")
def _add_bias_vjp(op, inputs, output, grad):
    dx, db = k.add_bias_grad(grad)
    return [dx, db]


def relu(x: Tensor, name="relu", graph=None) -> Tensor:
    g = _graph(graph)
    return g.add_op("relu", [x], x.spec, name=name).output


@register_forward("relu")
def _relu_fwd(op, inputs, runtime):
    return k.relu(inputs[0])


@register_vjp("relu")
def _relu_vjp(op, inputs, output, grad):
    return [k.relu_grad(inputs[0], grad)]


def tanh(x: Tensor, name="tanh", graph=None) -> Tensor:
    g = _graph(graph)
    return g.add_op("tanh", [x], x.spec, name=name).output


@register_direct("tanh")
def _tanh_direct(op):
    return k.tanh


@register_vjp("tanh")
def _tanh_vjp(op, inputs, output, grad):
    return [k.tanh_grad(output, grad)]


def sigmoid(x: Tensor, name="sigmoid", graph=None) -> Tensor:
    g = _graph(graph)
    return g.add_op("sigmoid", [x], x.spec, name=name).output


@register_direct("sigmoid")
def _sigmoid_direct(op):
    return k.sigmoid


@register_vjp("sigmoid")
def _sigmoid_vjp(op, inputs, output, grad):
    return [k.sigmoid_grad(output, grad)]


def lstm_seq(zx: Tensor, w_h: Tensor, h0: Tensor, c0: Tensor,
             name="lstm_seq", graph=None) -> Tensor:
    """The whole LSTM recurrence as one op.

    *zx* is ``(batch, steps, 4*hidden)``, every step's input projection
    plus bias in gate order i, f, g, o; *w_h* the ``(hidden, 4*hidden)``
    recurrent rows; *h0*, *c0* the ``(batch, hidden)`` initial state,
    which takes no gradient.  The output is the ``(batch,
    7*steps*hidden)`` workspace of :func:`repro.tensor.math.lstm_views`:
    its first ``steps*hidden`` columns are the state sequence, which is
    all a graph should consume -- the VJP reads the gates and cells the
    forward left in the rest, and only the state columns' gradient.
    """
    g = _graph(graph)
    batch, steps, width = zx.spec.shape
    hidden = width // 4
    if (width != 4 * hidden or w_h.spec.shape != (hidden, width)
            or h0.spec.shape != (batch, hidden)
            or c0.spec.shape != (batch, hidden)):
        raise ValueError(
            f"lstm_seq shape mismatch: zx {zx.spec.shape}, w_h "
            f"{w_h.spec.shape}, h0 {h0.spec.shape}, c0 {c0.spec.shape}"
        )
    spec = TensorSpec((batch, 7 * steps * hidden), zx.dtype)
    return g.add_op("lstm_seq", [zx, w_h, h0, c0], spec, name=name).output


@register_direct("lstm_seq")
def _lstm_seq_direct(op):
    return k.lstm_seq


@register_vjp("lstm_seq")
def _lstm_seq_vjp(op, inputs, output, grad):
    dzx, dw_h = k.lstm_seq_grad(*inputs, output, grad)
    return [dzx, dw_h, None, None]


# ======================================================================
# Shape ops
# ======================================================================
def reshape(x: Tensor, shape, name="reshape", graph=None) -> Tensor:
    g = _graph(graph)
    shape = tuple(int(d) for d in shape)
    known = [d for d in shape if d != -1]
    if shape.count(-1) > 1:
        raise ValueError("reshape allows at most one -1 dim")
    if shape.count(-1) == 1:
        rest = int(np.prod(known)) if known else 1
        if rest == 0 or x.spec.num_elements % rest != 0:
            raise ValueError(f"cannot reshape {x.spec.shape} to {shape}")
        shape = tuple(
            x.spec.num_elements // rest if d == -1 else d for d in shape
        )
    if int(np.prod(shape)) != x.spec.num_elements:
        raise ValueError(f"cannot reshape {x.spec.shape} to {shape}")
    spec = TensorSpec(shape, x.dtype)
    return g.add_op(
        "reshape", [x], spec, name=name, attrs={"shape": shape}
    ).output


@register_direct("reshape")
def _reshape_direct(op):
    shape = op.attrs["shape"]

    def reshape_direct(x):
        return np.reshape(x, shape)

    return reshape_direct


@register_vjp("reshape")
def _reshape_vjp(op, inputs, output, grad):
    return [np.reshape(grad, np.asarray(inputs[0]).shape)]


def concat(tensors: Sequence[Tensor], axis: int, name="concat", graph=None) -> Tensor:
    g = _graph(graph)
    if not tensors:
        raise ValueError("concat needs at least one tensor")
    base = tensors[0].spec
    axis = axis if axis >= 0 else base.rank + axis
    total = 0
    for t in tensors:
        if t.spec.rank != base.rank:
            raise ValueError("concat inputs must share rank")
        for d in range(base.rank):
            if d != axis and t.spec.shape[d] != base.shape[d]:
                raise ValueError(
                    f"concat mismatch on dim {d}: {t.spec.shape} vs {base.shape}"
                )
        total += t.spec.shape[axis]
    shape = base.shape[:axis] + (total,) + base.shape[axis + 1:]
    spec = TensorSpec(shape, base.dtype)
    return g.add_op(
        "concat", list(tensors), spec, name=name, attrs={"axis": axis}
    ).output


@register_direct("concat")
def _concat_direct(op):
    axis = op.attrs["axis"]

    def concat_direct(*values):
        return np.concatenate(values, axis=axis)

    return concat_direct


@register_vjp("concat")
def _concat_vjp(op, inputs, output, grad):
    axis = op.attrs["axis"]
    sizes = [np.asarray(x).shape[axis] for x in inputs]
    splits = np.cumsum(sizes)[:-1]
    return list(np.split(grad, splits, axis=axis))


def slice_axis(x: Tensor, lo: int, hi: int, axis: int = -1,
               name="slice", graph=None) -> Tensor:
    """Contiguous slice ``[lo, hi)`` along *axis* (static bounds)."""
    g = _graph(graph)
    axis = axis if axis >= 0 else x.spec.rank + axis
    if not (0 <= lo <= hi <= x.spec.shape[axis]):
        raise ValueError(
            f"slice [{lo},{hi}) out of range for dim {x.spec.shape[axis]}"
        )
    shape = x.spec.shape[:axis] + (hi - lo,) + x.spec.shape[axis + 1:]
    spec = TensorSpec(shape, x.dtype)
    # The basic-index tuple every slice kernel applies, built once here.
    index = [slice(None)] * x.spec.rank
    index[axis] = slice(lo, hi)
    return g.add_op(
        "slice", [x], spec, name=name,
        attrs={"lo": lo, "hi": hi, "axis": axis, "index": tuple(index)},
    ).output


@register_direct("slice")
def _slice_direct(op):
    index = op.attrs["index"]

    def slice_direct(x):
        return np.asarray(x)[index]

    return slice_direct


@register_vjp("slice")
def _slice_vjp(op, inputs, output, grad):
    full = np.zeros_like(np.asarray(inputs[0]))
    full[op.attrs["index"]] = grad
    return [full]


# ======================================================================
# Sparse access
# ======================================================================
def gather(params: Tensor, indices: Tensor, name="gather", graph=None) -> Tensor:
    """Row lookup; its VJP yields an :class:`IndexedSlices`.

    When ``params`` is a variable read, the sparse gradient type flows back
    to the variable, which is how Parallax classifies it as sparse.
    """
    g = _graph(graph)
    if not params.spec.rank:
        raise ValueError("gather params must have rank >= 1")
    spec = TensorSpec(indices.spec.shape + params.spec.shape[1:], params.dtype)
    return g.add_op("gather", [params, indices], spec, name=name).output


@register_direct("gather")
def _gather_direct(op):
    return k.gather


@register_vjp("gather")
def _gather_vjp(op, inputs, output, grad):
    params, indices = inputs
    return [k.gather_grad(np.asarray(params).shape, indices, grad), None]


# ======================================================================
# Losses / reductions
# ======================================================================
def mean(x: Tensor, name="mean", graph=None) -> Tensor:
    g = _graph(graph)
    return g.add_op("mean", [x], TensorSpec((), x.dtype), name=name).output


@register_direct("mean")
def _mean_direct(op):
    def mean_direct(x):
        return np.float32(k.mean_all(x))

    return mean_direct


@register_vjp("mean")
def _mean_vjp(op, inputs, output, grad):
    return [k.mean_all_grad(np.asarray(inputs[0]).shape, float(grad))]


def softmax_xent(logits: Tensor, labels: Tensor, name="softmax_xent",
                 graph=None) -> Tensor:
    """Mean cross-entropy of rank-2 *logits* against integer *labels*.

    Emits a forward ``softmax`` op and the ``softmax_xent`` op, which
    takes its probabilities as a third, non-differentiable input: the
    loss and its VJP both read that one array, so a step computes the
    softmax once (``repro.tensor.math`` says why no bit changes).
    """
    g = _graph(graph)
    if logits.spec.rank != 2:
        raise ValueError("softmax_xent expects rank-2 logits")
    probs = g.add_op("softmax", [logits], logits.spec,
                     name=f"{name}/softmax").output
    return g.add_op(
        "softmax_xent", [logits, labels, probs], TensorSpec((), logits.dtype),
        name=name,
    ).output


@register_direct("softmax")
def _softmax_direct(op):
    return k.softmax


@register_direct("softmax_xent")
def _softmax_xent_direct(op):
    def softmax_xent_direct(logits, labels, probs):
        return np.float32(k.xent_of_probs(probs, labels))

    return softmax_xent_direct


@register_vjp("softmax_xent")
def _softmax_xent_vjp(op, inputs, output, grad):
    return [k.xent_grad_of_probs(inputs[2], inputs[1], grad), None, None]


def mse_loss(pred: Tensor, target: Tensor, name="mse", graph=None) -> Tensor:
    g = _graph(graph)
    return g.add_op("mse", [pred, target], TensorSpec((), pred.dtype), name=name).output


@register_forward("mse")
def _mse_fwd(op, inputs, runtime):
    return np.float32(k.mse(inputs[0], inputs[1]))


@register_vjp("mse")
def _mse_vjp(op, inputs, output, grad):
    return [k.mse_grad(inputs[0], inputs[1]) * float(grad), None]


# ======================================================================
# Control / state ops (executed for effect; used by optimizers and the
# distributed transforms)
# ======================================================================
def group(ops_or_tensors: Sequence, name="group", graph=None) -> Tensor:
    """Run every input; produce nothing (a train_op is usually a group)."""
    g = _graph(graph)
    tensors: List[Tensor] = []
    for item in ops_or_tensors:
        tensors.append(item if isinstance(item, Tensor) else item.output)
    op = g.add_op("group", tensors, TensorSpec(()), name=name)
    return op.output


@register_forward("group")
def _group_fwd(op, inputs, runtime):
    return None


@register_forward("assign")
def _assign_fwd(op, inputs, runtime):
    runtime.write_variable(op.attrs["variable"], np.array(inputs[0]))
    return None


@register_forward("assign_sub")
def _assign_sub_fwd(op, inputs, runtime):
    name = op.attrs["variable"]
    runtime.write_variable(name, runtime.read_variable(name) - inputs[0])
    return None


@register_forward("scatter_sub")
def _scatter_sub_fwd(op, inputs, runtime):
    name = op.attrs["variable"]
    delta = inputs[0]
    if not isinstance(delta, IndexedSlices):
        raise TypeError(
            f"scatter_sub on {name!r} expects IndexedSlices, got {type(delta)}"
        )
    current = runtime.read_variable(name)
    k.scatter_sub(current, delta)
    runtime.write_variable(name, current)
    return None


# ======================================================================
# Out-parameter kernels for the buffer arena
# ======================================================================
# Each builder returns ``fn(*inputs, out)`` writing into a preallocated
# arena buffer.  Every fn guards the runtime values against the compile
# time assumptions (exact ndarray type, matching dtype/shape) and calls
# the op's one body on any mismatch, so a stale spec or a sparse value
# degrades to extra allocation -- never to a wrong or silently-cast
# result.  The ``out=`` forms invoke the same ufunc / BLAS routine as the
# allocating body with an output of the same dtype, so results are
# bitwise identical.

def _is_dense(a, out):
    return type(a) is np.ndarray and a.dtype == out.dtype


@register_direct_out("matmul")
def _matmul_out(op):
    body = DIRECT["matmul"](op)

    def matmul_out(a, b, out):
        if (_is_dense(a, out) and _is_dense(b, out)
                and a.ndim == 2 and b.ndim == 2 and out.ndim == 2
                and out.shape == (a.shape[0], b.shape[1])):
            return np.matmul(a, b, out=out)
        return body(a, b)

    return matmul_out


@register_direct_out("concat")
def _concat_out(op):
    """A fused bucket's pack: the buffer plan hands it the bucket and has
    member gradients born in their regions, so an input that already is
    its region is not copied; any other input is copied into its region.
    Only axis-0 concats of same-dtype arrays take the buffer."""
    body = DIRECT["concat"](op)

    def concat_out(*args):
        *values, out = args
        if op.attrs["axis"] != 0 or not all(
                _is_dense(v, out) and v.ndim == out.ndim
                and v.shape[1:] == out.shape[1:] for v in values) or sum(
                v.shape[0] for v in values) != out.shape[0]:
            return body(*values)
        lo = 0
        for v in values:
            region = out[lo:lo + v.shape[0]]
            lo += v.shape[0]
            if not (v.flags.c_contiguous and _data_ptr(v) == _data_ptr(region)):
                region[...] = v
        return out

    return concat_out


def _data_ptr(a) -> int:
    return a.__array_interface__["data"][0]


@register_direct_out("add")
def _add_out(op):
    body = DIRECT["add"](op)

    def add_out(a, b, out):
        if (_is_dense(a, out) and _is_dense(b, out)
                and a.shape == out.shape and b.shape == out.shape):
            return np.add(a, b, out=out)
        return body(a, b)

    return add_out


@register_direct_out("mul")
def _mul_out(op):
    body = DIRECT["mul"](op)

    def mul_out(a, b, out):
        if (_is_dense(a, out) and _is_dense(b, out)
                and a.shape == out.shape and b.shape == out.shape):
            return np.multiply(a, b, out=out)
        return body(a, b)

    return mul_out


@register_direct_out("add_bias")
def _add_bias_out(op):
    def add_bias_out(x, b, out):
        if (_is_dense(x, out) and _is_dense(b, out)
                and x.shape == out.shape and x.ndim >= 1
                and b.shape == x.shape[-1:]):
            return np.add(x, b, out=out)
        return k.add_bias(x, b)

    return add_bias_out


@register_direct_out("tanh")
def _tanh_out(op):
    def tanh_out(x, out):
        if _is_dense(x, out) and x.shape == out.shape:
            return np.tanh(x, out=out)
        return k.tanh(x)

    return tanh_out


@register_direct_out("relu")
def _relu_out(op):
    def relu_out(x, out):
        if _is_dense(x, out) and x.shape == out.shape:
            return np.maximum(x, 0.0, out=out)
        return k.relu(x)

    return relu_out


@register_direct_out("sigmoid")
def _sigmoid_out(op):
    def sigmoid_out(x, out):
        if _is_dense(x, out) and x.shape == out.shape:
            return k.sigmoid_out(x, out)
        return k.sigmoid(x)

    return sigmoid_out


@register_direct_out("scale")
def _scale_out(op):
    factor = op.attrs["factor"]
    body = DIRECT["scale"](op)

    def scale_out(value, out):
        if _is_dense(value, out) and value.shape == out.shape:
            return np.multiply(value, factor, out=out)
        return body(value)

    return scale_out


# Out-parameter expansions of the shared vjp rules, used by generated
# plans to turn one multi-output rule call into per-node single-output
# kernels that write into arena buffers.  Keyed by forward op type; each
# builder receives (fwd_op, input_index) and returns
# ``(relative_arg_positions, fn)`` -- positions index the vjp node's
# input list ``[*fwd_inputs, output, grad]`` -- or None when that index
# of that rule cannot be expanded.  Fallback branches replicate the
# exact expression the generic rule uses for that output index.
VJP_OUT: Dict[str, Callable] = {}


def _register_vjp_out(op_type: str):
    def deco(fn):
        VJP_OUT[op_type] = fn
        return fn

    return deco


@_register_vjp_out("matmul")
def _matmul_vjp_out(fwd_op, index):
    if index == 0:
        def grad_a(g, b, out):  # g @ b.T
            if (_is_dense(g, out) and _is_dense(b, out)
                    and g.ndim == 2 and b.ndim == 2 and out.ndim == 2
                    and out.shape == (g.shape[0], b.shape[0])):
                return np.matmul(g, b.T, out=out)
            return g @ b.T

        return (3, 1), grad_a  # (grad, b)

    def grad_b(a, g, out):  # a.T @ g
        if (_is_dense(a, out) and _is_dense(g, out)
                and a.ndim == 2 and g.ndim == 2 and out.ndim == 2
                and out.shape == (a.shape[1], g.shape[1])):
            return np.matmul(a.T, g, out=out)
        return a.T @ g

    return (0, 3), grad_b  # (a, grad)


@_register_vjp_out("add_bias")
def _add_bias_vjp_out(fwd_op, index):
    if index == 0:
        return None  # the incoming gradient itself (EXPAND_ALIAS_VJP)

    def grad_bias(g, out):
        if (_is_dense(g, out) and g.ndim >= 1 and out.ndim == 1
                and out.shape == g.shape[-1:]):
            return np.sum(g.reshape(-1, g.shape[-1]), axis=0, out=out)
        return g.reshape(-1, g.shape[-1]).sum(axis=0)

    return (3,), grad_bias  # (grad,)


@_register_vjp_out("tanh")
def _tanh_vjp_out(fwd_op, index):
    def fn(y, g, out):
        if (_is_dense(y, out) and _is_dense(g, out)
                and y.shape == out.shape and g.shape == out.shape):
            return k.tanh_grad_out(y, g, out)
        return k.tanh_grad(y, g)

    return (1, 2), fn  # (output, grad)


@_register_vjp_out("sigmoid")
def _sigmoid_vjp_out(fwd_op, index):
    def fn(y, g, out):
        if (_is_dense(y, out) and _is_dense(g, out)
                and y.shape == out.shape and g.shape == out.shape):
            return k.sigmoid_grad_out(y, g, out)
        return k.sigmoid_grad(y, g)

    return (1, 2), fn  # (output, grad)


@_register_vjp_out("relu")
def _relu_vjp_out(fwd_op, index):
    def fn(x, g, out):
        if (_is_dense(x, out) and _is_dense(g, out)
                and x.shape == out.shape and g.shape == out.shape):
            return k.relu_grad_out(x, g, out)
        return k.relu_grad(x, g)

    return (0, 2), fn  # (fwd input, grad)


@_register_vjp_out("mul")
def _mul_vjp_out(fwd_op, index):
    def fn(g, other, out):
        if (_is_dense(g, out) and _is_dense(other, out)
                and g.shape == out.shape and other.shape == out.shape):
            return np.multiply(g, other, out=out)
        return g * other

    # d(a*b)/da = g * b (other = input 1); d/db = g * a (other = input 0).
    return (3, 1 - index), fn


@_register_vjp_out("scale")
def _scale_vjp_out(fwd_op, index):
    factor = fwd_op.attrs["factor"]

    def fn(g, out):
        if _is_dense(g, out) and g.shape == out.shape:
            return np.multiply(g, factor, out=out)
        return g * factor

    return (2,), fn  # (grad,)
